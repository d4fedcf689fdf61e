"""Command-line front end.

Subcommands: ``bp`` (synthetic sparse recovery), ``portfolio`` (returns CSV),
``svm`` (libsvm data), ``check`` (schedule-inequality and saddle-point
residual suites), ``bounds`` (rate constants and bound curves). Options may
come from flags or a flat ``key = value`` config file, with flags taking
precedence. Exit codes: 0 success, 1 usage error, 2 solver/data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from importlib import resources

import numpy as np

from .baselines import BaselineConfig, run_pegasos, run_projected_sgd, run_spp
from .core import (
    Case,
    ConvergenceTrace,
    SascConfig,
    bound_curves,
    rate_constants,
    run_sasc,
    schedule_inequalities_check,
)
from .errors import ConfigurationError
from .problems import (
    LabeledSparseDataset,
    auto_alpha0,
    gen_basis_pursuit,
    make_bp_least_squares_problem,
    make_bp_problem,
    make_min_norm_hyperplane_problem,
    make_portfolio_problem,
    make_svm_problem,
    reference_solution,
)
from .smoothing import CertificateInputs, saddle_point_residuals
from .trace_io import (
    load_config_file,
    parse_libsvm,
    read_returns_csv,
    write_trace_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's exit 2
        raise UsageError(message)


# (flag, dest, kind, default, required, choices, help)
_COMMON_RUN = [
    ("--seed", "seed", "int", 0, False, None, "RNG seed"),
    ("--minibatch", "minibatch", "int", 1, False, None, "samples per inner step"),
    ("--checkpoint-every", "checkpoint_every", "int", 256, False, None,
     "samples between trace records"),
    ("--validation-samples", "validation_samples", "int", 1000, False, None,
     "held-out sample count for checkpoint estimates"),
    ("--no-timing", "no_timing", "flag", False, False, None,
     "zero the wall_time column for byte-exact reruns"),
    ("--out", "out", "str", None, True, None, "output trace CSV path"),
    ("--config", "config", "str", None, False, None,
     "key = value config file (flags override)"),
]

_OPTIONS = {
    "bp": [
        ("--d", "d", "int", 50, False, None, "signal dimension"),
        ("--n", "n", "int", 20000, False, None, "number of measurements"),
        ("--sparsity", "sparsity", "int", 5, False, None,
         "nonzeros in the planted vector"),
        ("--rho", "rho", "float", 0.9, False, None, "AR(1) correlation"),
        ("--solver", "solver", "str", "sasc", False, ("sasc", "sgd", "spp"),
         "solver to run"),
        ("--alpha0", "alpha0", "str", "auto", False, None,
         "initial step size, or 'auto' for the data-driven rule"),
        ("--omega", "omega", "float", 2.0, False, None, "epoch growth factor"),
        ("--m0", "m0", "int", 2, False, None, "first epoch length"),
        ("--passes", "passes", "float", 2.0, False, None,
         "data passes (sets the sample budget)"),
        ("--epochs", "epochs", "int", None, False, None,
         "epoch count (overrides passes/budget)"),
        ("--budget", "budget", "int", None, False, None,
         "total sample budget (overrides passes)"),
        ("--mu", "mu", "float", 1e-5, False, None, "fixed proximal step (spp)"),
        ("--step", "step", "float", 1.0, False, None, "base step (sgd)"),
    ] + _COMMON_RUN,
    "portfolio": [
        ("--data", "data", "str", None, False, None,
         "returns CSV (days x assets); bundled synthetic data when omitted"),
        ("--epsilon", "epsilon", "float", 0.2, False, None,
         "per-day deviation bound"),
        ("--solver", "solver", "str", "sasc", False, ("sasc", "spp"),
         "solver to run"),
        ("--alpha0", "alpha0", "float", 1.0, False, None, "initial step size"),
        ("--omega", "omega", "float", 1.2, False, None, "epoch growth factor"),
        ("--m0", "m0", "int", 2, False, None, "first epoch length"),
        ("--passes", "passes", "float", 2.0, False, None, "data passes"),
        ("--epochs", "epochs", "int", None, False, None, "epoch count"),
        ("--budget", "budget", "int", None, False, None, "sample budget"),
        ("--mu", "mu", "float", 1e-2, False, None, "fixed proximal step (spp)"),
        ("--reference", "reference", "flag", False, False, None,
         "compute the deterministic reference point and track distance to it"),
        ("--reference-tol", "reference_tol", "float", 1e-7, False, None,
         "tolerance for the reference solver"),
    ] + _COMMON_RUN,
    "svm": [
        ("--data", "data", "str", None, True, None, "training file (libsvm format)"),
        ("--test", "test", "str", None, False, None, "held-out file (libsvm format)"),
        ("--solver", "solver", "str", "sasc", False, ("sasc", "pegasos"),
         "solver to run"),
        ("--lambda", "lam", "float", None, False, None,
         "regularization weight for pegasos (default 1/n)"),
        ("--alpha0", "alpha0", "float", 0.5, False, None, "initial step size"),
        ("--omega", "omega", "float", 2.0, False, None, "epoch growth factor"),
        ("--m0", "m0", "int", 4, False, None,
         "first epoch length (raised to the schedule's minimum when needed)"),
        ("--passes", "passes", "float", 1.0, False, None, "data passes"),
        ("--epochs", "epochs", "int", None, False, None, "epoch count"),
        ("--budget", "budget", "int", None, False, None, "sample budget"),
    ] + _COMMON_RUN,
    "check": [
        ("--case", "case", "int", 1, False, (1, 2), "schedule regime"),
        ("--m0", "m0", "int", 2, False, None, "first epoch length"),
        ("--omega", "omega", "float", 2.0, False, None, "epoch growth factor"),
        ("--alpha0", "alpha0", "float", 1.0, False, None, "initial step size"),
        ("--smax", "smax", "int", 40, False, None, "largest epoch index checked"),
        ("--norm-bound", "norm_bound", "float", 1.0, False, None,
         "constraint operator norm bound"),
        ("--residual-draws", "residual_draws", "int", 1000, False, None,
         "random draws for the saddle-point residual suite"),
        ("--seed", "seed", "int", 0, False, None, "RNG seed"),
        ("--config", "config", "str", None, False, None, "config file"),
    ],
    "bounds": [
        ("--case", "case", "int", 1, False, (1, 2), "schedule regime"),
        ("--alpha0", "alpha0", "float", 1.0, False, None, "initial step size"),
        ("--m0", "m0", "int", 2, False, None, "first epoch length"),
        ("--omega", "omega", "float", 2.0, False, None, "epoch growth factor"),
        ("--norm-bound", "norm_bound", "float", 1.0, False, None,
         "constraint operator norm bound"),
        ("--y-star-norm", "y_star_norm", "float", 0.0, False, None,
         "dual certificate norm"),
        ("--sigma-f", "sigma_f", "float", 0.0, False, None,
         "gradient noise bound"),
        ("--x0-dist", "x0_dist", "float", 1.0, False, None,
         "distance from the start point to the solution"),
        ("--lipschitz-g", "lipschitz_g", "float", None, False, None,
         "Lipschitz constant of the smoothed term (extension surplus)"),
        ("--m-max", "m_max", "int", 100000, False, None, "largest M evaluated"),
        ("--m-count", "m_count", "int", 25, False, None, "number of M points"),
        ("--out", "out", "str", None, False, None, "bound-curve CSV path"),
        ("--config", "config", "str", None, False, None, "config file"),
    ],
}

_CONFIG_ALIASES = {"lambda": "lam"}

_KIND_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
}


def _parse_config_value(kind: str, raw: str, default):
    """The value of one config entry; ``none`` only where the default is None."""
    if kind == "flag":
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if raw.lower() in ("none", ""):
        if default is not None:
            raise ValueError(f"needs a value of type {kind}, got {raw!r}")
        return None
    return _KIND_PARSERS[kind](raw)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sasc", description=__doc__)
    sub = parser.add_subparsers(dest="cmd")
    for name, opts in _OPTIONS.items():
        sp = sub.add_parser(name, prog=f"sasc {name}")
        for flag, dest, kind, default, required, choices, helptext in opts:
            if kind == "flag":
                sp.add_argument(flag, dest=dest, action="store_true",
                                default=argparse.SUPPRESS, help=helptext)
            else:
                typ = _KIND_PARSERS[kind]
                sp.add_argument(flag, dest=dest, type=typ,
                                default=argparse.SUPPRESS, choices=choices,
                                help=helptext)
    return parser


def _merge_options(cmd: str, ns: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; then required-field check."""
    table = _OPTIONS[cmd]
    by_dest = {dest: (kind, default, choices)
               for _, dest, kind, default, _, choices, _ in table}
    merged = {dest: default for _, dest, _, default, _, _, _ in table}
    given = {k: v for k, v in vars(ns).items() if k != "cmd"}

    config_path = given.get("config", merged.get("config"))
    if config_path:
        for key, raw in load_config_file(config_path).items():
            dest = _CONFIG_ALIASES.get(key, key).replace("-", "_")
            if dest not in by_dest:
                raise UsageError(
                    f"unknown config key {key!r} for subcommand {cmd!r}")
            kind, default, choices = by_dest[dest]
            try:
                val = _parse_config_value(kind, raw, default)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: {exc}")
            if choices is not None and val is not None and val not in choices:
                raise UsageError(
                    f"config key {key!r}: {val!r} not in {choices}")
            merged[dest] = val
    merged.update(given)

    for _, dest, _, _, required, _, _ in table:
        if required and merged.get(dest) is None:
            flag = next(f for f, d, *_ in table if d == dest)
            raise UsageError(f"missing required option {flag}")
    return merged


# The solvers that read each solver-specific option; every other option is
# read by every solver. A value the chosen solver never reads must equal its
# default.
_READ_BY = {
    "alpha0": ("sasc",), "omega": ("sasc",), "m0": ("sasc",),
    "epochs": ("sasc",), "minibatch": ("sasc",),
    "reference": ("sasc",), "reference_tol": ("sasc",),
    "mu": ("spp",), "step": ("sgd",),
    "lam": ("pegasos",),
    "validation_samples": ("sasc", "spp", "sgd"),
}

_CASES = {1: Case.GENERAL_CONVEX, 2: Case.RESTRICTED_STRONGLY_CONVEX}


def _check_solver_settings(cmd: str, o: dict) -> None:
    """Reject a setting the chosen solver never reads, unless at its default."""
    solver = o["solver"]
    for flag, dest, _, default, _, _, _ in _OPTIONS[cmd]:
        if solver not in _READ_BY.get(dest, (solver,)) and o[dest] != default:
            raise UsageError(f"--solver {solver} does not read {flag}")


def _schedule(o: dict, case: Case, **run) -> SascConfig:
    """The SascConfig of the options' alpha0, omega and m0, checked when built."""
    return SascConfig(alpha0=o["alpha0"], omega=o["omega"], m0=o["m0"],
                      case=case, **run)


def _check_finite(o: dict, dest: str, positive: bool = False) -> None:
    """Refuse a numeric option that no config class checks.

    The value must be finite and at least 0, or above 0 when ``positive``.
    """
    value = o[dest]
    if not ((value > 0 if positive else value >= 0) and value < math.inf):
        least = "positive" if positive else ">= 0"
        raise UsageError(f"--{dest.replace('_', '-')} must be {least} and "
                         f"finite, got {value}")


def _solve(o: dict, n: int, problem, case: Case = Case.GENERAL_CONVEX,
           cert=None, holdout=None):
    """Configure and run the chosen solver; ``problem`` is Pegasos's dataset.

    The sample budget is --budget, else floor(--passes * n). A
    restricted-strongly-convex schedule needs m0 >= omega / (mu alpha0), so
    m0 is raised to that least value in a copy of the config, checked again.
    """
    solver, samples = o["solver"], o["budget"]
    if samples is None:
        if not 0 < o["passes"] < math.inf:
            raise UsageError(
                f"--passes must be positive and finite, got {o['passes']}")
        samples = int(math.floor(o["passes"] * n))
    if solver == "sasc":
        cfg = _schedule(
            o, case, epochs=o["epochs"],
            sample_budget=None if o["epochs"] is not None else samples,
            seed=o["seed"], minibatch=o["minibatch"],
            checkpoint_every=o["checkpoint_every"],
            eval_samples=o["validation_samples"])
        if case is Case.RESTRICTED_STRONGLY_CONVEX:
            cfg = dataclasses.replace(cfg, m0=max(
                cfg.m0, math.ceil(cfg.omega / (problem.mu * cfg.alpha0))))
        return run_sasc(problem, cfg, cert=cert)
    if solver == "pegasos":
        lam = o["lam"] if o["lam"] is not None else 1.0 / n
        return run_pegasos(problem, lam, samples, seed=o["seed"],
                           eval_dataset=holdout,
                           checkpoint_every=o["checkpoint_every"])
    cfg = BaselineConfig(solver, step=o["mu"] if solver == "spp" else o["step"],
                         iterations=samples, seed=o["seed"],
                         checkpoint_every=o["checkpoint_every"],
                         eval_samples=o["validation_samples"])
    return (run_spp if solver == "spp" else run_projected_sgd)(problem, cfg)


def _emit(trace, o: dict) -> None:
    if o.get("no_timing"):
        trace = ConvergenceTrace([dataclasses.replace(r, wall_time=0.0)
                                  for r in trace.records])
    write_trace_csv(trace, o["out"])
    last = trace.records[-1]
    print(f"wrote {o['out']}: {len(trace.records)} checkpoints, "
          f"final objective {last.objective:.6g}, "
          f"feasibility {last.feasibility:.6g}")


def _cmd_bp(o: dict) -> int:
    if o["alpha0"] != "auto":
        try:
            o["alpha0"] = float(o["alpha0"])
        except ValueError:
            raise UsageError(f"--alpha0 must be a number or 'auto', "
                             f"got {o['alpha0']!r}") from None
    inst = gen_basis_pursuit(o["d"], o["n"], o["sparsity"], o["rho"], o["seed"])
    cert = CertificateInputs(x_star=inst.x_star,
                             p_star=float(np.sum(np.abs(inst.x_star))))
    if o["alpha0"] == "auto":
        o["alpha0"] = auto_alpha0(inst)
    make = (make_bp_least_squares_problem if o["solver"] == "sgd"
            else make_bp_problem)
    x, trace = _solve(o, o["n"], make(inst), cert=cert)
    rel = float(np.linalg.norm(x - inst.x_star) / np.linalg.norm(inst.x_star))
    _emit(trace, o)
    print(f"relative error to planted vector: {rel:.4g}")
    return 0


def _bundled_returns():
    path = resources.files("sasc").joinpath("data/synthetic_returns.csv")
    with resources.as_file(path) as p:
        return read_returns_csv(p)


def _cmd_portfolio(o: dict) -> int:
    returns = read_returns_csv(o["data"]) if o["data"] else _bundled_returns()
    problem = make_portfolio_problem(returns, o["epsilon"])
    cert = None
    if o["reference"]:
        x_ref, p_ref = reference_solution(problem, o["reference_tol"])
        cert = CertificateInputs(x_star=x_ref, p_star=p_ref)
    _, trace = _solve(o, returns.shape[0], problem, cert=cert)
    _emit(trace, o)
    return 0


def _with_dim(dataset: LabeledSparseDataset, dim: int) -> LabeledSparseDataset:
    """The dataset in dimension ``dim``: entries in columns >= dim dropped."""
    keep = dataset.indices < dim
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return LabeledSparseDataset(kept_before[dataset.indptr],
                                dataset.indices[keep], dataset.data[keep],
                                dataset.labels, dim)


def _cmd_svm(o: dict) -> int:
    dataset = parse_libsvm(o["data"])
    holdout = None
    if o["test"]:
        # widened or cut to the training dimension, through the constructor
        holdout = _with_dim(parse_libsvm(o["test"]), dataset.dim)
    sasc = o["solver"] == "sasc"
    problem = make_svm_problem(dataset) if sasc else dataset
    x, trace = _solve(o, len(dataset), problem,
                      Case.RESTRICTED_STRONGLY_CONVEX, holdout=holdout)
    if sasc and holdout is not None:
        err = float(np.mean(holdout.margins(x) <= 0.0))
        print(f"held-out 0/1 error: {err:.4f}")
    _emit(trace, o)
    return 0


def _residual_suite_worst_slacks(draws: int, seed: int):
    problem, cert = make_min_norm_hyperplane_problem()
    rng = np.random.default_rng(seed)
    worst = np.full(4, np.inf)
    for _ in range(draws):
        x = rng.uniform(-5.0, 5.0, size=2)
        beta = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        res = saddle_point_residuals(x, beta, problem, cert, n_samples=1, seed=0)
        worst = np.minimum(worst, res)
    return worst


def _cmd_check(o: dict) -> int:
    _check_finite(o, "norm_bound", positive=True)
    _check_finite(o, "smax", positive=True)
    _check_finite(o, "residual_draws", positive=True)
    cfg = _schedule(o, _CASES[o["case"]], epochs=1)
    slacks = schedule_inequalities_check(cfg, o["norm_bound"], o["smax"])
    print(f"schedule inequalities (case {o['case']}, s <= {o['smax']}):")
    for name, slack in slacks.items():
        print(f"  {name}: worst slack {slack:.6e}")
    worst_residual = _residual_suite_worst_slacks(o["residual_draws"], o["seed"])
    print(f"saddle-point residual suite ({o['residual_draws']} draws):")
    for i, slack in enumerate(worst_residual, start=1):
        print(f"  residual_{i}: worst slack {slack:.6e}")
    overall = min(min(slacks.values()), float(np.min(worst_residual)))
    print(f"minimum slack overall: {overall:.6e}")
    if overall < -1e-9:
        print("CHECK FAILED: an inequality is violated beyond tolerance")
        return 2
    return 0


def _cmd_bounds(o: dict) -> int:
    _check_finite(o, "norm_bound", positive=True)
    _check_finite(o, "x0_dist")
    if o["lipschitz_g"] is not None:
        _check_finite(o, "lipschitz_g")
    _check_finite(o, "m_count", positive=True)
    cfg = _schedule(o, _CASES[o["case"]], epochs=1)
    if o["m_max"] < cfg.m0:
        raise UsageError("--m-max must be at least m0")
    # CertificateInputs checks --y-star-norm and --sigma-f
    cert = CertificateInputs(x_star=np.array([o["x0_dist"]]), p_star=0.0,
                             y_star_norm=o["y_star_norm"], sigma_f=o["sigma_f"])
    x0 = np.zeros(1)
    consts = rate_constants(cfg, o["norm_bound"], cert, x0)
    print(" ".join(f"{name.upper()}={value:.12g}"
                   for name, value in consts._asdict().items()))
    grid = np.unique(np.round(np.geomspace(
        cfg.m0, o["m_max"], num=o["m_count"])).astype(int))
    curves = bound_curves(cfg, o["norm_bound"], cert, x0, grid,
                          lipschitz_g=o["lipschitz_g"])
    lines = ["M,objective_bound,feasibility_bound"]
    lines += [f"{m},{ob:.17g},{fb:.17g}" for m, (ob, fb) in zip(grid, curves)]
    if o["out"]:
        with open(o["out"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {o['out']}: {len(grid)} rows")
    else:
        print("\n".join(lines))
    return 0


_HANDLERS = {
    "bp": _cmd_bp,
    "portfolio": _cmd_portfolio,
    "svm": _cmd_svm,
    "check": _cmd_check,
    "bounds": _cmd_bounds,
}


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits
        return 0 if exc.code in (0, None) else 1
    if ns.cmd is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        opts = _merge_options(ns.cmd, ns)
        if "solver" in opts:
            _check_solver_settings(ns.cmd, opts)
        return _HANDLERS[ns.cmd](opts)
    except (UsageError, ConfigurationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return cli_main()
