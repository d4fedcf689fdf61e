"""Command-line front end.

Subcommands: ``bp`` (synthetic sparse recovery), ``portfolio`` (returns CSV),
``svm`` (libsvm data), ``check`` (schedule-inequality and saddle-point
residual suites), ``bounds`` (rate constants and bound curves). Options may
come from flags or a flat ``key = value`` config file, with flags taking
precedence; a config key is the flag's name (``--checkpoint-every`` is
``checkpoint_every``). Exit codes: 0 success, 1 usage error, 2 solver/data
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from importlib import resources
from typing import Callable, Optional

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


def _number_or_auto(raw: str):
    """bp's --alpha0: a number, or 'auto' for the data-driven rule."""
    if raw == "auto":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number or 'auto', got {raw!r}") from None


@dataclasses.dataclass(frozen=True)
class _Option:
    """One option of a subcommand, with every rule its value must meet.

    ``kind`` parses a value from its text, and ``bool`` makes a switch.
    ``read_by`` names the solvers that read the option (None: every one);
    for any other solver the option must keep its default. ``least`` is
    "positive" or "nonnegative", and finite in both cases.
    """

    flag: str
    kind: Callable
    default: object
    help: str
    choices: Optional[tuple] = None
    required: bool = False
    read_by: Optional[tuple] = None
    least: Optional[str] = None

    @property
    def name(self) -> str:
        """The option's key in the parsed options and in a config file."""
        return self.flag[2:].replace("-", "_")

    def parse(self, raw: str):
        """A config entry's value, of the option's kind and among its
        choices; ``none`` or nothing only where the default is None."""
        if self.kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        if self.default is None and raw.lower() in ("none", ""):
            return None
        value = self.kind(raw)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{value!r} not in {self.choices}")
        return value

    def check(self, value, solver) -> None:
        """Refuse ``value``, from a flag or a config file, as the setting
        of a ``solver`` run (None for check and bounds)."""
        if self.required and value is None:
            raise UsageError(f"missing required option {self.flag}")
        if (self.read_by is not None and solver not in self.read_by
                and value != self.default):
            raise UsageError(f"--solver {solver} does not read {self.flag}")
        if self.least is not None and value is not None:
            positive = self.least == "positive"
            if not ((value > 0 if positive else value >= 0)
                    and value < math.inf):
                raise UsageError(
                    f"{self.flag} must be {'positive' if positive else '>= 0'}"
                    f" and finite, got {value}")


_CONFIG = _Option("--config", str, None,
                  "key = value config file (flags override)")


def _schedule_rows(alpha0, omega: float, m0: int, read_by=None) -> list:
    """The --alpha0, --omega and --m0 rows, with these defaults."""
    auto = alpha0 == "auto"
    return [
        _Option("--alpha0", _number_or_auto if auto else float, alpha0,
                "initial step size"
                + (", or 'auto' for the data-driven rule" if auto else ""),
                read_by=read_by),
        _Option("--omega", float, omega, "epoch growth factor",
                read_by=read_by),
        _Option("--m0", int, m0, "first epoch length", read_by=read_by),
    ]


def _run_rows(solvers: tuple, alpha0, omega: float, m0: int,
              passes: float) -> list:
    """The rows of bp, portfolio and svm, for their --solver choices."""
    sasc = ("sasc",)
    return [
        _Option("--solver", str, "sasc", "solver to run", choices=solvers),
        *_schedule_rows(alpha0, omega, m0, read_by=sasc),
        _Option("--passes", float, passes,
                "data passes (sets the sample budget)"),
        _Option("--budget", int, None, "sample budget (overrides passes)"),
        _Option("--epochs", int, None,
                "epoch count (overrides passes and budget)", read_by=sasc),
        _Option("--minibatch", int, 1, "samples per inner step",
                read_by=sasc),
        _Option("--seed", int, 0, "RNG seed"),
        _Option("--checkpoint-every", int, 256,
                "samples between trace records"),
        # Pegasos measures on the --test file
        _Option("--validation-samples", int, 1000,
                "held-out sample count for checkpoint estimates",
                read_by=tuple(s for s in solvers if s != "pegasos")),
        _Option("--no-timing", bool, False,
                "zero the wall_time column for byte-exact reruns"),
        _Option("--out", str, None, "output trace CSV path", required=True),
        _CONFIG,
    ]


_CHECK_SCHEDULE = [
    _Option("--case", int, 1, "schedule regime", choices=(1, 2)),
    *_schedule_rows(1.0, 2.0, 2),
    _Option("--norm-bound", float, 1.0, "constraint operator norm bound",
            least="positive"),
]

# Every option of every subcommand; the parsed options and a config file
# name each by its flag without the dashes (_Option.name).
_OPTIONS = {
    "bp": [
        _Option("--d", int, 50, "signal dimension"),
        _Option("--n", int, 20000, "number of measurements"),
        _Option("--sparsity", int, 5, "nonzeros in the planted vector"),
        _Option("--rho", float, 0.9, "AR(1) correlation"),
        _Option("--mu", float, 1e-5, "fixed proximal step", read_by=("spp",)),
        _Option("--step", float, 1.0, "base step", read_by=("sgd",)),
    ] + _run_rows(("sasc", "sgd", "spp"), "auto", 2.0, 2, 2.0),
    "portfolio": [
        _Option("--data", str, None,
                "returns CSV (days x assets); bundled synthetic data when "
                "omitted"),
        _Option("--epsilon", float, 0.2, "per-day deviation bound"),
        _Option("--mu", float, 1e-2, "fixed proximal step", read_by=("spp",)),
        _Option("--reference", bool, False,
                "compute the deterministic reference point and track "
                "distance to it", read_by=("sasc",)),
        _Option("--reference-tol", float, 1e-7,
                "tolerance for the reference solver", read_by=("sasc",)),
    ] + _run_rows(("sasc", "spp"), 1.0, 1.2, 2, 2.0),
    "svm": [
        _Option("--data", str, None, "training file (libsvm format)",
                required=True),
        _Option("--test", str, None, "held-out file (libsvm format)"),
        _Option("--lambda", float, None,
                "regularization weight, 1/n when omitted",
                read_by=("pegasos",)),
    ] + _run_rows(("sasc", "pegasos"), 0.5, 2.0, 4, 1.0),
    "check": _CHECK_SCHEDULE + [
        _Option("--smax", int, 40, "largest epoch index checked",
                least="positive"),
        _Option("--residual-draws", int, 1000,
                "random draws for the saddle-point residual suite",
                least="positive"),
        _Option("--seed", int, 0, "RNG seed"),
        _CONFIG,
    ],
    "bounds": _CHECK_SCHEDULE + [
        _Option("--y-star-norm", float, 0.0, "dual certificate norm"),
        _Option("--sigma-f", float, 0.0, "gradient noise bound"),
        _Option("--x0-dist", float, 1.0,
                "distance from the start point to the solution",
                least="nonnegative"),
        _Option("--lipschitz-g", float, None,
                "Lipschitz constant of the smoothed term (extension surplus)",
                least="nonnegative"),
        _Option("--m-max", int, 100000, "largest M evaluated"),
        _Option("--m-count", int, 25, "number of M points", least="positive"),
        _Option("--out", str, None, "bound-curve CSV path"),
        _CONFIG,
    ],
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sasc", description=__doc__)
    sub = parser.add_subparsers(dest="cmd")
    for cmd, options in _OPTIONS.items():
        sp = sub.add_parser(cmd, prog=f"sasc {cmd}")
        for opt in options:
            how = (dict(action="store_true") if opt.kind is bool
                   else dict(type=opt.kind, choices=opt.choices))
            readers = ("" if opt.read_by is None
                       else f"; read by {', '.join(opt.read_by)}")
            sp.add_argument(opt.flag, default=argparse.SUPPRESS,
                            help=opt.help + readers, **how)
    return parser


def _merge_options(cmd: str, ns: argparse.Namespace) -> dict:
    """defaults < config file < flags; then every option's rules, once."""
    options = {opt.name: opt for opt in _OPTIONS[cmd]}
    merged = {name: opt.default for name, opt in options.items()}
    given = {k: v for k, v in vars(ns).items() if k != "cmd"}
    if given.get("config"):
        for key, raw in load_config_file(given["config"]).items():
            opt = options.get(key.replace("-", "_"))
            if opt is None:
                raise UsageError(
                    f"unknown config key {key!r} for subcommand {cmd!r}")
            try:
                merged[opt.name] = opt.parse(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
    merged.update(given)
    for name, opt in options.items():
        opt.check(merged[name], merged.get("solver"))
    # before a handler seeds a generator with it
    if merged.get("seed", 0) < 0:
        raise UsageError(f"seed must be >= 0, got {merged['seed']}")
    return merged


_CASES = {1: Case.GENERAL_CONVEX, 2: Case.RESTRICTED_STRONGLY_CONVEX}


def _schedule(o: dict, case: Case, **run) -> SascConfig:
    """The SascConfig of the options' alpha0, omega and m0, checked when built."""
    return SascConfig(alpha0=o["alpha0"], omega=o["omega"], m0=o["m0"],
                      case=case, **run)


def _solve(o: dict, n: int, problem, case: Case = Case.GENERAL_CONVEX,
           cert=None, holdout=None):
    """Configure and run the chosen solver; ``problem`` is Pegasos's dataset.

    The sample budget is --budget, else floor(--passes * n), which must be
    finite. A restricted-strongly-convex schedule needs
    m0 >= omega / (mu alpha0), so m0 is raised to that least value in a copy
    of the config, checked again; a least value past the floats is left to
    that check to refuse.
    """
    solver, samples = o["solver"], o["budget"]
    if samples is None:
        if not 0 < o["passes"] < math.inf:
            raise UsageError(
                f"--passes must be positive and finite, got {o['passes']}")
        if o["passes"] * n == math.inf:
            raise UsageError(f"--passes {o['passes']} times the {n} samples "
                             "is a budget past the floats")
        samples = int(math.floor(o["passes"] * n))
    if solver == "sasc":
        cfg = _schedule(
            o, case, epochs=o["epochs"],
            sample_budget=None if o["epochs"] is not None else samples,
            seed=o["seed"], minibatch=o["minibatch"],
            checkpoint_every=o["checkpoint_every"],
            eval_samples=o["validation_samples"])
        if case is Case.RESTRICTED_STRONGLY_CONVEX:
            least = cfg.omega / (problem.mu * cfg.alpha0)
            if least < math.inf:
                cfg = dataclasses.replace(cfg, m0=max(cfg.m0, math.ceil(least)))
        return run_sasc(problem, cfg, cert=cert)
    if solver == "pegasos":
        lam = o["lambda"] if o["lambda"] is not None else 1.0 / n
        return run_pegasos(problem, lam, samples, seed=o["seed"],
                           eval_dataset=holdout,
                           checkpoint_every=o["checkpoint_every"])
    cfg = BaselineConfig(solver, step=o["mu"] if solver == "spp" else o["step"],
                         iterations=samples, seed=o["seed"],
                         checkpoint_every=o["checkpoint_every"],
                         eval_samples=o["validation_samples"])
    return (run_spp if solver == "spp" else run_projected_sgd)(problem, cfg)


def _emit(trace, o: dict) -> None:
    if o["no_timing"]:
        trace = ConvergenceTrace([dataclasses.replace(r, wall_time=0.0)
                                  for r in trace.records])
    write_trace_csv(trace, o["out"])
    last = trace.records[-1]
    print(f"wrote {o['out']}: {len(trace.records)} checkpoints, "
          f"final objective {last.objective:.6g}, "
          f"feasibility {last.feasibility:.6g}")


def _cmd_bp(o: dict) -> int:
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
    cfg = _schedule(o, _CASES[o["case"]], epochs=1)
    if o["m_max"] < cfg.m0:
        raise UsageError("--m-max must be at least m0")
    # CertificateInputs checks --y-star-norm and --sigma-f
    cert = CertificateInputs(x_star=np.array([o["x0_dist"]]), p_star=0.0,
                             y_star_norm=o["y_star_norm"], sigma_f=o["sigma_f"])
    x0 = np.zeros(1)
    consts = rate_constants(cfg, o["norm_bound"], cert, x0)
    grid = np.unique(np.round(np.geomspace(
        cfg.m0, o["m_max"], num=o["m_count"])).astype(int))
    curves = bound_curves(cfg, o["norm_bound"], cert, x0, grid,
                          lipschitz_g=o["lipschitz_g"])
    print(" ".join(f"{name.upper()}={value:.12g}"
                   for name, value in consts._asdict().items()))
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
        return _HANDLERS[ns.cmd](_merge_options(ns.cmd, ns))
    except (UsageError, ConfigurationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return cli_main()
