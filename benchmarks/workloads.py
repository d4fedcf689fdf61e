"""The benchmark's three workloads, one per experiment family of the paper.

Each workload turns one instance seed into inputs (files on disk where the
CLI reads files), builds the problem from them exactly as the CLI does, runs
``run_sasc`` and the family's comparator through the package's public
functions, and checks the outputs. Sizes and solver settings are fixed here
so that every run of the benchmark does the same work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from sasc import (
    BaselineConfig,
    CertificateInputs,
    SascConfig,
    auto_alpha0,
    gen_basis_pursuit,
    gen_synthetic_returns,
    make_bp_problem,
    make_portfolio_problem,
    make_svm_problem,
    parse_libsvm,
    read_returns_csv,
    reference_solution,
    run_pegasos,
    run_sasc,
    run_spp,
)
from sasc.core import Case

CHECKPOINT_EVERY = 256
EVAL_SAMPLES = 1000


@dataclass
class Instance:
    """A built problem plus what the solvers and checks need besides it."""

    seed: int
    problem: object
    extra: dict = field(default_factory=dict)


class BasisPursuit:
    """Sparse recovery: min ||x||_1 s.t. a_i^T x = b_i, single-sample steps."""

    name = "bp"
    comparator = "spp"
    instances = 16
    MINIBATCH = 1
    D, N, SPARSITY, RHO = 50, 20_000, 5, 0.9
    BUDGET = 32_766          # the 14 whole epochs m_s = 2 * 2^s that fit 40k
    REL_ERR_MAX = 0.1        # the limits of acceptance criterion c05
    FEAS_MAX = 0.05

    def make_inputs(self, workdir, seeds):
        return list(seeds)   # the CLI generates bp instances from the seed

    def setup(self, seed, tracer):
        inst = tracer.call("problems.gen", gen_basis_pursuit,
                           self.D, self.N, self.SPARSITY, self.RHO, seed)
        problem = tracer.call("problems.make_problem", make_bp_problem, inst)
        return Instance(seed, problem, {"planted": inst})

    def solve(self, inst, tracer):
        planted = inst.extra["planted"]
        cfg = SascConfig(alpha0=auto_alpha0(planted), omega=2.0, m0=2,
                         case=Case.GENERAL_CONVEX, sample_budget=self.BUDGET,
                         seed=inst.seed, checkpoint_every=CHECKPOINT_EVERY,
                         eval_samples=EVAL_SAMPLES)
        cert = CertificateInputs(x_star=planted.x_star,
                                 p_star=float(np.sum(np.abs(planted.x_star))))
        return run_sasc(tracer.problem(inst.problem, "core.eval"), cfg, cert=cert)

    def baseline(self, inst, tracer):
        cfg = BaselineConfig("spp", step=1e-3, iterations=self.BUDGET,
                             seed=inst.seed, checkpoint_every=CHECKPOINT_EVERY,
                             eval_samples=EVAL_SAMPLES)
        return run_spp(tracer.problem(inst.problem, "baselines.eval"), cfg)

    def check(self, inst, x, trace, x_base, trace_base):
        x_star = inst.extra["planted"].x_star
        rel = float(np.linalg.norm(x - x_star) / np.linalg.norm(x_star))
        feas = trace.records[-1].feasibility
        errors = []
        if not rel <= self.REL_ERR_MAX:
            errors.append(f"sasc relative error {rel:.4g} > {self.REL_ERR_MAX}")
        if not feas <= self.FEAS_MAX:
            errors.append(f"sasc feasibility {feas:.4g} > {self.FEAS_MAX}")
        errors += _budget_errors("sasc", trace, self.BUDGET)
        errors += _budget_errors("spp", trace_base, self.BUDGET)
        if not np.all(np.isfinite(x_base)):
            errors.append("spp returned a non-finite point")
        return errors, feas, rel

    def cli_args(self, seed):
        common = ["bp", "--d", str(self.D), "--n", str(self.N),
                  "--sparsity", str(self.SPARSITY), "--rho", str(self.RHO),
                  "--budget", str(self.BUDGET), "--seed", str(seed)]
        return {
            "sasc": common + ["--solver", "sasc", "--alpha0", "auto",
                              "--omega", "2", "--m0", "2"],
            "spp": common + ["--solver", "spp", "--mu", "0.001"],
        }


class Portfolio:
    """Long-short portfolio over a returns CSV, minibatch steps, oracle setup."""

    name = "portfolio"
    comparator = "spp"
    instances = 3
    DAYS, ASSETS, EPSILON = 200, 50, 0.2    # the reference oracle's size cap
    BUDGET, MINIBATCH = 20_000, 16
    REF_TOL = 1e-7
    PLANE_TOL = 1e-9

    def make_inputs(self, workdir, seeds):
        paths = []
        for seed in seeds:
            path = os.path.join(workdir, f"returns-{seed}.csv")
            returns = gen_synthetic_returns(self.DAYS, self.ASSETS, seed)
            np.savetxt(path, returns, fmt="%.17g", delimiter=",")
            paths.append((seed, path))
        return paths

    def setup(self, inp, tracer):
        seed, path = inp
        tracer.count("trace_io.parse.bytes", os.path.getsize(path))
        returns = tracer.call("trace_io.parse", read_returns_csv, path)
        problem = tracer.call("problems.make_problem", make_portfolio_problem,
                              returns, self.EPSILON)
        x_ref, p_ref = tracer.call("problems.reference_solution",
                                   reference_solution, problem, self.REF_TOL)
        return Instance(seed, problem, {"x_ref": x_ref, "p_ref": p_ref})

    def solve(self, inst, tracer):
        cfg = SascConfig(alpha0=1.0, omega=1.2, m0=2, case=Case.GENERAL_CONVEX,
                         sample_budget=self.BUDGET, minibatch=self.MINIBATCH,
                         seed=inst.seed, checkpoint_every=CHECKPOINT_EVERY,
                         eval_samples=EVAL_SAMPLES)
        cert = CertificateInputs(x_star=inst.extra["x_ref"],
                                 p_star=inst.extra["p_ref"])
        return run_sasc(tracer.problem(inst.problem, "core.eval"), cfg, cert=cert)

    def baseline(self, inst, tracer):
        cfg = BaselineConfig("spp", step=1e-2, iterations=self.BUDGET,
                             seed=inst.seed, checkpoint_every=CHECKPOINT_EVERY,
                             eval_samples=EVAL_SAMPLES)
        return run_spp(tracer.problem(inst.problem, "baselines.eval"), cfg)

    def check(self, inst, x, trace, x_base, trace_base):
        x_ref = inst.extra["x_ref"]
        ref_feas = float(np.sqrt(np.mean(
            inst.problem.constraints.distances(x_ref) ** 2)))
        errors = []
        if not ref_feas <= self.REF_TOL:
            errors.append(f"oracle feasibility {ref_feas:.3g} > {self.REF_TOL}")
        for solver, point in (("sasc", x), ("spp", x_base)):
            if not abs(float(np.sum(point)) - 1.0) <= self.PLANE_TOL:
                errors.append(f"{solver} point is off the budget plane")
        errors += _budget_errors("spp", trace_base, self.BUDGET)
        rel = float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))
        return errors, trace.records[-1].feasibility, rel

    def cli_args(self, inp):
        return {}


class Svm:
    """Hard-margin SVM on sparse libsvm files; dense problem, eval-bound Pegasos."""

    name = "svm"
    comparator = "pegasos"
    instances = 4
    MINIBATCH = 1
    DIM, NNZ, TRAIN, TEST = 1000, 20, 20_000, 5_000
    MARGIN = 0.01            # least |<w, a>| / ||a|| kept, w the planted unit normal
    BUDGET = 20_000          # one pass; sasc fits 12 epochs (16,380 steps)
    HOLDOUT_ERR_MAX = 0.05

    def make_inputs(self, workdir, seeds):
        paths = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            normal = rng.standard_normal(self.DIM)
            normal /= np.linalg.norm(normal)
            pair = []
            for part, n in (("train", self.TRAIN), ("test", self.TEST)):
                path = os.path.join(workdir, f"{part}-{seed}.svm")
                _write_libsvm(path, *self._separable_rows(rng, normal, n))
                pair.append(path)
            paths.append((seed, *pair))
        return paths

    def _separable_rows(self, rng, normal, n):
        """n rows of NNZ distinct indices, labelled by the side of ``normal``."""
        idx_parts, val_parts, lab_parts = [], [], []
        kept = 0
        while kept < n:
            m = 2 * (n - kept) + 64
            idx = np.sort(rng.integers(0, self.DIM, size=(m, self.NNZ)), axis=1)
            vals = np.round(rng.standard_normal((m, self.NNZ)), 4)
            margin = (vals * normal[idx]).sum(axis=1) / np.linalg.norm(vals, axis=1)
            keep = (np.all(np.diff(idx, axis=1) > 0, axis=1)
                    & (np.abs(margin) >= self.MARGIN))
            idx_parts.append(idx[keep])
            val_parts.append(vals[keep])
            lab_parts.append(np.sign(margin[keep]))
            kept += int(keep.sum())
        return (np.concatenate(idx_parts)[:n], np.concatenate(val_parts)[:n],
                np.concatenate(lab_parts)[:n])

    def setup(self, inp, tracer):
        seed, train_path, test_path = inp
        sets = []
        for path in (train_path, test_path):
            tracer.count("trace_io.parse.bytes", os.path.getsize(path))
            sets.append(tracer.call("trace_io.parse", parse_libsvm, path))
        train, test = sets
        if train.dim != self.DIM or test.dim != self.DIM:
            raise ValueError(f"parsed dims {train.dim}/{test.dim}, "
                             f"generated {self.DIM}")
        problem = tracer.call("problems.make_problem", make_svm_problem, train)
        return Instance(seed, problem, {"train": train, "test": test})

    def solve(self, inst, tracer):
        cfg = SascConfig(alpha0=0.5, omega=2.0, m0=4,
                         case=Case.RESTRICTED_STRONGLY_CONVEX,
                         sample_budget=self.BUDGET, seed=inst.seed,
                         checkpoint_every=CHECKPOINT_EVERY,
                         eval_samples=EVAL_SAMPLES)
        return run_sasc(tracer.problem(inst.problem, "core.eval"), cfg)

    def baseline(self, inst, tracer):
        train = inst.extra["train"]
        return run_pegasos(train, 1.0 / len(train), self.BUDGET, seed=inst.seed,
                           eval_dataset=tracer.holdout(inst.extra["test"]),
                           checkpoint_every=CHECKPOINT_EVERY)

    def check(self, inst, x, trace, x_base, trace_base):
        err = float(np.mean(inst.extra["test"].margins(x) <= 0.0))
        base_err = trace_base.records[-1].feasibility   # held-out 0/1 error
        errors = []
        if not err <= self.HOLDOUT_ERR_MAX:
            errors.append(f"sasc held-out error {err:.4g} > {self.HOLDOUT_ERR_MAX}")
        if not base_err <= self.HOLDOUT_ERR_MAX:
            errors.append(f"pegasos held-out error {base_err:.4g} > "
                          f"{self.HOLDOUT_ERR_MAX}")
        errors += _budget_errors("pegasos", trace_base, self.BUDGET)
        return errors, trace.records[-1].feasibility, err

    def cli_args(self, inp):
        seed, train_path, test_path = inp
        common = ["svm", "--data", train_path, "--test", test_path,
                  "--budget", str(self.BUDGET), "--seed", str(seed)]
        return {
            "sasc": common + ["--solver", "sasc", "--alpha0", "0.5",
                              "--omega", "2", "--m0", "4"],
            "pegasos": common + ["--solver", "pegasos"],
        }


def _budget_errors(solver, trace, budget):
    if not trace.records or trace.records[-1].samples != budget:
        return [f"{solver} trace does not end at sample {budget}"]
    return []


def _write_libsvm(path, idx, vals, labels):
    nnz = idx.shape[1]
    fmt = " ".join(["%d:%.4f"] * nnz) + "\n"
    cells = np.empty((len(labels), 2 * nnz), dtype=object)
    cells[:, 0::2] = idx + 1
    cells[:, 1::2] = vals
    with open(path, "w") as fh:
        fh.writelines(("+1 " if y > 0 else "-1 ") + fmt % tuple(row)
                      for y, row in zip(labels.tolist(), cells.tolist()))


WORKLOADS = {w.name: w for w in (BasisPursuit(), Portfolio(), Svm())}
