"""Comparator solvers: projected stochastic gradient, stochastic proximal
point with alternating projections, and the classic subgradient SVM solver.

All three share the trace/checkpoint machinery of the main driver
(``core._Recorder``) and are deterministic under a fixed seed. Projected SGD
and the proximal-point method are iterates of the driver's one step loop
(``core._drive``), each run as one epoch, so they share its checkpoint and
divergence rules, and measure on its kind of held-out set
(``smoothing._EvalSet``), split from the seed the same way. On a row set
the proximal-point method is a one-row iterate, on the base of sasc's own
(``core._OneRow``). The SVM solver keeps its own loop on the CSR rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .core import (_V_BOUND, CompositeProblem, _declared_f, _drive, _Iterate,
                   _OneRow, _Recorder, _row_multiplier, _seeded_run)
from .errors import (ConfigurationError, DegenerateConstraintError,
                     DivergenceError, UnsupportedProblemError)
from .prox import Array
from .smoothing import _CHUNK, RowBatch, _batches

_BASELINE_METHODS = ("sgd", "spp", "pegasos")


@dataclass(frozen=True)
class BaselineConfig:
    """Fixed-step baseline parameters.

    ``step`` is the base step of the 1/sqrt(t) SGD schedule, the fixed
    proximal step of the alternating-projection method, or the regularization
    weight of the subgradient SVM solver.
    """

    method: str
    step: float
    iterations: int
    seed: int = 0
    checkpoint_every: int = 100
    eval_samples: int = 1000

    def __post_init__(self):
        if self.method not in _BASELINE_METHODS:
            raise ConfigurationError(f"unknown baseline method {self.method!r}")
        if not 0 < self.step < np.inf:
            raise ConfigurationError(
                f"{self.method} step must be positive and finite, "
                f"got {self.step}")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if self.eval_samples < 1:
            raise ConfigurationError("eval_samples must be >= 1")


def _run_one_epoch(it: _Iterate, cfg: BaselineConfig, method: str):
    """(x, trace) of ``cfg.iterations`` steps of ``it`` at step ``cfg.step``."""
    if cfg.method != method:
        raise ConfigurationError(f"{method!r} solver got a {cfg.method!r} config")
    rng, rec = _seeded_run(it.problem, cfg)
    return _drive(it, rng, rec, [(cfg.step, 0.0, cfg.iterations)],
                  np.zeros(it.problem.dim))


class _SgdIterate(_Iterate):
    """Projected SGD's iterate and running sum: f's gradient, step alpha/sqrt(t).

    Each draw comes with its 1-based step count t.
    """

    def draws(self, rng: np.random.Generator, steps: int):
        return enumerate(super().draws(rng, steps), start=1)

    def step(self, draw, alpha: float, beta: float):
        t, batch = draw
        eta = alpha / np.sqrt(t)
        x = self.x = self.problem.prox_h.evaluate(
            self.x - eta * self.problem.grad_f(self.x, batch), eta)
        if not np.isfinite(x).all():
            return None
        self.total += x
        return float(eta)


def run_projected_sgd(problem: CompositeProblem, cfg: BaselineConfig):
    """x <- proj_K(x - eta_t grad f(x, xi)), eta_t = step / sqrt(t).

    The nonsmooth term must be an indicator of a projectable set (or zero);
    constraints are ignored beyond supplying the randomness stream. Runs as
    one epoch of ``cfg.iterations`` steps through ``core._drive`` and
    returns the running average of the iterates and its trace; a non-finite
    iterate raises DivergenceError naming its 1-based step. ``cfg`` must be
    an "sgd" config.
    """
    if not problem.prox_h.is_projection:
        raise UnsupportedProblemError(
            "projected SGD needs h to be zero or an indicator of a "
            "projectable set"
        )
    return _run_one_epoch(_SgdIterate(problem, 1), cfg, "sgd")


def _project_onto_constraint(z: Array, sample) -> Array:
    """Exact projection of z onto {x : A(xi) x in b(xi)} for a scalar row.

    A zero row constrains nothing when its target holds 0, and raises
    DegenerateConstraintError naming the sample's index otherwise.
    """
    row = sample.row
    if row.ndim != 1:
        raise UnsupportedProblemError(
            "alternating projection needs scalar (single-row) constraints"
        )
    sq = float(row @ row)
    if sq == 0.0:
        if float(np.asarray(sample.set_proj.project(0.0))) == 0.0:
            return z
        raise DegenerateConstraintError(
            f"spp: constraint sample {sample.index} has zero norm and 0 lies "
            "outside its target set")
    val = float(row @ z)
    target = float(np.asarray(sample.set_proj.project(val)))
    return z - ((val - target) / sq) * row


def _prox_f(problem: CompositeProblem):
    """(x, batch, alpha) -> the prox of alpha f at x: a declared f's own, or
    for a custom f a gradient step on ``batch``."""
    declared = _declared_f(problem.structure, problem.mu)
    if declared is None:
        return lambda x, batch, alpha: x - alpha * problem.grad_f(x, batch)
    return lambda x, batch, alpha: declared.prox(x, alpha)


class _SppIterate(_Iterate):
    """The proximal point and projection of SPP; its mean is its last point.

    Each step draws two samples and counts one; a row set steps as
    ``_SppRowIterate``.
    """

    def __init__(self, problem: CompositeProblem):
        super().__init__(problem, 1)
        self.prox_f = _prox_f(problem)

    def draws(self, rng: np.random.Generator, steps: int):
        return _batches(self.problem.constraints, rng, steps, 2)

    def step(self, pair, alpha: float, beta: float):
        z = self.problem.prox_h.evaluate(self.prox_f(self.x, pair[:1], alpha),
                                         alpha)
        self.x = _project_onto_constraint(z, pair[1])
        return alpha if np.isfinite(self.x).all() else None

    def mean(self, k: int) -> Array:
        return self.x


class _SppRowIterate(_OneRow):
    """SPP on a row set: ``_OneRow``'s draws, two a step, prox of h and bound.

    The projection is x = z - g row, g the row's multiplier at
    beta = ||row||^2, which is read once per row per run.
    """

    mean = _SppIterate.mean

    def __init__(self, problem: CompositeProblem, rows):
        super().__init__(problem, rows, per_step=2)
        self.prox_f = _prox_f(problem)
        self.sq = [None] * rows.shape[0]

    def step(self, draw, alpha: float, beta: float) -> Optional[float]:
        """One step on the drawn row; None when x is not finite."""
        objective, i, lo, hi = draw
        z = self._prox_h(self.prox_f(self.x, objective, alpha), alpha)
        row = self.rows[i]
        sq = self.sq[i]
        if sq is None:
            sq = float(row @ row)
            if sq == 0.0:   # inf makes the multiplier of a zero row 0
                if not lo <= 0.0 <= hi:
                    raise DegenerateConstraintError(
                        f"spp: constraint row {i} has zero norm and 0 lies "
                        "outside its target set")
                sq = math.inf
            self.sq[i] = sq
        g = _row_multiplier(row, z, lo, hi, sq)
        x = self.x = z - g * row
        if self._past_bound(g, alpha) and not self._rebound(x):
            return None
        return alpha


def run_spp(problem: CompositeProblem, cfg: BaselineConfig):
    """Stochastic proximal point on the objective + one alternating projection.

    Each iteration draws one realization for the objective and one for the
    constraint: z = prox applied to the full objective at fixed step mu
    (the exact prox of f that the problem's structure record declares, or
    for a custom f a gradient step on the first draw as a batch of one,
    followed by prox of h), then
    x = projection of z onto the second draw's constraint set. The fixed
    step caps the attainable accuracy. Both indices come from the solvers'
    shared stream (``smoothing._chunks``). On a row set SPP is a one-row
    iterate (``core._OneRow``), with the per-sample step's bits. A zero row
    constrains nothing when its target holds 0 and raises
    DegenerateConstraintError otherwise. Runs as one epoch
    of ``cfg.iterations`` steps through ``core._drive``, counting one sample
    per step, and returns the last iterate and its trace; a non-finite
    iterate raises DivergenceError naming its 1-based step. ``cfg`` must be
    an "spp" config.
    """
    support = problem.constraints.support()
    it = (_SppRowIterate(problem, support.rows) if isinstance(support, RowBatch)
          else _SppIterate(problem))
    return _run_one_epoch(it, cfg, "spp")


def run_pegasos(dataset, lam: float, iterations: int, seed: int = 0,
                eval_dataset=None, checkpoint_every: int = 100):
    """Stochastic subgradient solver for the relaxed margin formulation.

    Update at step t with eta_t = 1/(lam t):
    x <- (1 - eta_t lam) x + eta_t 1[b <a, x> < 1] b a. The trace records the
    0/1 error on ``eval_dataset`` (the training set when omitted) in the
    feasibility column and the regularized hinge objective in the objective
    column. Row indices are drawn in chunks of at most ``smoothing._CHUNK``,
    one generator call each, which consumes ``rng`` exactly as one scalar
    draw per step; each step reads its row as a slice of the CSR arrays.
    The settings are checked as a ``BaselineConfig``, whose ``step`` is lam.
    A held-out set may be narrower than the training set (its missing
    columns count as zeros), never wider. Since |1 - eta_t lam| <= 1, max |x|
    stays within (1 + ln T) max |entry| / lam; only when that bound (or
    1/lam) is not below ``core._V_BOUND`` is x checked in full each step, and
    a non-finite x raises DivergenceError naming its 1-based step.
    """
    BaselineConfig("pegasos", step=lam, iterations=iterations, seed=seed,
                   checkpoint_every=checkpoint_every)
    labels = np.asarray(dataset.labels, dtype=float)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must lie in {-1, +1}")
    holdout = dataset if eval_dataset is None else eval_dataset
    if holdout.dim > dataset.dim:
        raise ValueError(f"eval_dataset has dim {holdout.dim}, wider than "
                         f"the training set's dim {dataset.dim}")

    def evaluate(x):
        margins = holdout.margins(x)
        hinge = float(np.mean(np.maximum(0.0, 1.0 - margins)))
        return 0.5 * lam * float(x @ x) + hinge, float(np.mean(margins <= 0.0))

    rng = np.random.default_rng(seed)
    x = np.zeros(dataset.dim)
    rec = _Recorder(checkpoint_every, evaluate)
    n = len(dataset)
    ptr, indices, data = dataset.indptr.tolist(), dataset.indices, dataset.data
    signs = labels.tolist()
    draws = chain.from_iterable(
        rng.integers(0, n, size=min(_CHUNK, iterations - start)).tolist()
        for start in range(0, iterations, _CHUNK))
    eta = 1.0 / lam
    top = float(np.abs(data).max(initial=0.0))
    scan = not (1.0 + math.log(iterations)) * top * eta < _V_BOUND
    for t, i in enumerate(draws, start=1):
        p, q = ptr[i], ptr[i + 1]
        idx, vals = indices[p:q], data[p:q]
        b = signs[i]
        margin = b * float(vals @ x[idx])
        eta = 1.0 / (lam * t)
        x *= 1.0 - eta * lam
        if margin < 1.0:
            x[idx] += (eta * b) * vals
        if scan and not np.isfinite(x).all():
            raise DivergenceError(epoch=0, step=t)
        if t >= rec.due:
            rec.record(x, t, 0, eta)
    return x, rec.finish(x, iterations, 0, eta)
