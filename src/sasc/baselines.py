"""Comparator solvers: projected stochastic gradient, stochastic proximal
point with alternating projections, and the classic subgradient SVM solver.

All three are iterates of sasc's one step loop (``core._drive``), each run
as one epoch, so they share its checkpoint recorder (``core._Recorder``)
and divergence rule, and are deterministic under a fixed seed. Projected
SGD and the proximal-point method measure on sasc's kind of held-out set
(``smoothing._EvalSet``), split from the seed the same way; the SVM solver
measures on a labeled dataset. On a row set
the proximal-point method, and always the SVM solver, is a one-row iterate
on the base of sasc's own (``core._OneRow``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CompositeProblem, _check_counts, _declared_f, _drive,
                   _Iterate, _OneRow, _Recorder, _row_multiplier, _seeded_run)
from .errors import (ConfigurationError, DegenerateConstraintError,
                     UnsupportedProblemError)
from .problems import _half_sq_norm_problem, _labeled_rows
from .prox import Array, _shrink
from .smoothing import RowBatch, RowConstraintSet, _batches, _row_norms

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
        _check_counts(self, ("iterations", "checkpoint_every", "eval_samples"),
                      ("seed",))


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
        self.x = self.problem.prox_h.evaluate(
            self.x - eta * self.problem.grad_f(self.x, batch), eta)
        self.total += self.x
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
        return alpha

    def mean(self, k: int) -> Array:
        return self.x


class _SppRowIterate(_OneRow):
    """SPP on a row set: ``_OneRow``'s draws, two a step, and prox of h.

    The projection is x = z - g row, g the row's multiplier at
    beta = ||row||^2, which is read once per row per run. The l1 shrink
    keeps the sign of zero, as the point it returns is its last.
    """

    mean = _SppIterate.mean
    shrink = staticmethod(_shrink)

    def __init__(self, problem: CompositeProblem):
        super().__init__(problem, per_step=2)
        self.prox_f = _prox_f(problem)
        self.sq = [None] * self.rows.shape[0]

    def step(self, draw, alpha: float, beta: float) -> float:
        """One step on the drawn row."""
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
        self.x = z - _row_multiplier(row, z, lo, hi, sq) * row
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
    it = (_SppRowIterate(problem)
          if isinstance(problem.constraints.support(), RowBatch)
          else _SppIterate(problem))
    return _run_one_epoch(it, cfg, "spp")


class _PegasosIterate(_OneRow):
    """Pegasos on the labeled rows b_i a_i; its mean is its last point.

    Each draw comes with its 1-based step count t, and reads only the row
    index: the rows' lo and hi are never listed. A step of size
    eta = 1/(alpha t) scales x by 1 - eta alpha and adds eta times the row
    when its margin is below 1.
    """

    mean = _SppIterate.mean
    columns = ("idx",)

    def draws(self, rng: np.random.Generator, steps: int):
        return enumerate(super().draws(rng, steps), start=1)

    def step(self, draw, alpha: float, beta: float) -> float:
        """One step on the drawn row."""
        t, (_, i) = draw
        cols, vals = self.entries(i)
        x = self.x
        margin = float(vals @ x[cols])
        eta = 1.0 / (alpha * t)
        x *= 1.0 - eta * alpha
        if margin < 1.0:
            x[cols] += eta * vals
        return eta


def run_pegasos(dataset, lam: float, iterations: int, seed: int = 0,
                eval_dataset=None, checkpoint_every: int = 100):
    """Stochastic subgradient solver for the relaxed margin formulation.

    Update at step t with eta_t = 1/(lam t):
    x <- (1 - eta_t lam) x + eta_t 1[b <a, x> < 1] b a. The trace records the
    0/1 error on ``eval_dataset`` (the training set when omitted) in the
    feasibility column and the regularized hinge objective in the objective
    column. The settings are checked as a ``BaselineConfig``, whose ``step``
    is lam. A held-out set may be narrower than the training set (its
    missing columns count as zeros), never wider, and the training set needs
    a nonzero entry. The problem is min (lam/2)||x||^2 over the CSR rows
    b a with b <a, x> >= 1, and Pegasos a one-row iterate of it
    (``core._OneRow``), run as one epoch through ``core._drive`` on
    ``default_rng(seed)`` itself, so its row indices are one scalar draw per
    step, drawn in chunks. Returns the last iterate and its trace; a
    non-finite x raises DivergenceError naming its 1-based step.
    """
    BaselineConfig("pegasos", step=lam, iterations=iterations, seed=seed,
                   checkpoint_every=checkpoint_every)
    rows = _labeled_rows(dataset)
    holdout = dataset if eval_dataset is None else eval_dataset
    if holdout.dim > dataset.dim:
        raise ValueError(f"eval_dataset has dim {holdout.dim}, wider than "
                         f"the training set's dim {dataset.dim}")
    norm = float(_row_norms(rows).max(initial=0.0))
    if not 0 < norm < math.inf:
        raise ValueError("run_pegasos: the largest row norm of the training "
                         f"set must be positive and finite, got {norm}")
    problem = _half_sq_norm_problem(
        dataset.dim, RowConstraintSet(rows, 1.0, math.inf), lam, norm)

    def evaluate(x):
        margins = holdout.margins(x)
        hinge = float(np.mean(np.maximum(0.0, 1.0 - margins)))
        return 0.5 * lam * float(x @ x) + hinge, float(np.mean(margins <= 0.0))

    return _drive(_PegasosIterate(problem), np.random.default_rng(seed),
                  _Recorder(checkpoint_every, evaluate),
                  [(lam, 0.0, iterations)], np.zeros(dataset.dim))
