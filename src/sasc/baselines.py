"""Comparator solvers: projected stochastic gradient, stochastic proximal
point with alternating projections, and the classic subgradient SVM solver.

All three are iterates of sasc's one step loop (``core._drive``), each run
as one epoch, so they share its checkpoint recorder (``core._Recorder``)
and divergence rule, and are deterministic under a fixed seed. Projected
SGD and the proximal-point method measure on sasc's kind of held-out set
(``smoothing._EvalSet``), split from the seed the same way; the SVM solver
measures on a labeled dataset. The proximal-point method steps row sets
only; it and the SVM solver are one-row iterates on the base of sasc's own
(``core._OneRow``).
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
from .smoothing import RowBatch, RowConstraintSet, _row_norms

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


class _SppIterate(_OneRow):
    """SPP on a row set: ``_OneRow``'s draws, two a step, and prox of h; its
    mean is its last point.

    The prox of alpha f is a declared f's own, or for a custom f a gradient
    step on the step's first draw. The projection is x = z - g row, g the
    row's multiplier at beta = ||row||^2, which is read once per row per
    run; a row that z satisfies (g = 0) projects z to itself, with no
    vector work, where z - 0 row would turn a -0.0 entry facing a negative
    row entry into +0.0. The l1 shrink keeps the sign of zero, as the
    point it returns is its last.
    """

    shrink = staticmethod(_shrink)

    def __init__(self, problem: CompositeProblem):
        super().__init__(problem, per_step=2)
        if not self.custom_f:
            self.prox_f = _declared_f(problem.structure, problem.mu).prox
        self.sq = [None] * self.rows.shape[0]

    def step(self, draw, alpha: float, beta: float) -> float:
        """One step on the drawn row."""
        objective, i, lo, hi = draw
        x = self.x
        z = self._prox_h(x - alpha * self.problem.grad_f(x, objective)
                         if self.custom_f else self.prox_f(x, alpha), alpha)
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
        self.x = z - g * row if g else z    # a satisfied row keeps z
        return alpha

    def mean(self, k: int) -> Array:
        return self.x


def run_spp(problem: CompositeProblem, cfg: BaselineConfig):
    """Stochastic proximal point on the objective + one alternating projection.

    The constraints must be a row set: a sampler whose ``support()`` is a
    ``RowBatch``; any other sampler raises UnsupportedProblemError before a
    draw. Each iteration draws two rows from the solvers' shared stream
    (``smoothing._chunks``): z = prox applied to the full objective at fixed
    step mu (the exact prox of f that the problem's structure record
    declares, or for a custom f a gradient step on the first row as a batch
    of one, followed by prox of h), then x = projection of z onto the second
    row's constraint set. The fixed step caps the attainable accuracy. A
    zero row constrains nothing when its target holds 0 and raises
    DegenerateConstraintError otherwise. Runs as one epoch of
    ``cfg.iterations`` steps of the one-row iterate ``_SppIterate`` through
    ``core._drive``, counting one sample per step, and returns the last
    iterate and its trace; a non-finite iterate raises DivergenceError
    naming its 1-based step. ``cfg`` must be an "spp" config.
    """
    if not isinstance(problem.constraints.support(), RowBatch):
        raise UnsupportedProblemError(
            "spp needs a row set: constraints whose support() is a RowBatch")
    return _run_one_epoch(_SppIterate(problem), cfg, "spp")


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
