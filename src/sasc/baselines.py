"""Comparator solvers: projected stochastic gradient, stochastic proximal
point with alternating projections, and the classic subgradient SVM solver.

All three share the trace/checkpoint machinery of the main driver
(``core._Recorder``) and are deterministic under a fixed seed. Projected SGD
and the proximal-point method also measure on the driver's kind of held-out
set (``smoothing._EvalSet``), split from the seed the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import CompositeProblem, _declared_f, _Recorder, _seeded_run
from .errors import ConfigurationError, DivergenceError, UnsupportedProblemError
from .prox import Array, _clip
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


def run_projected_sgd(problem: CompositeProblem, cfg: BaselineConfig):
    """x <- proj_K(x - eta_t grad f(x, xi)), eta_t = step / sqrt(t).

    The nonsmooth term must be an indicator of a projectable set (or zero);
    constraints are ignored beyond supplying the randomness stream. Returns
    the running average of the iterates and its trace; a non-finite iterate
    raises DivergenceError naming its step.
    """
    if not problem.prox_h.is_projection:
        raise UnsupportedProblemError(
            "projected SGD needs h to be zero or an indicator of a "
            "projectable set"
        )
    rng, rec = _seeded_run(problem, cfg)
    x = np.zeros(problem.dim)
    avg = np.zeros_like(x)
    draws = _batches(problem.constraints, rng, cfg.iterations, 1)
    for t, batch in enumerate(draws, start=1):
        eta = cfg.step / np.sqrt(t)
        x = problem.prox_h.evaluate(x - eta * problem.grad_f(x, batch), eta)
        if not np.isfinite(x).all():
            raise DivergenceError(epoch=0, step=t)
        avg += x
        if t >= rec.due:
            rec.record(avg / t, t, 0, float(eta))
    x_bar = avg / cfg.iterations
    return x_bar, rec.finish(x_bar, cfg.iterations, 0, float(eta))


def _project_onto_constraint(z: Array, sample) -> Array:
    """Exact projection of z onto {x : A(xi) x in b(xi)} for a scalar row."""
    if sample.row.ndim != 1:
        raise UnsupportedProblemError(
            "alternating projection needs scalar (single-row) constraints"
        )
    val = float(sample.row @ z)
    target = float(np.asarray(sample.set_proj.project(val)))
    return _move_along_row(z, sample.row, val, target)


def _move_along_row(z: Array, row: Array, val: float, target: float) -> Array:
    """z shifted along ``row`` so that row^T z moves from ``val`` to ``target``."""
    return z - ((val - target) / float(row @ row)) * row


def run_spp(problem: CompositeProblem, cfg: BaselineConfig):
    """Stochastic proximal point on the objective + one alternating projection.

    Each iteration draws one realization for the objective and one for the
    constraint: z = prox applied to the full objective at fixed step mu
    (the exact prox of f that the problem's structure record declares, or
    for a custom f a gradient step on the first draw as a batch of one,
    followed by prox of h), then
    x = projection of z onto the second draw's constraint set. The fixed
    step caps the attainable accuracy. Both indices come from the solvers'
    shared stream (``smoothing._batches``); for a row set the projection
    reads the drawn row in place, with no sample objects.
    """
    mu = cfg.step
    declared = _declared_f(problem.structure, problem.mu)
    prox = None if declared is None else declared.prox
    rng, rec = _seeded_run(problem, cfg)
    x = np.zeros(problem.dim)
    pairs = _batches(problem.constraints, rng, cfg.iterations, 2)
    for t, pair in enumerate(pairs, start=1):
        if prox is not None:
            z = prox(x, mu)
        else:
            z = x - mu * problem.grad_f(x, pair[:1])
        z = problem.prox_h.evaluate(z, mu)
        if isinstance(pair, RowBatch):
            row = pair.owner.rows[pair.idx[1]]
            val = float(row @ z)
            target = _clip(val, float(pair.lo[1]), float(pair.hi[1]))
            x = _move_along_row(z, row, val, target)
        else:
            x = _project_onto_constraint(z, pair[1])
        if not np.isfinite(x).all():
            raise DivergenceError(epoch=0, step=t)
        if t >= rec.due:
            rec.record(x, t, 0, mu)
    return x, rec.finish(x, cfg.iterations, 0, mu)


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
    columns count as zeros), never wider.
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
    for t, i in enumerate(draws, start=1):
        p, q = ptr[i], ptr[i + 1]
        idx, vals = indices[p:q], data[p:q]
        b = signs[i]
        margin = b * float(vals @ x[idx])
        eta = 1.0 / (lam * t)
        x *= 1.0 - eta * lam
        if margin < 1.0:
            x[idx] += (eta * b) * vals
        if t >= rec.due:
            rec.record(x, t, 0, eta)
    return x, rec.finish(x, iterations, 0, eta)
