"""Builders for the three bundled problem families and desk-scale oracles.

Covers the synthetic sparse-recovery generator and its l1 problem, the
portfolio problem over a returns matrix, the hard-margin SVM problem over a
labeled dataset, a tiny analytic instance with a known saddle point, and a
deterministic full-batch reference solver used as ground truth on small
instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, ObjectiveStructure, _dim, _inner_step
from .errors import (
    ConfigurationError,
    DivergenceError,
    NoConvergenceError,
    UnsupportedProblemError,
)
from .prox import Array
from .smoothing import (
    CertificateInputs,
    RowConstraintSet,
    _CsrRows,
    _EvalSet,
    _row_norms,
)


@dataclass
class LabeledSparseDataset:
    """Sparse rows with +-1 labels, stored as CSR arrays.

    Row i holds the 0-based, strictly ascending column indices
    ``indices[indptr[i]:indptr[i + 1]]`` and the values at the same
    positions of ``data``. The arrays are checked once, here.
    """

    indptr: Array
    indices: Array
    data: Array
    labels: Array
    dim: int

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices)
        if self.indices.size and self.indices.dtype.kind not in "iu":
            raise ValueError("sparse indices must be integers")
        self.indices = self.indices.astype(np.int64, copy=False)
        self.data = np.asarray(self.data, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        self.dim = _dim(self.dim)
        n, nnz = len(self.labels), len(self.indices)
        if self.indptr.shape != (n + 1,):
            raise ValueError("rows and labels must have equal length")
        if (self.indptr[0] != 0 or self.indptr[-1] != nnz
                or len(self.data) != nnz or np.any(np.diff(self.indptr) < 0)):
            raise ValueError(
                "indptr must rise from 0 to the number of stored entries")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= self.dim):
            raise ValueError("sparse index out of range")
        if not (np.isfinite(self.data).all() and np.isfinite(self.labels).all()):
            raise ValueError("sparse values and labels must be finite")
        # a pair that does not ascend counts unless a row starts between
        # its entries; the mask is the only array the check builds
        bad = self.indices[1:] <= self.indices[:-1]
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts < nnz)] - 1] = False
        if bad.any():
            raise ValueError("sparse indices must be strictly ascending")

    def __len__(self) -> int:
        return len(self.labels)

    def row(self, i: int):
        """(indices, values) of row i, as views into the CSR arrays."""
        i = range(len(self))[i]
        p, q = self.indptr[i], self.indptr[i + 1]
        return self.indices[p:q], self.data[p:q]

    def margins(self, x: Array) -> Array:
        """labels[i] * <row i, x> for every row; an empty row gives 0."""
        rows = _CsrRows(self.indptr, self.indices, self.data, self.dim)
        return self.labels * (rows @ x)

    @staticmethod
    def from_rows(index_lists, value_lists, labels: Array,
                  dim: int) -> "LabeledSparseDataset":
        """Dataset from per-row index and value sequences."""
        if len(index_lists) != len(value_lists):
            raise ValueError(
                "index lists and value lists must have equal length")
        lengths = [len(idx) for idx in index_lists]
        if lengths != [len(vals) for vals in value_lists]:
            raise ValueError("every row needs as many values as indices")
        # empty rows add nothing, so an empty float list cannot turn the
        # concatenated indices into floats
        filled = [np.asarray(idx) for idx in index_lists if len(idx)]
        return LabeledSparseDataset(
            indptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            indices=np.concatenate(filled) if filled else np.empty(0, np.int64),
            data=np.concatenate([np.asarray(vals, dtype=float)
                                 for vals in value_lists] or [np.empty(0)]),
            labels=labels,
            dim=dim,
        )

    @staticmethod
    def from_dense(rows: Array, labels: Array) -> "LabeledSparseDataset":
        """Every entry stored, explicit zeros included."""
        rows = np.array(rows, dtype=float)
        n, d = rows.shape
        return LabeledSparseDataset(
            indptr=np.arange(n + 1) * d,
            indices=np.tile(np.arange(d), n),
            data=rows.ravel(),
            labels=np.asarray(labels, dtype=float),
            dim=d,
        )


@dataclass(frozen=True)
class BasisPursuitInstance:
    """Measurement rows (centered, unit norm), exact targets, planted signal.

    The rows are unit norm by the package's one row-norm rule, the one
    ``RowConstraintSet.normalized`` uses; ``targets`` are ``rows @ x_star``.
    """

    rows: Array
    targets: Array
    x_star: Array


def ar1_covariance(d: int, rho: float) -> Array:
    """Covariance with entries rho^|i-j|."""
    idx = np.arange(d)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def gen_basis_pursuit(d: int, n: int, sparsity: int, rho: float,
                      seed: int) -> BasisPursuitInstance:
    """Plant a sparse vector and draw correlated measurements hitting it exactly.

    Rows are i.i.d. Gaussian with AR(1) covariance rho^|i-j| (via the Cholesky
    factor), then each feature column is centered by its empirical mean and
    each row scaled to unit l2 norm; targets are computed afterwards so the
    planted vector solves the system exactly. Centering and scaling work in
    place, and the norms come from the rule of ``RowConstraintSet.normalized``,
    so the rows are bit for bit those that ``normalized`` makes of the
    centered block.
    """
    if not (0 < sparsity <= d):
        raise ConfigurationError(f"sparsity must lie in 1..d, got {sparsity}")
    if not (0 <= rho < 1):
        raise ConfigurationError(f"rho must lie in [0, 1), got {rho}")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    try:
        chol = np.linalg.cholesky(ar1_covariance(d, rho))
    except np.linalg.LinAlgError as exc:  # unreachable for |rho| < 1
        raise ValueError(f"covariance factorization failed: {exc}") from exc
    rows = rng.standard_normal((n, d)) @ chol.T
    support = rng.choice(d, size=sparsity, replace=False)
    x_star = np.zeros(d)
    x_star[support] = rng.standard_normal(sparsity)

    rows -= rows.mean(axis=0)
    norms = _row_norms(rows)
    if np.any(norms == 0.0):
        raise ValueError("degenerate zero row after centering")
    rows /= norms[:, None]
    return BasisPursuitInstance(rows=rows, targets=rows @ x_star, x_star=x_star)


def auto_alpha0(instance: BasisPursuitInstance) -> float:
    """Data-driven initial step: 1e-2 * ||a_1 b_1||_inf (first measurement)."""
    return 1e-2 * float(np.max(np.abs(instance.rows[0] * instance.targets[0])))


def make_bp_problem(instance: BasisPursuitInstance) -> CompositeProblem:
    """min ||x||_1 subject to a^T x = b almost surely over the measurements.

    Declared as f = 0 and h = ||x||_1, so ``run_sasc`` steps its single rows
    on Python scalars.
    """
    return CompositeProblem(
        dim=instance.rows.shape[1],
        constraints=RowConstraintSet(instance.rows, instance.targets,
                                     instance.targets),
        norm_bound=1.0,
        structure=ObjectiveStructure(f="zero", h="l1", l1_weight=1.0),
    )


def make_bp_least_squares_problem(instance: BasisPursuitInstance
                                  ) -> CompositeProblem:
    """min (1/2) E (a^T x - b)^2, unconstrained.

    The plain-SGD comparator: a different problem from the l1 formulation,
    whose minimizers are generally non-sparse. Gradient and value are means
    over the RowBatch drawn from its constraint set, whose ``lo`` holds the
    targets b of its rows.
    """
    def grad(x, batch):
        R = batch.rows
        return (R @ x - batch.lo) @ R / len(batch)

    def value(x, batch):
        r = batch.rows @ x - batch.lo
        return float(np.mean(0.5 * r ** 2))

    b = instance.targets
    return CompositeProblem(
        dim=instance.rows.shape[1],
        grad_f=grad,
        f_value=value,
        constraints=RowConstraintSet(instance.rows, b, b),
        norm_bound=1.0,
        lipschitz_grad=1.0,
        structure=ObjectiveStructure(h="zero"),
    )


def make_portfolio_problem(returns: Array, epsilon: float) -> CompositeProblem:
    """Maximize mean return on the budget plane with per-day deviation slabs.

    f(x) = -<a_avg, x> with a_avg the column mean, declared linear; h, the
    declared plane sum(x) = 1, is the budget (shorts allowed); each day i
    contributes |<a_i - a_avg, x>| <= epsilon, stored row-normalized.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[0] < 2:
        raise ValueError("returns must be an (n, d) matrix with n >= 2")
    if not np.isfinite(returns).all():
        raise ValueError("returns must be finite")
    if not 0 < epsilon < np.inf:
        raise ConfigurationError(
            f"epsilon must be positive and finite, got {epsilon}")
    n, d = returns.shape
    a_avg = returns.mean(axis=0)
    constraints = RowConstraintSet.normalized(returns - a_avg, -epsilon, epsilon)
    return CompositeProblem(
        dim=d,
        constraints=constraints,
        norm_bound=1.0,
        structure=ObjectiveStructure(f="linear", c=-a_avg, h="hyperplane",
                                     normal=np.ones(d), offset=1.0),
    )


def make_svm_problem(dataset: LabeledSparseDataset) -> CompositeProblem:
    """min (1/2)||x||^2 subject to b_i <a_i, x> >= 1 for every labeled row.

    The constraint rows b_i a_i / ||a_i|| are CSR rows that share the
    dataset's ``indptr`` and ``indices``; only the scaled values are new.
    """
    # a zero row cannot meet b_i <a_i, x> >= 1, so normalized refuses it
    return _half_sq_norm_problem(dataset.dim, RowConstraintSet.normalized(
        _labeled_rows(dataset), 1.0, np.inf))


def _labeled_rows(dataset: LabeledSparseDataset) -> _CsrRows:
    """The CSR rows b_i a_i of a dataset whose labels b_i lie in {-1, +1},
    sharing its ``indptr`` and ``indices``."""
    labels = np.asarray(dataset.labels, dtype=float)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must lie in {-1, +1}")
    labeled = dataset.data * np.repeat(labels, np.diff(dataset.indptr))
    return _CsrRows(dataset.indptr, dataset.indices, labeled, dataset.dim)


def _half_sq_norm_problem(dim: int, constraints: RowConstraintSet,
                          mu: float = 1.0, norm_bound: float = 1.0
                          ) -> CompositeProblem:
    """min (mu/2)||x||^2 over the constraint rows, h = 0; by default over
    unit-norm rows with mu = L = 1.

    Declared as such, so ``run_sasc`` steps its single rows in scaled form.
    """
    return CompositeProblem(
        dim=dim,
        constraints=constraints,
        norm_bound=norm_bound,
        mu=mu,
        structure=ObjectiveStructure(f="half_sq_norm", h="zero"),
    )


def make_min_norm_hyperplane_problem(dim: int = 2):
    """min (1/2)||x||^2 subject to x_1 = 1: the analytic saddle-point instance.

    Returns (problem, certificate) with x_star = e_1, P(x_star) = 1/2 and
    dual norm 1, all exact from the optimality system.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    row = np.zeros((1, dim))
    row[0, 0] = 1.0
    x_star = row[0].copy()
    problem = _half_sq_norm_problem(
        dim, RowConstraintSet(row, np.array([1.0]), np.array([1.0])))
    cert = CertificateInputs(x_star=x_star, p_star=0.5, y_star_norm=1.0,
                             sigma_f=0.0)
    return problem, cert


def gen_separable_svm(d: int, n: int, margin: float, seed: int
                      ) -> LabeledSparseDataset:
    """Linearly separable toy set: points shifted along a planted separator."""
    if not 0 < margin < np.inf:
        raise ConfigurationError(
            f"margin must be positive and finite, got {margin}")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    raw = rng.standard_normal((n, d))
    labels = np.where(raw @ w >= 0.0, 1.0, -1.0)
    rows = raw + (labels * margin)[:, None] * w
    return LabeledSparseDataset.from_dense(rows, labels)


def gen_synthetic_returns(n: int, d: int, seed: int) -> Array:
    """Daily price relatives with one clearly dominant asset."""
    rng = np.random.default_rng(seed)
    drift = np.full(d, 0.0002)
    drift[0] = 0.004
    return 1.0 + drift + 0.01 * rng.standard_normal((n, d))


_REFERENCE_MAX_ITERATIONS = 10_000_000


def reference_solution(problem: CompositeProblem, tolerance: float):
    """Deterministic ground truth by full-batch smoothed-penalty descent.

    Runs exact proximal-gradient steps on the population smoothed objective,
    halving the smoothness parameter whenever the decrease stalls, until the
    population feasibility and the outer objective change both drop below
    ``tolerance``. Each step is the plain step (``core._inner_step``) on the
    whole support taken as one batch, and the objective and feasibility come
    from one held-out set over the whole support; the loop and its
    smoothness schedule are separate from ``run_sasc``'s. Only small
    finite-support instances are accepted. ``tolerance`` must be positive
    and finite. A non-finite objective raises DivergenceError naming the
    iteration.
    """
    if not 0 < tolerance < np.inf:
        raise ConfigurationError("reference tolerance must be positive and "
                                 f"finite, got {tolerance}")
    sup = problem.constraints.support()
    if sup is None:
        raise UnsupportedProblemError("reference needs a finite constraint support")
    n = len(sup)
    if n > 200 or problem.dim > 50:
        raise UnsupportedProblemError(
            f"reference oracle is capped at n <= 200, d <= 50 "
            f"(got n = {n}, d = {problem.dim})")
    max_norm_sq = max(s.norm() for s in sup) ** 2
    population = _EvalSet(problem.constraints, n, None, problem)
    x = np.zeros(problem.dim)
    beta = 1.0
    inner_tol = max(tolerance * 1e-2, 1e-15)
    iters = 0
    prev_outer = np.inf
    while True:
        alpha = 1.0 / (problem.lipschitz_grad + max_norm_sq / beta)
        prev_phi = np.inf
        while True:
            x = _inner_step(x, sup, alpha, beta, problem)
            iters += 1
            if iters >= _REFERENCE_MAX_ITERATIONS:
                raise NoConvergenceError("reference solver hit the "
                                         f"{_REFERENCE_MAX_ITERATIONS} iteration cap")
            msd = population.mean_sq_distance(x)
            phi = population.objective(x) + msd / (2.0 * beta)
            if not np.isfinite(phi):
                raise DivergenceError(epoch=0, step=iters)
            if prev_phi - phi <= inner_tol:
                break
            prev_phi = phi
        p_now = population.objective(x)
        if np.sqrt(msd) <= tolerance and abs(prev_outer - p_now) <= tolerance:
            return x, p_now
        prev_outer = p_now
        beta *= 0.5
