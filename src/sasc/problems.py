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

from .core import CompositeProblem
from .errors import DivergenceError, NoConvergenceError, UnsupportedProblemError
from .prox import (
    Array,
    hyperplane_indicator_prox,
    l1_prox,
    zero_prox,
)
from .smoothing import CertificateInputs, RowConstraintSet


@dataclass
class LabeledSparseDataset:
    """Sparse rows with +-1 labels; indices are 0-based and strictly ascending."""

    index_lists: list
    value_lists: list
    labels: Array
    dim: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)
        if not (len(self.index_lists) == len(self.value_lists) == len(self.labels)):
            raise ValueError("rows and labels must have equal length")
        for idx in self.index_lists:
            if len(idx) and (idx[-1] >= self.dim or idx[0] < 0):
                raise ValueError("sparse index out of range")
            if len(idx) > 1 and np.any(np.diff(idx) <= 0):
                raise ValueError("sparse indices must be strictly ascending")

    def __len__(self) -> int:
        return len(self.labels)

    def row_dot(self, i: int, x: Array) -> float:
        idx, vals = self.index_lists[i], self.value_lists[i]
        return float(vals @ x[idx]) if len(idx) else 0.0

    def margins(self, x: Array) -> Array:
        return np.array(
            [self.labels[i] * self.row_dot(i, x) for i in range(len(self))]
        )

    def to_dense(self) -> Array:
        dense = np.zeros((len(self), self.dim))
        for i, (idx, vals) in enumerate(zip(self.index_lists, self.value_lists)):
            dense[i, idx] = vals
        return dense

    @staticmethod
    def from_dense(rows: Array, labels: Array) -> "LabeledSparseDataset":
        rows = np.asarray(rows, dtype=float)
        idx = np.arange(rows.shape[1])
        return LabeledSparseDataset(
            index_lists=[idx.copy() for _ in range(rows.shape[0])],
            value_lists=[rows[i].copy() for i in range(rows.shape[0])],
            labels=np.asarray(labels, dtype=float),
            dim=rows.shape[1],
        )


@dataclass(frozen=True)
class BasisPursuitInstance:
    """Measurement rows (centered, unit norm), exact targets, planted signal."""

    rows: Array
    targets: Array
    x_star: Array
    rho: float
    sparsity: int


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
    planted vector solves the system exactly.
    """
    if not (0 < sparsity <= d):
        raise ValueError(f"sparsity must lie in 1..d, got {sparsity}")
    if not (0 <= rho < 1):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    try:
        chol = np.linalg.cholesky(ar1_covariance(d, rho))
    except np.linalg.LinAlgError as exc:  # unreachable for |rho| < 1
        raise ValueError(f"covariance factorization failed: {exc}") from exc
    raw = rng.standard_normal((n, d)) @ chol.T
    support = rng.choice(d, size=sparsity, replace=False)
    x_star = np.zeros(d)
    x_star[support] = rng.standard_normal(sparsity)

    centered = raw - raw.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate zero row after centering")
    rows = centered / norms[:, None]
    targets = rows @ x_star
    return BasisPursuitInstance(rows=rows, targets=targets, x_star=x_star,
                                rho=rho, sparsity=sparsity)


def auto_alpha0(instance: BasisPursuitInstance) -> float:
    """Data-driven initial step: 1e-2 * ||a_1 b_1||_inf (first measurement)."""
    return 1e-2 * float(np.max(np.abs(instance.rows[0] * instance.targets[0])))


def make_bp_problem(instance: BasisPursuitInstance) -> CompositeProblem:
    """min ||x||_1 subject to a^T x = b almost surely over the measurements."""
    h = l1_prox(1.0)
    return CompositeProblem(
        dim=instance.rows.shape[1],
        grad_f=lambda x, xi=None: 0.0,
        f_value=lambda x, xi=None: 0.0,
        prox_h=h,
        constraints=RowConstraintSet(instance.rows, instance.targets,
                                     instance.targets),
        norm_bound=1.0,
        lipschitz_grad=0.0,
        f_deterministic=True,
        prox_f=lambda x, xi, step: x,
    )


def make_bp_least_squares_problem(instance: BasisPursuitInstance
                                  ) -> CompositeProblem:
    """min (1/2) E (a^T x - b)^2, unconstrained.

    The plain-SGD comparator: a different problem from the l1 formulation,
    whose minimizers are generally non-sparse.
    """
    rows, b = instance.rows, instance.targets

    def grad(x, xi):
        r = xi.row
        return r * (float(r @ x) - b[xi.index])

    def value(x, xi):
        return 0.5 * (float(xi.row @ x) - b[xi.index]) ** 2

    return CompositeProblem(
        dim=rows.shape[1],
        grad_f=grad,
        f_value=value,
        prox_h=zero_prox(),
        constraints=RowConstraintSet(rows, b, b),
        norm_bound=1.0,
        lipschitz_grad=1.0,
    )


def make_portfolio_problem(returns: Array, epsilon: float) -> CompositeProblem:
    """Maximize mean return on the budget plane with per-day deviation slabs.

    f(x) = -<a_avg, x> with a_avg the column mean; h enforces sum(x) = 1
    (shorts allowed); each day i contributes |<a_i - a_avg, x>| <= epsilon,
    stored row-normalized.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2 or returns.shape[0] < 2:
        raise ValueError("returns must be an (n, d) matrix with n >= 2")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, d = returns.shape
    a_avg = returns.mean(axis=0)
    constraints = RowConstraintSet.normalized(
        returns - a_avg, -epsilon, epsilon, drop_zero_rows=True)
    return CompositeProblem(
        dim=d,
        grad_f=lambda x, xi=None: -a_avg,
        f_value=lambda x, xi=None: -float(a_avg @ x),
        prox_h=hyperplane_indicator_prox(np.ones(d), 1.0),
        constraints=constraints,
        norm_bound=1.0,
        lipschitz_grad=0.0,
        f_deterministic=True,
        prox_f=lambda x, xi, step: x + step * a_avg,
    )


def make_svm_problem(dataset: LabeledSparseDataset) -> CompositeProblem:
    """min (1/2)||x||^2 subject to b_i <a_i, x> >= 1 for every labeled row."""
    labels = np.asarray(dataset.labels, dtype=float)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must lie in {-1, +1}")
    if len(dataset) * dataset.dim > 50_000_000:
        raise UnsupportedProblemError(
            "dataset too large to densify; slice it to desk scale first")
    rows = labels[:, None] * dataset.to_dense()
    constraints = RowConstraintSet.normalized(rows, 1.0, np.inf)
    return CompositeProblem(
        dim=dataset.dim,
        grad_f=lambda x, xi=None: x,
        f_value=lambda x, xi=None: 0.5 * float(x @ x),
        prox_h=zero_prox(),
        constraints=constraints,
        norm_bound=1.0,
        mu=1.0,
        lipschitz_grad=1.0,
        f_deterministic=True,
        prox_f=lambda x, xi, step: x / (1.0 + step),
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
    problem = CompositeProblem(
        dim=dim,
        grad_f=lambda x, xi=None: x,
        f_value=lambda x, xi=None: 0.5 * float(x @ x),
        prox_h=zero_prox(),
        constraints=RowConstraintSet(row, np.array([1.0]), np.array([1.0])),
        norm_bound=1.0,
        mu=1.0,
        lipschitz_grad=1.0,
        f_deterministic=True,
        prox_f=lambda x, xi, step: x / (1.0 + step),
    )
    cert = CertificateInputs(x_star=x_star, p_star=0.5, y_star_norm=1.0,
                             sigma_f=0.0)
    return problem, cert


def gen_separable_svm(d: int, n: int, margin: float, seed: int
                      ) -> LabeledSparseDataset:
    """Linearly separable toy set: points shifted along a planted separator."""
    if margin <= 0:
        raise ValueError("margin must be positive")
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


def _full_objective(problem: CompositeProblem, support, x: Array) -> float:
    if problem.f_deterministic:
        f = float(problem.f_value(x, None))
    else:
        f = float(np.mean([problem.f_value(x, s) for s in support]))
    return f + float(problem.prox_h.objective_value(x))


def _full_grad_f(problem: CompositeProblem, support, x: Array):
    if problem.f_deterministic:
        return problem.grad_f(x, None)
    g = np.zeros_like(x)
    for s in support:
        g = g + problem.grad_f(x, s)
    return g / len(support)


def reference_solution(problem: CompositeProblem, tolerance: float,
                       max_iterations: int = 10_000_000):
    """Deterministic ground truth by full-batch smoothed-penalty descent.

    Runs exact proximal-gradient steps on the population smoothed objective,
    halving the smoothness parameter whenever the decrease stalls, until the
    population feasibility and the outer objective change both drop below
    ``tolerance``. Independent of the stochastic driver: separate loop, no
    shared schedule. Only small finite-support instances are accepted.
    A non-finite objective raises DivergenceError naming the iteration.
    """
    sup = problem.constraints.support()
    if sup is None:
        raise UnsupportedProblemError("reference needs a finite constraint support")
    n = len(sup)
    if n > 200 or problem.dim > 50:
        raise UnsupportedProblemError(
            f"reference oracle is capped at n <= 200, d <= 50 "
            f"(got n = {n}, d = {problem.dim})")
    sampler = problem.constraints
    max_norm_sq = max(s.norm() for s in sup) ** 2

    def msd_and_penalty_grad(x, beta):
        d = sampler.distances(x)
        if d is not None and isinstance(sampler, RowConstraintSet):
            z = sampler.rows @ x
            r = z - np.minimum(np.maximum(z, sampler.lo), sampler.hi)
            return float(np.mean(d ** 2)), sampler.rows.T @ r / (n * beta)
        g = np.zeros(problem.dim)
        sq = 0.0
        for s in sup:
            z = s.apply(x)
            r = z - s.set_proj.project(z)
            sq += float(np.sum(np.atleast_1d(r) ** 2))
            g = g + s.adjoint(r)
        return sq / n, g / (n * beta)

    x = np.zeros(problem.dim)
    beta = 1.0
    inner_tol = max(tolerance * 1e-2, 1e-15)
    iters = 0
    prev_outer = np.inf
    while True:
        alpha = 1.0 / (problem.lipschitz_grad + max_norm_sq / beta)
        prev_phi = np.inf
        while True:
            msd, pen_grad = msd_and_penalty_grad(x, beta)
            grad = _full_grad_f(problem, sup, x) + pen_grad
            x = problem.prox_h.evaluate(x - alpha * grad, alpha)
            iters += 1
            if iters >= max_iterations:
                raise NoConvergenceError(
                    f"reference solver hit the {max_iterations} iteration cap")
            msd, _ = msd_and_penalty_grad(x, beta)
            phi = _full_objective(problem, sup, x) + msd / (2.0 * beta)
            if not np.isfinite(phi):
                raise DivergenceError(epoch=0, step=iters)
            if prev_phi - phi <= inner_tol:
                break
            prev_phi = phi
        p_now = _full_objective(problem, sup, x)
        if np.sqrt(msd) <= tolerance and abs(prev_outer - p_now) <= tolerance:
            return x, p_now
        prev_outer = p_now
        beta *= 0.5
