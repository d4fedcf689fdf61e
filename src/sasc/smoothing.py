"""Smoothing of nonsmooth terms and the diagnostics built on it.

Contains the constraint-sample abstraction (a random linear map together
with the convex set its image must land in), Moreau-envelope smoothing for
indicator and Lipschitz terms, constraint normalization, the root-mean-square
feasibility metric, the smoothed gap function, and the four saddle-point
residual checks that certify the gap/feasibility translation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DegenerateConstraintError
from .prox import Array, BoxSet, ProxHandle, SetProjector


@dataclass(frozen=True)
class ConstraintSample:
    """One constraint realization: a linear map, its adjoint, a target set.

    ``row`` is either a vector (scalar-valued constraint a^T x in B) or an
    (m, d) matrix. ``index`` identifies the draw for finite-support samplers.
    """

    row: Array
    set_proj: SetProjector
    index: Optional[int] = None

    def apply(self, x: Array):
        return self.row @ x

    def adjoint(self, v):
        if self.row.ndim == 1:
            return self.row * v
        return self.row.T @ v

    def norm(self) -> float:
        """l2 norm of a vector row (by ``_row_norms``), spectral of a matrix."""
        if self.row.ndim == 1:
            return float(_row_norms(self.row[None, :])[0])
        return float(np.linalg.norm(self.row, 2))


class ConstraintSampler:
    """Source of constraint realizations; may expose a finite support."""

    def draw(self, rng: np.random.Generator) -> ConstraintSample:
        raise NotImplementedError

    def draw_batch(self, rng: np.random.Generator, k: int) -> Sequence[ConstraintSample]:
        """k draws in stream order; consumes ``rng`` exactly as k ``draw`` calls."""
        return [self.draw(rng) for _ in range(k)]

    def support(self) -> Optional[Sequence[ConstraintSample]]:
        """All samples of a finite-support distribution (uniform), else None."""
        return None

    def distances(self, x: Array, batch=None) -> Optional[Array]:
        """Vectorized dist(A(xi_i) x, b(xi_i)) over ``batch`` (hook).

        ``batch`` is a batch of this sampler's draws; None means the whole
        support. Returning None makes the caller measure sample by sample.
        """
        return None


class _CsrRows:
    """An (n, d) row block stored as CSR arrays.

    Row i holds the values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[...]`` of the same positions. It supports exactly what the
    solvers apply to ``RowConstraintSet.rows``: ``shape``, ``ndim``,
    ``take(idx)`` (another block), ``rows[i]`` (one dense row), ``R @ x``
    (the row products) and ``g @ R`` (a dense d-vector). The one-row steps
    read a row's stored entries by slicing ``indices`` and ``data``
    (``core._OneRow.entries``).
    """

    __slots__ = ("indptr", "indices", "data", "shape")
    __array_ufunc__ = None      # so that ndarray @ block calls __rmatmul__
    ndim = 2

    def __init__(self, indptr: Array, indices: Array, data: Array, dim: int):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (len(indptr) - 1, dim)

    def take(self, idx, axis: int = 0) -> "_CsrRows":
        starts = self.indptr[idx]
        counts = self.indptr[np.asarray(idx) + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(counts)))
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
        return _CsrRows(indptr, self.indices[pos], self.data[pos],
                        self.shape[1])

    def __getitem__(self, i):
        i = range(self.shape[0])[i]
        p, q = self.indptr[i], self.indptr[i + 1]
        row = np.zeros(self.shape[1])
        row[self.indices[p:q]] = self.data[p:q]
        return row

    def __matmul__(self, x: Array) -> Array:
        # np.add.reduceat would give an empty row the entry at its start
        # instead of 0, so only the rows that hold entries are summed
        starts = self.indptr[:-1]
        filled = starts < self.indptr[1:]
        z = np.zeros(self.shape[0])
        z[filled] = np.add.reduceat(self.data * x[self.indices], starts[filled])
        return z

    def __rmatmul__(self, g: Array) -> Array:
        weights = np.repeat(g, np.diff(self.indptr)) * self.data
        return np.bincount(self.indices, weights, minlength=self.shape[1])


# Most entries squared at once when a wide dense block is summed row-wise
_NORM_BLOCK = 1 << 16


def _row_norms(rows) -> Array:
    """The l2 norm of every row of a dense (n, d) array or of ``_CsrRows``.

    A row's norm is the square root of the left-to-right sum of the squares
    of its stored entries. A stored zero adds exactly 0, so dense and CSR
    storage give the same bits. Dense rows are summed column by column into
    one n-vector, so no (n, d) scratch is built; rows wider than they are
    many are summed row-wise instead (``cumsum``, an add.accumulate, so
    left to right as well), over blocks of about ``_NORM_BLOCK`` entries,
    so that a few wide rows cost a few numpy calls, not one per column.
    """
    if isinstance(rows, _CsrRows):
        # bincount adds each row's squares in storage order
        n = rows.shape[0]
        sq = np.bincount(np.repeat(np.arange(n), np.diff(rows.indptr)),
                         rows.data * rows.data, minlength=n)
    elif rows.shape[1] > rows.shape[0]:
        n = rows.shape[0]
        step = max(1, _NORM_BLOCK // rows.shape[1])
        sq = np.empty(n)
        for k in range(0, n, step):
            block = rows[k:k + step]
            sq[k:k + step] = np.cumsum(block * block, axis=1)[:, -1]
    else:
        sq = np.zeros(rows.shape[0])
        for col in rows.T:
            sq += col * col
    return np.sqrt(sq)


class RowBatch(Sequence):
    """Rows ``idx`` of a RowConstraintSet, as a lazy sequence of samples.

    ``lo`` and ``hi`` hold the endpoints of the selected rows, and ``rows``
    the rows themselves as one block. Indexing with an int builds that one
    ConstraintSample on demand; a slice or an index array gives another
    RowBatch over the same set. The solvers read ``rows``, ``lo`` and ``hi``
    directly and never build samples.
    """

    __slots__ = ("owner", "idx", "lo", "hi", "_rows")

    def __init__(self, owner: "RowConstraintSet", idx: Array,
                 lo: Optional[Array] = None, hi: Optional[Array] = None,
                 rows=None):
        self.owner = owner
        self.idx = idx
        self.lo = owner.lo[idx] if lo is None else lo
        self.hi = owner.hi[idx] if hi is None else hi
        self._rows = rows

    @property
    def rows(self):
        """The selected rows as one block: a dense (k, d) array or _CsrRows.

        Gathered from ``owner.rows`` on first use and then kept, so every
        reader of the batch shares one copy; the support is built with the
        owner's own block and copies nothing.
        """
        if self._rows is None:
            self._rows = self.owner.rows.take(self.idx, axis=0)
        return self._rows

    def __len__(self) -> int:
        return len(self.idx)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return self.owner.sample(int(self.idx[i]))
        if isinstance(i, slice):
            return RowBatch(self.owner, self.idx[i], self.lo[i], self.hi[i])
        return RowBatch(self.owner, self.idx[i])


class RowConstraintSet(ConstraintSampler):
    """Finite uniform family of scalar constraints rows[i]^T x in [lo_i, hi_i].

    Points are boxes with lo = hi and half-lines have hi = +inf, so one pair
    of endpoint arrays covers every set shape used by the bundled problems.
    Only the ``rows``, ``lo`` and ``hi`` arrays are stored: ``sample``,
    ``draw`` and the batches build ConstraintSample objects on demand.
    ``rows`` is a dense (n, d) array, or CSR rows (``_CsrRows``) for sparse
    data such as the SVM problem's; ``sample`` then builds one dense row.
    """

    def __init__(self, rows: Array, lo: Array, hi: Array):
        if not isinstance(rows, _CsrRows):
            rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("RowConstraintSet: rows must be a nonempty (n, d) array")
        values = rows.data if isinstance(rows, _CsrRows) else rows
        # a NaN or an infinity reaches the min or the max; no n x d scratch
        if not np.isfinite([values.min(initial=0.0),
                            values.max(initial=0.0)]).all():
            raise ValueError("RowConstraintSet: rows must be finite")
        n = rows.shape[0]
        self.rows = rows
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("RowConstraintSet: lo and hi must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("RowConstraintSet: lo exceeds hi for some row")

    def __len__(self) -> int:
        return self.rows.shape[0]

    def sample(self, i: int) -> ConstraintSample:
        i = range(len(self))[i]
        return ConstraintSample(self.rows[i], BoxSet(self.lo[i], self.hi[i]), i)

    def draw(self, rng: np.random.Generator) -> ConstraintSample:
        return self.sample(int(rng.integers(len(self))))

    def draw_batch(self, rng: np.random.Generator, k: int) -> RowBatch:
        """k uniform row indices as a lazy RowBatch.

        One ``rng.integers(0, n, size=k)`` call consumes the generator
        exactly as k ``draw`` calls do, state afterwards included.
        """
        return RowBatch(self, rng.integers(0, len(self), size=k))

    def support(self) -> RowBatch:
        """Every row once, in order: a RowBatch over the set's own arrays."""
        return RowBatch(self, np.arange(len(self)), self.lo, self.hi, self.rows)

    def distances(self, x: Array, batch: Optional[RowBatch] = None) -> Array:
        """dist(rows[i] x, [lo_i, hi_i]) over every row, or over ``batch``.

        ``batch`` is a RowBatch of this set, whose rows a caller measuring
        them again keeps gathered; None means the support.
        """
        if batch is None:
            batch = self.support()
        z = batch.rows @ x
        return np.maximum(np.maximum(batch.lo - z, z - batch.hi), 0.0)

    @staticmethod
    def normalized(rows, lo, hi) -> "RowConstraintSet":
        """Build the set with every row, dense or ``_CsrRows``, at unit norm.

        The norms come from ``_row_norms``, so dense and CSR storage give
        the same bits. Zero rows are dropped when 0 lies in their target set
        (they constrain nothing); otherwise they raise.
        """
        csr = isinstance(rows, _CsrRows)
        rows = rows if csr else np.asarray(rows, dtype=float)
        n = rows.shape[0]
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
        nrm = _row_norms(rows)
        zero = nrm == 0.0
        if not np.all((lo[zero] <= 0.0) & (hi[zero] >= 0.0)):
            raise DegenerateConstraintError(
                "normalized: zero row with 0 outside its target set")
        if np.any(zero):    # a set left without rows is refused below
            keep = np.flatnonzero(~zero)
            rows, lo, hi, nrm = rows.take(keep, axis=0), lo[keep], hi[keep], nrm[keep]
        if csr:     # the rows keep sharing indptr and indices unless one was dropped
            rows = _CsrRows(rows.indptr, rows.indices,
                            rows.data / np.repeat(nrm, np.diff(rows.indptr)),
                            rows.shape[1])
        else:
            rows = rows / nrm[:, None]
        return RowConstraintSet(rows, lo / nrm, hi / nrm)


# Most constraint indices drawn from a row set's stream at once: one
# generator call per chunk, and memory that does not grow with the run.
_CHUNK = 4096


def _chunks(sampler: ConstraintSampler, rng: np.random.Generator,
            steps: int, per_step: int):
    """Yield the draws of ``steps`` steps of ``per_step`` samples, in chunks.

    A row set, recognised by its support (a RowBatch), is drawn in chunks
    of at most ``_CHUNK`` indices from its first step on, each a RowBatch
    (listed samples are read by their ``index``) that consumes ``rng``
    exactly as its per-step draws would. Any other sampler is drawn one
    step at a time, so nothing is drawn ahead of the step that uses it.
    """
    support = sampler.support()
    row_set = isinstance(support, RowBatch)
    steps_per_draw = max(1, _CHUNK // per_step) if row_set else 1
    for k in range(0, steps, steps_per_draw):
        chunk = sampler.draw_batch(rng, min(steps_per_draw, steps - k) * per_step)
        if row_set and not isinstance(chunk, RowBatch):
            idx = [sample.index for sample in chunk]
            if None in idx:
                raise ValueError("a row set's draw_batch must return a "
                                 "RowBatch or samples that carry their index")
            chunk = RowBatch(support.owner, np.array(idx, dtype=np.int64))
        yield chunk


def _batches(sampler: ConstraintSampler, rng: np.random.Generator,
             steps: int, per_step: int):
    """Yield ``steps`` batches of ``per_step`` draws each, in stream order.

    Each step's RowBatch is built straight from views of its chunk's
    ``idx``, ``lo`` and ``hi``, with no ``RowBatch.__getitem__`` dispatch;
    any other chunk is one step's batch already.
    """
    for chunk in _chunks(sampler, rng, steps, per_step):
        if isinstance(chunk, RowBatch):
            owner, idx, lo, hi = chunk.owner, chunk.idx, chunk.lo, chunk.hi
            for j in range(0, len(idx), per_step):
                e = j + per_step
                yield RowBatch(owner, idx[j:e], lo[j:e], hi[j:e])
        else:
            yield chunk


def moreau_grad(z, inner, beta: float):
    """Value and gradient of the Moreau/Nesterov smoothing of a set or function.

    For a set B (indicator term): value = dist(z, B)^2 / (2 beta) and
    grad = (z - proj_B(z)) / beta. For a proximable g: the prox point
    p = prox_{beta g}(z) gives grad = (z - p) / beta and the envelope value
    g(p) + ||z - p||^2 / (2 beta). The gradient is (1/beta)-Lipschitz.
    """
    if not 0 < beta < math.inf:
        raise ValueError(
            f"moreau_grad: beta must be positive and finite, got {beta}")
    z = np.asarray(z, dtype=float)
    if isinstance(inner, ProxHandle):
        p = inner.evaluate(z, beta)
        diff = z - p
        value = float(inner.objective_value(p)) + float(
            np.sum(np.atleast_1d(diff) ** 2)
        ) / (2.0 * beta)
    elif isinstance(inner, SetProjector):
        p = inner.project(z)
        diff = z - p
        value = float(np.sum(np.atleast_1d(diff) ** 2)) / (2.0 * beta)
    else:
        raise TypeError(f"moreau_grad: unsupported inner term {type(inner).__name__}")
    return value, diff / beta


@dataclass(frozen=True)
class CertificateInputs:
    """Reference quantities supplied by the user or a test oracle.

    The solver never estimates these; they only enter diagnostics (residual
    checks, constants, bound curves) and the distance-to-reference trace.
    A given ``x_star`` must be a finite 1-D vector, and ``p_star`` finite.
    """

    x_star: Optional[Array] = None
    p_star: float = 0.0
    y_star_norm: float = 0.0
    sigma_f: float = 0.0

    def __post_init__(self):
        if self.x_star is not None:
            x_star = np.asarray(self.x_star, dtype=float)
            if x_star.ndim != 1 or not np.isfinite(x_star).all():
                raise ConfigurationError("CertificateInputs: x_star must be a "
                                         "finite 1-D vector")
        if not -math.inf < self.p_star < math.inf:
            raise ConfigurationError(
                f"CertificateInputs: p_star must be finite, got {self.p_star}")
        for name in ("y_star_norm", "sigma_f"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(
                    f"CertificateInputs: {name} must be >= 0 and finite, "
                    f"got {value}")


class _EvalSet:
    """Held-out seeded sample set: every checkpoint of a run is measured on it.

    It is the whole support when ``n_samples`` covers it, else ``n_samples``
    draws from ``rng`` (which is read only then). ``problem`` supplies
    ``f_value``, called once on the whole set, and ``prox_h`` for the
    objective; the feasibility metric needs only the sampler.
    Distances go through the sampler's vectorized ``distances`` hook, which
    is handed the held-out batch itself, with a per-sample fallback when it
    returns None. A row set's held-out set is one RowBatch, handed to both
    ``f_value`` and the hook, so its rows are gathered once per run.
    """

    def __init__(self, sampler: ConstraintSampler, n_samples: int,
                 rng: np.random.Generator, problem=None):
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        self.sampler = sampler
        self.problem = problem
        sup = sampler.support()
        if sup is not None and len(sup) == 0:
            raise ValueError("sampler has empty support")
        if sup is None:
            self.samples = sampler.draw_batch(rng, n_samples)
        elif n_samples >= len(sup):
            self.samples = sup
        else:
            pick = rng.integers(0, len(sup), size=n_samples)
            self.samples = (sup[pick] if isinstance(sup, RowBatch)
                            else [sup[int(i)] for i in pick])

    def mean_sq_distance(self, x: Array) -> float:
        vectorized = getattr(self.sampler, "distances", None)
        d = vectorized(x, self.samples) if vectorized is not None else None
        if d is None:
            d = np.array([s.set_proj.distance(s.apply(x)) for s in self.samples])
        return float(np.mean(d ** 2))

    def feasibility(self, x: Array) -> float:
        """Root-mean-square constraint distance over the set."""
        return float(np.sqrt(self.mean_sq_distance(x)))

    def objective(self, x: Array) -> float:
        """P(x) = E[f(x, xi)] + h(x) estimated over the set."""
        p = self.problem
        return (float(p.f_value(x, self.samples))
                + float(p.prox_h.objective_value(x)))

    def evaluate(self, x: Array) -> tuple[float, float]:
        """(objective, feasibility): one checkpoint's measurement."""
        return self.objective(x), self.feasibility(x)


def feasibility_metric(x: Array, sampler: ConstraintSampler,
                       n_samples: int, seed: int) -> float:
    """Root-mean-square constraint distance sqrt(E[dist(A(xi) x, b(xi))^2]).

    Exact over the population when the sampler has finite support and
    n_samples covers it; otherwise a seeded Monte-Carlo estimate.
    """
    return _EvalSet(sampler, n_samples, np.random.default_rng(seed)).feasibility(x)


def _gap_and_msd(x: Array, beta: float, problem, cert: CertificateInputs,
                 n_samples: int, seed: int, caller: str):
    """(P(x) - P(x_star), E[dist^2]) on one seeded held-out set."""
    if not 0 < beta < math.inf:
        raise ValueError(
            f"{caller}: beta must be positive and finite, got {beta}")
    held_out = _EvalSet(problem.constraints, n_samples,
                        np.random.default_rng(seed), problem)
    return held_out.objective(x) - cert.p_star, held_out.mean_sq_distance(x)


def smoothed_gap(x: Array, beta: float, problem, cert: CertificateInputs,
                 n_samples: int, seed: int) -> float:
    """P(x) - P(x_star) + E[dist(A(xi) x, b(xi))^2] / (2 beta).

    Both expectations are estimated on the same sample set, so the value is
    exact for finite-support samplers that the set covers.
    """
    gap, msd = _gap_and_msd(x, beta, problem, cert, n_samples, seed,
                            "smoothed_gap")
    return gap + msd / (2.0 * beta)


def saddle_point_residuals(x: Array, beta: float, problem, cert: CertificateInputs,
                     n_samples: int, seed: int):
    """Slacks of the four saddle-point inequalities linking gap and feasibility.

    Each slack is oriented LHS - RHS so that a nonnegative value means the
    inequality holds; requires an exact certificate (p_star and y_star_norm)
    for the instance. Returns (r1, r2, r3, r4) for:
      r1: S_beta(x) + (beta/2) ||y*||^2
      r2: P(x) - P* + E[dist^2]/(4 beta) + beta ||y*||^2
      r3: S_beta(x) - (P(x) - P*)
      r4: 4 beta^2 ||y*||^2 + 4 beta S_beta(x) - E[dist^2]
    """
    gap, msd = _gap_and_msd(x, beta, problem, cert, n_samples, seed,
                            "saddle_point_residuals")
    s_beta = gap + msd / (2.0 * beta)
    y2 = cert.y_star_norm ** 2
    r1 = s_beta + 0.5 * beta * y2
    r2 = gap + msd / (4.0 * beta) + beta * y2
    r3 = s_beta - gap
    r4 = 4.0 * beta ** 2 * y2 + 4.0 * beta * s_beta - msd
    return r1, r2, r3, r4
