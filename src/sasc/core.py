"""Double-loop stochastic proximal-gradient solver with smoothing homotopy.

One epoch runs a fixed number of stochastic proximal-gradient steps on the
smoothed problem at fixed (step size, smoothness) and then restarts; across
epochs the step size and smoothness parameter decay geometrically while the
epoch length grows, which drives the iterates to the original constrained
problem. Two parameter regimes are supported: the general convex schedule
(alpha_s ~ omega^{-s/2}) and the restricted-strongly-convex schedule
(alpha_s ~ omega^{-s}, restart from the epoch average).

Also houses the rate-certificate machinery: the closed-form constants of the
two convergence-rate guarantees, their right-hand-side bound curves, and
deterministic checks of every parameter inequality the schedules are proven to satisfy.
"""

from __future__ import annotations

import math
import operator
import time
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, wraps
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .prox import (Array, ProxHandle, _clip, _plane, _soft,
                   hyperplane_indicator_prox, l1_prox, zero_prox)
from .smoothing import (
    CertificateInputs,
    ConstraintSampler,
    RowBatch,
    _batches,
    _chunks,
    _CsrRows,
    _EvalSet,
)


class Case(Enum):
    """Objective regime selecting the epoch schedule."""

    GENERAL_CONVEX = "general_convex"
    RESTRICTED_STRONGLY_CONVEX = "restricted_strongly_convex"


_F_KINDS = ("zero", "linear", "half_sq_norm", "custom")
_H_KINDS = ("zero", "l1", "hyperplane", "custom")


@dataclass(frozen=True)
class ObjectiveStructure:
    """The declared kinds of f and h: the one statement of a declared objective.

    ``f`` is "zero", "linear" (f(x, xi) = <c, x> for every draw),
    "half_sq_norm" (f(x, xi) = (mu/2)||x||^2 for every draw, with the
    problem's ``mu``) or "custom"; ``h`` is "zero", "l1"
    (``l1_weight`` * ||x||_1), "hyperplane" (the indicator of the plane
    {x : <normal, x> = offset}) or "custom". ``CompositeProblem`` derives a
    declared kind's callables from the record, and ``run_sasc`` reads it to
    pick its step. "custom", the default, declares nothing: the problem
    hands in its own callables and every step calls them. ``c`` and
    ``normal`` are kept as tuples of floats, so the record compares and
    hashes as a value.
    """

    f: str = "custom"
    h: str = "custom"
    l1_weight: Optional[float] = None
    c: Optional[tuple] = None
    normal: Optional[tuple] = None
    offset: Optional[float] = None

    def __post_init__(self):
        if self.f not in _F_KINDS:
            raise ValueError("ObjectiveStructure: f must be one of "
                             f"{_F_KINDS}, got {self.f!r}")
        if self.h not in _H_KINDS:
            raise ValueError("ObjectiveStructure: h must be one of "
                             f"{_H_KINDS}, got {self.h!r}")
        if (self.h == "l1") != (self.l1_weight is not None):
            raise ValueError(
                "ObjectiveStructure: l1_weight is given exactly when h is l1")
        if self.h == "l1" and not 0 < self.l1_weight < math.inf:
            raise ValueError("ObjectiveStructure: l1_weight must be positive "
                             f"and finite, got {self.l1_weight}")
        if (self.f == "linear") != (self.c is not None):
            raise ValueError(
                "ObjectiveStructure: c is given exactly when f is linear")
        if self.c is not None:
            c = np.asarray(self.c, dtype=float)
            if c.ndim != 1 or not np.isfinite(c).all():
                raise ValueError("ObjectiveStructure: c must be a finite vector")
            object.__setattr__(self, "c", tuple(c.tolist()))
        plane = self.h == "hyperplane"
        if plane != (self.normal is not None) or plane != (self.offset is not None):
            raise ValueError("ObjectiveStructure: normal and offset are given "
                             "exactly when h is hyperplane")
        if plane:
            a, b, _ = _plane(self.normal, self.offset, "ObjectiveStructure")
            object.__setattr__(self, "normal", tuple(a.tolist()))
            object.__setattr__(self, "offset", b)


class _DeclaredF(NamedTuple):
    """A declared f: its two callables, the prox of step * f, and L."""

    grad_f: Callable
    f_value: Callable
    prox: Callable
    lipschitz_grad: float


def _declared_f(st: ObjectiveStructure,
                mu: Optional[float]) -> Optional[_DeclaredF]:
    """The f that ``st`` declares, with the problem's ``mu``; None if custom."""
    if st.f == "zero":
        return _DeclaredF(lambda x, batch: 0.0, lambda x, batch: 0.0,
                          lambda x, step: x, 0.0)
    if st.f == "linear":
        c = np.array(st.c)
        c.flags.writeable = False
        # a fixed step, as SPP's, forms step * c once
        step_c = lru_cache(maxsize=1)(c.__rmul__)
        return _DeclaredF(lambda x, batch: c, lambda x, batch: float(c @ x),
                          lambda x, step: x - step_c(step), 0.0)
    if st.f == "half_sq_norm":
        return _DeclaredF(lambda x, batch: mu * x,
                          lambda x, batch: 0.5 * mu * float(x @ x),
                          lambda x, step: x / (1.0 + step * mu), mu)
    return None


# What CompositeProblem derived, by id. A dataclasses.replace copy hands it
# back in and derives afresh from its own record; other callables are kept,
# each for the one declared kind it was first handed in for (_KEPT_FOR), so
# a copy that declares another kind must hand in callables of its own.
_DERIVED = weakref.WeakValueDictionary()
_KEPT_FOR = weakref.WeakKeyDictionary()


def _derived(handed, derived, name: str, kind: tuple):
    """``derived``, unless the caller handed in a callable of its own."""
    if handed is None or _DERIVED.get(id(handed)) is handed:
        _DERIVED[id(derived)] = derived
        return derived
    try:
        kept_for = _KEPT_FOR.setdefault(handed, kind)
    except TypeError:       # not hashable or not weakly referable: untracked
        return handed
    if kept_for != kind:
        raise ValueError(f"CompositeProblem: {name} was handed in for another "
                         "declared kind; a copy that changes the record must "
                         f"hand in its own {name}")
    return handed


@dataclass(kw_only=True)
class CompositeProblem:
    """A composite objective with almost-sure scalar/linear inclusion constraints.

    One draw xi drives both f and the constraint, so ``grad_f(x, batch)``
    and ``f_value(x, batch)`` receive the batch the solver drew and return
    the mean over it: a ``RowBatch`` for a row set (a sampler whose support
    is one), else the list of ``ConstraintSample`` from ``draw_batch``. A
    single draw is a batch of one, the held-out evaluation passes its whole
    set, and a deterministic f ignores the argument.
    ``norm_bound`` must dominate the operator norm of every constraint the
    sampler can produce; ``mu`` is the restricted strong-convexity modulus
    when available, ``lipschitz_grad`` the Lipschitz constant of the
    averaged gradient (0 when the smooth part is absent or linear).
    ``dim`` must be an integer >= 1, and the width of a row set's rows. A
    given ``mu`` must be positive and finite, and a custom f's
    ``lipschitz_grad`` nonnegative and finite.
    ``structure`` declares the kinds of f and h (``ObjectiveStructure``).
    A declared f gives ``grad_f``, ``f_value`` and ``lipschitz_grad`` (0 for
    a zero or linear f; ``mu``, which it needs, for a half-square one; a
    value handed in is not read), and a declared h gives ``prox_h``; only
    a custom kind needs them handed in. A callable handed
    in with a declared kind is kept and must compute it, as the wrappers of
    the benchmark's traced copy do; a ``dataclasses.replace`` copy derives
    the others afresh from its own record and ``mu``, and refuses with a
    ValueError to keep a handed-in callable for a declared kind other than
    the one it was handed in for.
    """

    dim: int
    grad_f: Optional[Callable] = None
    f_value: Optional[Callable] = None
    prox_h: Optional[ProxHandle] = None
    constraints: ConstraintSampler
    norm_bound: float
    mu: Optional[float] = None
    lipschitz_grad: float = 0.0
    structure: ObjectiveStructure = ObjectiveStructure()

    def __post_init__(self):
        self.dim = _dim(self.dim)
        if not 0 < self.norm_bound < math.inf:
            raise ValueError(
                "CompositeProblem: norm_bound must be positive and finite")
        st = self.structure
        if ((self.mu is None and st.f == "half_sq_norm")
                or (self.mu is not None and not 0 < self.mu < math.inf)):
            raise ValueError("CompositeProblem: mu must be positive and finite,"
                             f" and given for a half_sq_norm f; got {self.mu}")
        support = self.constraints.support()
        row = support.rows[0] if isinstance(support, RowBatch) else None
        for name, v in (("c", st.c), ("normal", st.normal), ("a row", row)):
            if v is not None and len(v) != self.dim:
                raise ValueError(f"CompositeProblem: {name} has {len(v)} "
                                 f"entries, dim is {self.dim}")
        f = _declared_f(st, self.mu)
        if f is not None:
            kind = (st.f, st.c, self.mu if st.f == "half_sq_norm" else None)
            self.grad_f = _derived(self.grad_f, f.grad_f, "grad_f", kind)
            self.f_value = _derived(self.f_value, f.f_value, "f_value", kind)
            self.lipschitz_grad = f.lipschitz_grad
        elif not 0 <= self.lipschitz_grad < math.inf:
            raise ValueError("CompositeProblem: lipschitz_grad must be >= 0 "
                             f"and finite, got {self.lipschitz_grad}")
        if st.h != "custom":
            h = (zero_prox() if st.h == "zero" else l1_prox(st.l1_weight)
                 if st.h == "l1" else hyperplane_indicator_prox(st.normal,
                                                                st.offset))
            self.prox_h = _derived(self.prox_h, h, "prox_h",
                                   (st.h, st.l1_weight, st.normal, st.offset))
        for name in ("grad_f", "f_value", "prox_h"):
            if getattr(self, name) is None:
                raise ValueError(f"CompositeProblem: a custom kind needs {name}")


def _dim(value) -> int:
    """``value`` as an int >= 1, the check of every ``dim``; numpy integers
    pass, as ``operator.index`` takes them."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"dim must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"dim must be >= 1, got {value}")
    return value


def _check_counts(cfg, positive: tuple, nonnegative: tuple) -> None:
    """Refuse a field of ``cfg`` that is set and is not an integer >= 1 if
    named in ``positive``, >= 0 if in ``nonnegative`` (a seed). Numpy
    integers pass, as ``operator.index`` takes them."""
    for name in positive + nonnegative:
        value = getattr(cfg, name)
        least = 1 if name in positive else 0
        try:
            below = value is not None and operator.index(value) < least
        except TypeError:
            raise ConfigurationError(
                f"{name} must be an integer, got {value!r}") from None
        if below:
            raise ConfigurationError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SascConfig:
    """Run parameters: initial step/smoothness scale, epoch growth, budget.

    Exactly one of ``epochs`` or ``sample_budget`` must be set; a budget B
    runs every epoch s with m_0 + ... + m_s <= B. Epoch lengths count inner
    steps, so with ``minibatch`` > 1 the trace's sample counter advances by
    the batch size per step. ``checkpoint_every`` and ``eval_samples``
    control how often and on how many held-out draws the trace is evaluated.
    The config is frozen and checked when built (a ``dataclasses.replace``
    copy too); ``run_sasc`` checks it again with ``validate(problem)``,
    which adds the conditions that need the problem. Either refuses a
    schedule that leaves the float range (``_check_range``).
    """

    alpha0: float
    omega: float
    m0: int
    case: Case = Case.GENERAL_CONVEX
    epochs: Optional[int] = None
    sample_budget: Optional[int] = None
    seed: int = 0
    minibatch: int = 1
    checkpoint_every: int = 100
    eval_samples: int = 1000

    def __post_init__(self):
        self.validate()

    def validate(self, problem: Optional[CompositeProblem] = None) -> None:
        if not 0 < self.alpha0 < math.inf:
            raise ConfigurationError(
                f"alpha0 must be positive and finite, got {self.alpha0}")
        if not 1 < self.omega < math.inf:
            raise ConfigurationError(
                f"omega must exceed 1 and be finite, got {self.omega}")
        _check_counts(self, ("m0", "minibatch", "checkpoint_every",
                             "eval_samples", "epochs"), ("sample_budget", "seed"))
        if (self.epochs is None) == (self.sample_budget is None):
            raise ConfigurationError(
                "exactly one of epochs or sample_budget must be set"
            )
        if self.sample_budget is not None and self.sample_budget < self.m0:
            raise ConfigurationError(
                f"sample_budget {self.sample_budget} cannot fit the first epoch "
                f"(m0 = {self.m0})"
            )
        _check_range(self, None if problem is None else problem.norm_bound)
        if problem is None:
            return
        L = problem.lipschitz_grad
        if L > 0 and self.alpha0 > 3.0 / (4.0 * L) * (1 + 1e-12):
            raise ConfigurationError(
                f"alpha0 = {self.alpha0} violates alpha0 <= 3/(4 L) = "
                f"{3.0 / (4.0 * L)}; L = {L} is the Lipschitz constant of the "
                "averaged gradient (the per-sample constant imposes the same "
                "bound whenever the two coincide, as in the bundled problems)"
            )
        if self.case is Case.RESTRICTED_STRONGLY_CONVEX:
            if problem.mu is None:
                raise ConfigurationError(
                    "restricted_strongly_convex schedule needs the problem's mu"
                )
            mu_alpha0 = problem.mu * self.alpha0   # 0 if it underflows
            needed = self.omega / mu_alpha0 if mu_alpha0 else math.inf
            if self.m0 < needed * (1 - 1e-12):
                raise ConfigurationError(
                    f"m0 = {self.m0} must be >= omega/(mu alpha0) = {needed}"
                )

    def planned_epochs(self) -> int:
        """Number of epochs: given directly, or the most the budget can fill."""
        if self.epochs is not None:
            return self.epochs
        total, s = 0, 0
        while True:
            m_s = int(math.floor(self.m0 * self.omega ** s))
            if total + m_s > self.sample_budget:
                break
            total += m_s
            s += 1
        return s


@dataclass
class ScheduleState:
    """Snapshot of the inner loop, handed to the optional step callback."""

    s: int
    k: int
    alpha_s: float
    beta_s: float
    m_s: int
    x: Array
    running_avg: Array
    samples_seen: int


@dataclass(frozen=True)
class TraceRecord:
    samples: int
    epoch: int
    objective: float
    feasibility: float
    beta: float
    alpha: float
    dist_to_ref: Optional[float]
    wall_time: float


@dataclass
class ConvergenceTrace:
    """Per-checkpoint records of a run, in sample order."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> Array:
        vals = [getattr(r, name) for r in self.records]
        return np.array([np.nan if v is None else v for v in vals], dtype=float)


def _check_range(cfg: SascConfig, norm_bound: Optional[float] = None,
                 last: Optional[int] = None) -> None:
    """Refuse a schedule that leaves the float range by epoch ``last``, the
    last planned one by default: m_last must be finite, beta_0 (with
    ``norm_bound``, else 1) finite and beta_last, so alpha_last too,
    nonzero. These are the extremes, as alpha and beta fall and m grows."""
    try:
        last = cfg.planned_epochs() - 1 if last is None else last
        (_, beta0, _), (_, beta, _) = (
            schedule_params(cfg, s, norm_bound or 1.0) for s in (0, last))
    except OverflowError:
        beta = 0.0
    if not 0.0 < beta <= beta0 < math.inf:
        raise ConfigurationError(
            f"alpha0 = {cfg.alpha0}, omega = {cfg.omega}, m0 = {cfg.m0}, "
            f"norm_bound = {norm_bound}, epochs = {cfg.epochs} and sample_budget"
            f" = {cfg.sample_budget} take the schedule past the floats by epoch "
            f"{last}")


def schedule_params(cfg: SascConfig, s: int, norm_bound: float):
    """Epoch-s parameters (alpha_s, beta_s, m_s) of the regime ``cfg.case``.

    General convex: alpha_s = alpha0 omega^{-s/2}; restricted strongly
    convex: alpha_s = alpha0 omega^{-s} (its precondition m0 >= omega/(mu
    alpha0) is checked by ``SascConfig.validate``). Both use
    beta_s = 4 alpha_s norm_bound^2 and m_s = floor(m0 omega^s).
    """
    if s < 0:
        raise ValueError(f"epoch index must be >= 0, got {s}")
    if cfg.case is Case.RESTRICTED_STRONGLY_CONVEX:
        alpha_s = cfg.alpha0 * cfg.omega ** (-float(s))
    else:
        alpha_s = cfg.alpha0 * cfg.omega ** (-0.5 * s)
    beta_s = 4.0 * alpha_s * norm_bound ** 2
    m_s = int(math.floor(cfg.m0 * cfg.omega ** s))
    return alpha_s, beta_s, m_s


def _row_multiplier(vals: Array, x: Array, lo: float, hi: float,
                    beta: float, scale: float = 1.0) -> float:
    """g = (z - clip(z, lo, hi)) / beta at z = scale (vals . x), on floats.

    One row's smoothed-penalty multiplier: every one-row step takes it from
    here. ``vals`` are the row's stored entries and ``x`` the matching
    entries of the iterate; ``scale`` is 1 except for the scaled iterate.
    """
    z = scale * float(vals.dot(x))
    return (z - _clip(z, lo, hi)) / beta


def _block_multiplier(batch: RowBatch, x: Array, beta: float) -> Array:
    """g = (z - clip(z, lo, hi)) / (B beta) at z = R x, R the batch's B rows.

    A row batch's smoothed-penalty multipliers, each divided by B so that
    g R is the batch's mean penalty gradient: the plain step
    (``_inner_step``) and the block steps of ``_RowIterate`` take them from
    here.
    """
    z = batch.rows @ x
    return (z - np.minimum(np.maximum(z, batch.lo), batch.hi)) / (beta * len(z))


def _inner_step(x: Array, batch, alpha: float, beta: float,
                problem: CompositeProblem) -> Array:
    """The plain step, prox_{alpha h}(x - alpha d) with d the mean direction.

    A RowBatch of B rows R = ``batch.rows`` gives d = grad_f(x, batch) + g R,
    g its ``_block_multiplier``; a list of samples adds the mean of their
    penalty gradients to grad_f. The callers check the new x.
    """
    if isinstance(batch, RowBatch):
        g = _block_multiplier(batch, x, beta)
        d = problem.grad_f(x, batch) + g @ batch.rows
    else:
        penalty = None
        for sample in batch:
            z = sample.apply(x)
            g = sample.adjoint((z - sample.set_proj.project(z)) / beta)
            penalty = g if penalty is None else penalty + g
        d = problem.grad_f(x, batch) + penalty / len(batch)
    return problem.prox_h.evaluate(x - alpha * d, alpha)


class _Recorder:
    """The trace of one run, shared by the solver and its baselines.

    A checkpoint is due once the sample count reaches or passes ``due``, the
    next multiple of ``every``, so the per-step test is one integer
    comparison. ``finish`` records the run's last sample once if it fell
    between checkpoints. ``evaluate(x)`` returns (objective, feasibility);
    the wall time is read after it, from the recorder's creation.
    """

    def __init__(self, every: int, evaluate: Callable[[Array], tuple],
                 x_ref: Optional[Array] = None):
        self.trace = ConvergenceTrace()
        self.every = every
        self.due = every
        self.evaluate = evaluate
        self.x_ref = x_ref
        self.t0 = time.perf_counter()

    def record(self, x: Array, samples: int, epoch: int, alpha: float,
               beta: float = 0.0) -> None:
        objective, feasibility = self.evaluate(x)
        dist = None if self.x_ref is None else float(np.linalg.norm(x - self.x_ref))
        self.trace.append(TraceRecord(
            samples=samples, epoch=epoch, objective=objective,
            feasibility=feasibility, beta=beta, alpha=alpha, dist_to_ref=dist,
            wall_time=time.perf_counter() - self.t0))
        self.due = (samples // self.every + 1) * self.every

    def finish(self, x: Array, samples: int, epoch: int, alpha: float,
               beta: float = 0.0) -> ConvergenceTrace:
        records = self.trace.records
        if not records or records[-1].samples < samples:
            self.record(x, samples, epoch, alpha, beta)
        return self.trace


def _seeded_run(problem: CompositeProblem, cfg, x_ref: Optional[Array] = None):
    """The training generator and the recorder of a seeded run.

    ``cfg`` is a SascConfig or a BaselineConfig; its ``seed``,
    ``eval_samples`` and ``checkpoint_every`` are read. The seed is split in
    two: one child drives training, the other picks the held-out set, so
    measurement never perturbs the training stream.
    """
    train_ss, val_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    held_out = _EvalSet(problem.constraints, cfg.eval_samples,
                        np.random.default_rng(val_ss), problem)
    return (np.random.default_rng(train_ss),
            _Recorder(cfg.checkpoint_every, held_out.evaluate, x_ref))


class _Iterate:
    """The iterate x of an epoch and the running sum of its values.

    The base of every iterate, and sasc's own step on a sampler that is not
    a row set: the plain step (``_inner_step``) on the step's listed
    samples. Each step counts ``samples`` samples, its batch size, and
    returns the step size it took; ``_drive`` checks finiteness.
    """

    def __init__(self, problem: CompositeProblem, samples: int):
        self.problem = problem
        self.samples = samples

    def start(self, x: Array) -> None:
        self.x = x
        self.total = np.zeros_like(x)

    def replay(self, x: Array) -> None:
        """Start from x again, to locate a divergence (``_finite``)."""
        self.start(x)

    def draws(self, rng: np.random.Generator, steps: int):
        return _batches(self.problem.constraints, rng, steps, self.samples)

    def step(self, batch, alpha: float, beta: float) -> float:
        """One step of size alpha."""
        self.x = _inner_step(self.x, batch, alpha, beta, self.problem)
        self.total += self.x
        return alpha

    def point(self) -> Array:
        return self.x.copy()

    def mean(self, k: int) -> Array:
        return self.total / k


# The scaled iterate folds its scale into v once the scale falls below this:
# well before it underflows, and while S v and c (both of order |x| S / s)
# stay within a few hundred ulps of the sum they stand for.
_FOLD_BELOW = 1e-3
# Most steps whose draws ``_OneRow.draws`` turns into Python scalars at
# once: a chunk's whole conversion would stall the step that starts it.
_SLICE = 256


class _OneRow(_Iterate):
    """The row-set iterates' base: scalar draws and h's prox.

    Every sasc, SPP and Pegasos run on a row set steps one of its
    subclasses: sasc's ``_RowIterate`` and ``_ScaledIterate``, SPP's and
    Pegasos's iterates.
    ``draws`` yields each step's objective and its ``columns`` of the
    chunk (row, lo, hi), read as Python scalars from the row set's chunks
    of ``per_step`` draws, ``_SLICE`` steps at a time: the row is the
    step's last draw, and ``objective`` its first as a batch of one for a
    custom f, else None. No step checks finiteness: a non-finite entry
    stays non-finite through every step and the running sum, so ``_drive``
    finds it at the next checkpoint or epoch end and replays the epoch to
    name its step. ``entries(i)`` reads one row's stored entries, dense or
    CSR. The rows are those of the problem's row set, read through its
    support.
    """

    columns = ("idx", "lo", "hi")
    # the l1 shrink; SPP returns its last point, so it keeps the sign of zero
    shrink = staticmethod(_soft)

    def __init__(self, problem: CompositeProblem, per_step: int = 1):
        super().__init__(problem, 1)
        rows = self.rows = problem.constraints.support().owner.rows
        self.ptr = rows.indptr.tolist() if isinstance(rows, _CsrRows) else None
        self.per_step = per_step
        st = problem.structure
        self.custom_f = st.f == "custom"
        self.h, self.weight = st.h, st.l1_weight
        if st.h == "hyperplane":
            a = self.normal = np.array(st.normal)
            self.offset, self.normal_sq = st.offset, float(a @ a)

    def draws(self, rng: np.random.Generator, steps: int):
        """Yield (objective, row, lo, hi) of ``steps`` steps, as scalars."""
        per = self.per_step
        for chunk in _chunks(self.problem.constraints, rng, steps, per):
            cols = [getattr(chunk, name)[per - 1::per] for name in self.columns]
            for j in range(0, len(cols[0]), _SLICE):
                objective = ((chunk[k:k + 1]
                              for k in range(j * per, len(chunk), per))
                             if self.custom_f else repeat(None))
                yield from zip(objective,
                               *(c[j:j + _SLICE].tolist() for c in cols))

    def entries(self, i: int):
        """(columns, values) of row i: a CSR row's stored entries as views,
        sliced at the Python ints of ``ptr``, or a dense row whole."""
        if self.ptr is None:
            return slice(None), self.rows[i]
        p, q = self.ptr[i], self.ptr[i + 1]
        return self.rows.indices[p:q], self.rows.data[p:q]

    def _prox_h(self, z: Array, alpha: float) -> Array:
        """The prox of alpha h at z, with no handle call for a declared h; the
        plane shifts z, the step's own buffer, in place."""
        if self.h == "l1":
            return self.shrink(z, alpha * self.weight)
        if self.h == "hyperplane":
            z -= ((float(self.normal.dot(z)) - self.offset) / self.normal_sq
                  * self.normal)
            return z
        if self.h == "custom":
            return self.problem.prox_h.evaluate(z, alpha)
        return z


class _RowIterate(_OneRow):
    """x itself on a row set, for any f and h and any minibatch.

    A step is d = g R + grad_f(x, batch), g the multipliers of the step's
    rows R and no gradient for a zero f, then x <- prox_h(x - alpha d) by
    ``_prox_h``: the plain step's arithmetic in its order, so x_bar keeps
    its bits. One dense row per step is read as Python scalars
    (``_OneRow.draws``, ``_row_multiplier``); for bp its step is the row
    dot, g row, *= alpha, x - d, the shrink's two ufuncs and the running
    sum. A block of ``samples`` rows, or a CSR row, is a RowBatch from
    ``smoothing._batches`` with ``_block_multiplier``'s g. The shrink's
    zero is +0.0 (``prox._soft``), and a zero f adds no 0.0, so a zero
    entry of x may lose its sign, never one of x_bar. Finiteness is found
    at checkpoints (``_OneRow``).
    """

    def __init__(self, problem: CompositeProblem, samples: int = 1):
        super().__init__(problem)
        self.samples = samples
        self.block = samples > 1 or self.ptr is not None
        self.grad_f = None if problem.structure.f == "zero" else problem.grad_f

    def draws(self, rng: np.random.Generator, steps: int):
        return (_Iterate if self.block else _OneRow).draws(self, rng, steps)

    def step(self, draw, alpha: float, beta: float) -> float:
        """One step on the drawn rows."""
        x, batch = self.x, draw
        if self.block:
            d = _block_multiplier(draw, x, beta) @ draw.rows
        else:
            batch, i, lo, hi = draw
            row = self.rows[i]
            d = _row_multiplier(row, x, lo, hi, beta) * row
        if self.grad_f is not None:
            d += self.grad_f(x, batch)
        d *= alpha
        x = self.x = self._prox_h(x - d, alpha)
        self.total += x
        return alpha


class _ScaledIterate(_OneRow):
    """x = s v and the epoch's running sum S v - c, in O(nnz) per step.

    For f = (mu/2)||x||^2, h = 0 and one row per step. A step computes
    z = s (vals . v[cols]) over the row's stored entries and
    g = (z - clip(z, lo, hi)) / beta, sets s <- s (1 - alpha mu) and, only
    when g != 0, v[cols] -= (alpha g / s) vals; c takes the same columns
    times the scale sum S before the step, and S then adds the new s. So x
    and the running sum are exact in real arithmetic, and a step touches
    only the row's entries. The scale is folded into v (and S v into c)
    once it falls below ``_FOLD_BELOW``. As SascConfig.validate holds
    alpha mu <= 3/4, s stays above _FOLD_BELOW / 4 and max |v| within
    4 / _FOLD_BELOW of max |x|: v leaves the floats before x only for an x
    within that factor of the largest float. ``_drive`` finds either at
    its checkpoints (``_OneRow``); its replay folds after every step, so
    that v is x and the step it names is the one where x itself leaves
    the floats, as for the plain step. Dense rows step the same way, with
    every column stored.
    """

    def __init__(self, problem: CompositeProblem):
        super().__init__(problem)
        self.mu = problem.mu

    def start(self, x: Array) -> None:
        self.v, self.c = x.copy(), np.zeros_like(x)
        self.scale, self.scale_sum, self.fold_below = 1.0, 0.0, _FOLD_BELOW

    def replay(self, x: Array) -> None:
        """Start from x again, folding after every step."""
        self.start(x)
        self.fold_below = math.inf

    def step(self, draw, alpha: float, beta: float) -> float:
        """One step on the drawn row."""
        _, i, lo, hi = draw
        cols, vals = self.entries(i)
        v = self.v
        v_cols = v[cols]
        g = _row_multiplier(vals, v_cols, lo, hi, beta, self.scale)
        scale = self.scale = self.scale * (1.0 - alpha * self.mu)
        if g != 0.0:
            delta = alpha * g / scale * vals
            v[cols] = v_cols - delta
            c = self.c
            c[cols] = c[cols] - self.scale_sum * delta
        self.scale_sum += scale
        if scale < self.fold_below:
            self.c -= self.scale_sum * self.v
            self.v *= scale
            self.scale, self.scale_sum = 1.0, 0.0
        return alpha

    def point(self) -> Array:
        return self.scale * self.v

    def mean(self, k: int) -> Array:
        return (self.scale_sum * self.v - self.c) / k


def _iterate(problem: CompositeProblem, cfg: SascConfig):
    """The iterate a run steps, chosen by the problem's declared structure.

    On a row set (recognised by its support, a RowBatch, so a sampler that
    forwards to one, as the benchmark's traced copy does, is too), a
    half_sq_norm f with h = 0 at one row per step steps in scaled form
    (``_ScaledIterate``), dense or CSR, and every other run steps x itself
    (``_RowIterate``), dense or CSR, at any minibatch. Only a sampler that
    is not a row set takes the plain step on its listed samples
    (``_Iterate``).
    """
    if not isinstance(problem.constraints.support(), RowBatch):
        return _Iterate(problem, cfg.minibatch)
    st = problem.structure
    if cfg.minibatch == 1 and st.f == "half_sq_norm" and st.h == "zero":
        return _ScaledIterate(problem)
    return _RowIterate(problem, cfg.minibatch)


def _drive(it, rng, rec, epochs, x, restart_from_mean=False, callback=None):
    """The one step loop of sasc and its three baselines: (last mean, trace).

    Each epoch (alpha, beta, m) starts ``it`` from x and takes m steps on
    ``it.draws(rng, m)``, each counting ``it.samples`` samples. A step
    returns the step size it took, which a due checkpoint records with beta
    on ``it.mean(k)``. The next epoch starts from the epoch's mean if
    ``restart_from_mean``, else from its last point.

    No step checks finiteness. No step turns a non-finite entry finite
    again, and the running sum keeps one too, so only the vectors formed
    anyway are checked (``_finite``): the mean before each record, and the
    epoch's mean and last point. When one is not finite, a replay of the
    epoch names the epoch and the first step k, the 1-based count of steps
    taken in the epoch, whose point or mean is not finite, in
    DivergenceError. With a callback each step is checked, the same way,
    before the callback sees it. The steps run with numpy's floating-point
    warnings off, so a run that leaves the floats raises the
    DivergenceError alone.
    """
    seen, samples = 0, it.samples
    with np.errstate(all="ignore"):
        for s, (alpha, beta, m) in enumerate(epochs):
            epoch = (it, rng, s, alpha, beta, m, x.copy(),
                     rng.bit_generator.state)
            it.start(x)
            for k, draw in enumerate(it.draws(rng, m), start=1):
                taken = it.step(draw, alpha, beta)
                seen += samples
                if callback is not None:
                    point, mean = _finite(epoch, k, it.point(), it.mean(k))
                    callback(ScheduleState(s, k, alpha, beta, m, point, mean,
                                           seen))
                if seen >= rec.due:
                    mean, = _finite(epoch, k, it.mean(k))
                    rec.record(mean, seen, s, taken, beta)
            x_bar, last = _finite(epoch, m, it.mean(m), it.point())
            x = x_bar if restart_from_mean else last
    # every epochs list holds one epoch at least, so its values exist
    return x_bar, rec.finish(x_bar, seen, s, taken, beta)


def _finite(epoch, k, *arrays):
    """``arrays``, seen at step k of ``epoch``, when each is finite.

    Else the epoch is stepped again (``it.replay``) from a copy of its start
    x and of the generator's state, each step's point and mean checked, and
    the DivergenceError raised names the first step whose point or mean is
    not finite, or k if the replay stays finite.
    """
    if all(np.isfinite(a).all() for a in arrays):
        return arrays
    it, rng, s, alpha, beta, m, x, state = epoch
    rng.bit_generator.state = state
    it.replay(x)
    for j, draw in enumerate(it.draws(rng, m), start=1):
        it.step(draw, alpha, beta)
        if not (np.isfinite(it.point()).all() and np.isfinite(it.mean(j)).all()):
            raise DivergenceError(epoch=s, step=j)
    raise DivergenceError(epoch=s, step=k)


def run_sasc(problem: CompositeProblem, cfg: SascConfig,
             cert: Optional[CertificateInputs] = None,
             x0: Optional[Array] = None,
             callback: Optional[Callable[[ScheduleState], None]] = None):
    """Run the double loop and return (final epoch average, trace).

    The restart rule is regime-dependent: the general convex schedule starts
    the next epoch from the last inner iterate, the restricted-strongly-convex
    schedule from the epoch average. Checkpoints are taken every
    ``cfg.checkpoint_every`` samples on the running epoch average, evaluated
    against a held-out validation sample set so that measurement never
    perturbs the training stream. The epochs run through ``_drive``, the
    baselines' step loop too. A row set takes a row-set iterate
    (``_iterate``): a min-norm problem at one row per step keeps x in
    scaled form (``_ScaledIterate``), whose arithmetic differs from the
    plain step in the last bits; every other run on a row set, any f, h
    and minibatch, dense or CSR rows, steps x itself (``_RowIterate``),
    with the plain step's bits and no call of a declared kind's handles.
    Any other sampler takes the plain step (``_Iterate``). Output is
    bit-identical for identical (problem data, cfg, seed).
    """
    cfg.validate(problem)
    x = np.zeros(problem.dim) if x0 is None else np.array(x0, dtype=float)
    x_star = None if cert is None else cert.x_star
    for name, v in (("x0", x), ("cert.x_star", x_star)):
        if v is not None and np.shape(v) != (problem.dim,):
            raise ValueError(f"{name} must have shape ({problem.dim},), "
                             f"got {np.shape(v)}")
    rng, rec = _seeded_run(problem, cfg, x_star)
    epochs = [schedule_params(cfg, s, problem.norm_bound)
              for s in range(cfg.planned_epochs())]
    # restricted strongly convex: restart from the epoch average;
    # general convex: continue from the last inner iterate
    return _drive(_iterate(problem, cfg), rng, rec, epochs, x,
                  cfg.case is Case.RESTRICTED_STRONGLY_CONVEX, callback)


def _within_floats(what: str, settings: Callable[..., dict]):
    """Refuse a call of the decorated function whose result holds a value
    that is not finite, or whose arithmetic overflows on the way, with a
    ConfigurationError naming the call's ``settings``: a dict of the call's
    arguments, by name, that leaves out those that are None."""
    def decorate(fn):
        @wraps(fn)
        def checked(*args, **kwargs):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    out = fn(*args, **kwargs)
                values = out.values() if isinstance(out, dict) else out
                if np.isfinite(np.array(list(values), dtype=float)).all():
                    return out
            except OverflowError:
                pass
            named = [f"{k} = {v}" for k, v in settings(*args, **kwargs).items()
                     if v is not None]
            raise ConfigurationError(f"{', '.join(named[:-1])} and {named[-1]} "
                                     f"take the {what} past the floats")
        return checked
    return decorate


def _bound_settings(cfg: SascConfig, norm_bound: float,
                    cert: CertificateInputs, x0: Array, M_values=(),
                    lipschitz_g: Optional[float] = None) -> dict:
    """The settings that ``rate_constants`` and ``bound_curves`` read."""
    return {"alpha0": cfg.alpha0, "omega": cfg.omega, "m0": cfg.m0,
            "norm_bound": norm_bound, "sigma_f": cert.sigma_f,
            "y_star_norm": cert.y_star_norm, "lipschitz_g": lipschitz_g,
            "||x_star - x0||": math.hypot(*np.ravel(
                np.subtract(cert.x_star, x0, dtype=float)))}


class Case1Constants(NamedTuple):
    c1: float
    c2: float
    c3: float
    c4: float


class Case2Constants(NamedTuple):
    d1: float
    d2: float
    d3: float


@_within_floats("rate constants", _bound_settings)
def rate_constants(cfg: SascConfig, norm_bound: float, cert: CertificateInputs,
                   x0: Array) -> Case1Constants | Case2Constants:
    """The closed-form constants of the rate bound of the regime ``cfg.case``.

    Case1Constants (C1..C4) for the general convex bound, Case2Constants
    (D1..D3) for the restricted strongly convex one. ``cert.x_star`` and
    ``x0`` give the squared start distance r0^2. A constant past the
    floats raises a ConfigurationError naming the settings.
    """
    if cfg.m0 < 2:
        raise ConfigurationError(
            "constants are undefined for m0 = 1 (division by m0 - 1)")
    _check_range(cfg, norm_bound, last=0)
    if cert.x_star is None or np.shape(cert.x_star) != np.shape(x0):
        raise ValueError("constants need cert.x_star, of x0's shape "
                         f"{np.shape(x0)}, to measure the start distance")
    diff = np.asarray(cert.x_star, dtype=float) - np.asarray(x0, dtype=float)
    r0_sq = float(diff @ diff)
    a0, w, m0 = cfg.alpha0, cfg.omega, cfg.m0
    a_sq = norm_bound ** 2
    sf2 = cert.sigma_f ** 2
    y2 = cert.y_star_norm ** 2
    if cfg.case is Case.GENERAL_CONVEX:
        c1 = math.sqrt(m0 * w) / (a0 * (m0 - 1) * math.sqrt(w - 1))
        c2 = 0.5 * r0_sq + 2.0 * a0 * m0 * sf2
        c3 = 2.0 * a0 ** 2 * a_sq * m0 * y2 + 2.0 * a0 * m0 * sf2
        c4 = 4.0 * a0 * math.sqrt(m0) * a_sq * math.sqrt(w) / math.sqrt(w - 1)
        return Case1Constants(c1, c2, c3, c4)
    wfac = w / (w - 1)
    d1 = wfac * (m0 / (a0 * (m0 - 1))) * 0.5 * r0_sq + 2.0 * a0 * m0 * wfac * sf2
    d2 = (2.0 * m0 ** 2 * a0 * w / ((m0 - 1) * (w - 1))) * (a_sq * y2 + sf2)
    d3 = 4.0 * a0 * m0 * a_sq * wfac
    return Case2Constants(d1, d2, d3)


@_within_floats("rate bounds", _bound_settings)
def bound_curves(cfg: SascConfig, norm_bound: float, cert: CertificateInputs,
                 x0: Array, M_values, lipschitz_g: Optional[float] = None):
    """Evaluate the rate-bound right-hand sides at each total sample count M.

    The constants are ``rate_constants(cfg, norm_bound, cert, x0)``, and the
    feasibility bound reads ||y*|| from the same ``cert``. Returns a list of
    (objective_bound, feasibility_bound). When ``lipschitz_g`` is given, the
    objective bound carries the smoothing surplus of the Lipschitz-term
    extension (C4 or D3 scaled by L_g^2). A bound past the floats raises a
    ConfigurationError naming the settings.
    """
    constants = rate_constants(cfg, norm_bound, cert, x0)
    m0, omega = cfg.m0, cfg.omega
    out = []
    for M in M_values:
        if M < m0:
            raise ValueError(f"M = {M} precedes the first completed epoch (m0 = {m0})")
        logfac = math.log(M / m0) / math.log(omega)
        if cfg.case is Case.GENERAL_CONVEX:
            c1, c2, c3, c4 = constants
            bracket = c2 + logfac * c3
            obj = c1 / math.sqrt(M) * bracket
            if lipschitz_g is not None:
                obj += c4 / math.sqrt(M) * lipschitz_g ** 2
            feas = (2.0 * c4 * cert.y_star_norm
                    + 2.0 * math.sqrt(c1 * c4) * math.sqrt(bracket)) / math.sqrt(M)
        else:
            d1, d2, d3 = constants
            bracket = d1 + logfac * d2
            obj = bracket / M
            if lipschitz_g is not None:
                obj += d3 / M * lipschitz_g ** 2
            feas = (2.0 * d3 * cert.y_star_norm
                    + 2.0 * math.sqrt(d3) * math.sqrt(bracket)) / M
        out.append((obj, feas))
    return out


@_within_floats("schedule inequalities",
                lambda cfg, norm_bound, s_max, lipschitz_grad=None: {
                    "alpha0": cfg.alpha0, "omega": cfg.omega, "m0": cfg.m0,
                    "norm_bound": norm_bound, "s_max": s_max,
                    "lipschitz_grad": lipschitz_grad})
def schedule_inequalities_check(cfg: SascConfig, norm_bound: float,
                                s_max: int,
                                lipschitz_grad: Optional[float] = None
                                ) -> dict[str, float]:
    """Verify every printed schedule inequality of ``cfg.case`` for s = 0..s_max.

    Covers the per-epoch smoothness bound, the step-mass lower bound, the two
    partial-sum bounds, the geometric-decay bound (restricted strongly convex
    regime only), and the two step-size conditions of the inner-loop descent
    argument. ``lipschitz_grad`` defaults to 3/(4 alpha0), the largest value
    admitted by the step-size rule. Returns the worst slack of each
    inequality by name (nonnegative means it holds). Report-only: negative
    slacks are returned, not raised; a slack past the floats raises a
    ConfigurationError naming the settings.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    _check_range(cfg, norm_bound, last=s_max)
    a0, w, m0 = cfg.alpha0, cfg.omega, cfg.m0
    a_sq = norm_bound ** 2
    L = 3.0 / (4.0 * a0) if lipschitz_grad is None else lipschitz_grad
    c = 1.0 / w

    worst = {}
    cum_M = 0.0
    sum_bam = 0.0      # sum_{l<s} beta_l alpha_l m_l
    sum_a2m = 0.0      # sum_{l<s} alpha_l^2 m_l
    t_bam = 0.0        # sum_{l<s} c^{s-l} beta_l alpha_l m_l
    t_a2m = 0.0        # sum_{l<s} c^{s-l} alpha_l^2 m_l
    for s in range(s_max + 1):
        alpha, beta, m = schedule_params(cfg, s, norm_bound)
        M = cum_M + m
        logfac = math.log(M / m0) / math.log(w)
        if cfg.case is Case.GENERAL_CONVEX:
            slacks = {
                "beta_upper": 4.0 * a0 * math.sqrt(m0) * a_sq
                * math.sqrt(w / (w - 1.0)) / math.sqrt(M) - beta,
                "alpha_m_lower": alpha * m - a0 * (m0 - 1) / math.sqrt(m0)
                * math.sqrt((w - 1.0) / w) * math.sqrt(M),
                "sum_beta_alpha_m_upper":
                    4.0 * a0 ** 2 * a_sq * m0 * logfac - sum_bam,
                "sum_alpha_sq_m_upper":
                    a0 * m0 * (logfac + 1.0) - (sum_a2m + alpha ** 2 * m),
            }
        else:
            cpow = c ** s
            slacks = {
                "beta_upper": 4.0 * a0 * m0 * a_sq * (w / (w - 1.0)) / M - beta,
                "alpha_m_lower": alpha * m - a0 * (m0 - 1),
                "sum_beta_alpha_m_upper":
                    4.0 * cpow * a0 ** 2 * a_sq * m0 * logfac - t_bam,
                "sum_alpha_sq_m_upper": cpow * a0 ** 2 * m0 * logfac - t_a2m,
                "geometric_decay_upper": (w / (w - 1.0)) * m0 / M - cpow,
            }
        slacks["step_size_rule"] = beta / 2.0 - 2.0 * alpha * a_sq
        slacks["smoothness_rule"] = 1.0 / (2.0 * alpha) - (L + a_sq / beta) / 2.0
        for name, slack in slacks.items():
            worst[name] = min(worst.get(name, math.inf), slack)

        cum_M = M
        sum_bam += beta * alpha * m
        sum_a2m += alpha ** 2 * m
        t_bam = c * (t_bam + beta * alpha * m)
        t_a2m = c * (t_a2m + alpha ** 2 * m)
    return worst
