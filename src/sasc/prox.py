"""Closed-form proximal operators and Euclidean projections.

These are the building blocks every problem instance is assembled from:
projections onto the simple sets that appear as constraint right-hand sides
(points, intervals, half-lines) and prox handles for the nonsmooth
objective terms (l1 norm, hyperplane indicator, zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateConstraintError

Array = np.ndarray


# the clip ufunc itself, which np.clip wraps in a Python layer; numpy 1.x
# keeps it in numpy.core
_clip_array = (np._core if hasattr(np, "_core") else np.core).umath.clip


def _soft(z: Array, tau: float) -> Array:
    """Soft thresholding as z - clip(z, -tau, tau), two ufuncs: the row-set
    steps' shrink of an iterate whose sign of zero nothing reads.

    Equals ``_shrink`` except that a zero result is +0.0. A non-finite
    component of z stays non-finite.
    """
    return z - _clip_array(z, -tau, tau)


def _shrink(z: Array, tau: float) -> Array:
    """Soft thresholding, the prox of tau ||.||_1, with no checks: the l1
    prox handle's and SPP's own.

    Computes ``_soft`` with the sign of z, three ufuncs and no keywords,
    byte for byte equal to copysign(max(|z| - tau, 0), z): a zero result
    takes the sign of its input, so a -0.0 component gives -0.0
    (sign(z) * ... would give +0.0 there and agrees everywhere else).
    """
    return np.copysign(_soft(z, tau), z)


def _clip(v: float, lo: float, hi: float) -> float:
    """np.minimum(np.maximum(v, lo), hi) on Python floats, bit for bit.

    Like numpy, each comparison keeps its first argument only when it wins
    strictly or is NaN, which fixes the sign of a zero result. On scalars it
    is several times faster than the two numpy calls.
    """
    v = v if v > lo or v != v else lo
    return v if v < hi or v != v else hi


class SetProjector:
    """A closed convex set, represented by its Euclidean projection.

    Subclasses provide ``project``; ``distance`` is derived from it.
    """

    def project(self, z):
        raise NotImplementedError

    def distance(self, z) -> float:
        diff = np.asarray(z, dtype=float) - self.project(z)
        return float(np.linalg.norm(np.atleast_1d(diff)))

@dataclass(frozen=True)
class BoxSet(SetProjector):
    """Componentwise box [lo, hi]; lo = hi gives a point, hi = inf a half-line."""

    lo: float | Array
    hi: float | Array

    def __post_init__(self):
        if np.any(np.asarray(self.lo) > np.asarray(self.hi)):
            raise ValueError(f"BoxSet: lo={self.lo} exceeds hi={self.hi}")

    def project(self, z):
        return np.minimum(np.maximum(z, self.lo), self.hi)


@dataclass(frozen=True)
class ProxHandle:
    """A proximable function phi: its prox map and its value.

    ``evaluate(z, step)`` returns argmin_x phi(x) + ||x - z||^2 / (2 step);
    ``objective_value(x)`` returns phi(x) (may be +inf for indicators).
    ``is_projection`` marks step-independent handles (indicators), whose
    ``evaluate`` is the projection onto the underlying set.
    """

    evaluate: Callable[[Array, float], Array]
    objective_value: Callable[[Array], float]
    is_projection: bool = False


def zero_prox() -> ProxHandle:
    """phi = 0: prox is the identity."""
    return ProxHandle(
        evaluate=lambda z, step: np.asarray(z, dtype=float),
        objective_value=lambda x: 0.0,
        is_projection=True,
    )


def l1_prox(weight: float = 1.0) -> ProxHandle:
    """phi = weight * ||.||_1: prox is soft thresholding by step * weight.

    A zero result carries the sign of its input: -0.0 maps to -0.0.
    """
    if not 0 < weight < np.inf:
        raise ValueError(
            f"l1_prox: weight must be positive and finite, got {weight}")

    def evaluate(z, step):
        # no finiteness scan: the solvers check every iterate themselves
        if not 0 < step < np.inf:
            raise ValueError(
                f"l1_prox: step must be positive and finite, got {step}")
        return _shrink(np.asarray(z, dtype=float), step * weight)

    return ProxHandle(
        evaluate=evaluate,
        objective_value=lambda x: weight * float(np.sum(np.abs(x))),
    )


def _plane(a, b: float, name: str):
    """(a, b, ||a||^2) of the plane {x : <a, x> = b}, checked once: a normal
    that is not a nonzero finite vector, or a non-finite b, is refused."""
    a = np.array(a, dtype=float)
    nrm2 = float(a @ a) if a.ndim == 1 else np.nan
    if not 0.0 < nrm2 < np.inf:
        raise DegenerateConstraintError(
            f"{name}: normal must be a nonzero finite vector")
    if not -np.inf < b < np.inf:
        raise ValueError(f"{name}: offset b must be finite, got {b}")
    return a, float(b), nrm2


def hyperplane_indicator_prox(a: Array, b: float) -> ProxHandle:
    """phi = indicator of {x : <a, x> = b}: prox is the hyperplane projection,
    with the normal checked and ||a||^2 computed once, not on every step."""
    a, b, nrm2 = _plane(a, b, "hyperplane_indicator_prox")
    return ProxHandle(
        evaluate=lambda z, step: z - ((a @ z - b) / nrm2) * a,
        objective_value=lambda x: 0.0 if abs(float(a @ x) - b) <= 1e-9 else np.inf,
        is_projection=True,
    )
