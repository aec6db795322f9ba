"""Laplace spectrum and second-variation stability of Clifford shapes.

Eigenfunctions on the product S^n1(cos r) x S^n2(sin r) separate into
spherical harmonics of degrees (k1, k2), with Laplace eigenvalue

    k1 (k1 + n1 - 1) / cos^2 r + k2 (k2 + n2 - 1) / sin^2 r.

A mode descends to real projective space exactly when k1 + k2 is even.
The shape is a stable two-sided critical point of area among
antipodally-symmetric variations iff the first positive even eigenvalue
is at least n + |A|^2.  A shape with a 1-D array of latitudes gets an
answer per element, equal bit for bit to the scalar calls.

Each formula is one private kernel, which its public function calls once
its arguments pass: _eigenvalue, _interval (memoised per factor pair) and
clifford._norm_sq (curvature's norm_sq).  stability_report calls them
directly, with no repeated checks and no curvature record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordShape, _ArrayFields, _norm_sq
from .specfn import _check_int

__all__ = [
    "EigenMode",
    "StabilityReport",
    "laplace_eigenvalue",
    "first_even_eigenvalue",
    "stability_margin",
    "stability_interval",
    "stability_report",
]

# A computed margin at least this close to zero counts as stable; the
# boundary latitudes themselves have exact margin zero in exact arithmetic.
STABILITY_SLACK = 1e-12

# Degree pairs that can realize the smallest positive antipodally-even
# eigenvalue: any other even pair dominates one of these three in both
# separated eigenvalue terms.
_EVEN_CANDIDATES = ((1, 1), (2, 0), (0, 2))


@dataclass(frozen=True, eq=False)
class EigenMode(_ArrayFields):
    """One separated eigenmode: factor degrees and its Laplace eigenvalue
    (integer and float arrays for an array-valued shape)."""

    k1: int | np.ndarray
    k2: int | np.ndarray
    value: float | np.ndarray


@dataclass(frozen=True, eq=False)
class StabilityReport(_ArrayFields):
    """Stability summary of one Clifford shape.

    margin = lambda1 - n - |A|^2 where lambda1 is the first positive even
    eigenvalue; interval_lo/interval_hi is the closed latitude interval on
    which shapes of the same factor dimensions are stable.
    """

    shape: CliffordShape
    mode: EigenMode
    lambda1: float | np.ndarray
    margin: float | np.ndarray
    stable: bool | np.ndarray
    interval_lo: float
    interval_hi: float


def laplace_eigenvalue(shape: CliffordShape, k1: int, k2: int) -> float | np.ndarray:
    """Laplace eigenvalue of the degree-(k1, k2) product harmonic.

    A factor of dimension zero carries only the constant and sign
    harmonics, so its degree must be 0 or 1.
    """
    for name, value, dim in (("k1", k1, shape.n1), ("k2", k2, shape.n2)):
        _check_int(name, value, 0)
        if dim == 0 and value > 1:
            raise ValueError(
                f"{name}={value} has no harmonic on a 0-dimensional factor"
            )
    return _eigenvalue(shape, k1, k2)


def _eigenvalue(shape: CliffordShape, k1: int, k2: int) -> float | np.ndarray:
    """laplace_eigenvalue's formula, for degrees its caller has checked."""
    c = shape.cos_r
    s = shape.sin_r
    return k1 * (k1 + shape.n1 - 1) / (c * c) + k2 * (k2 + shape.n2 - 1) / (s * s)


def first_even_eigenvalue(shape: CliffordShape) -> EigenMode:
    """Smallest positive eigenvalue among modes with k1 + k2 even.

    Requires both factor dimensions positive.  Only the degree pairs
    (1, 1), (2, 0), (0, 2) can attain the minimum; ties resolve to the
    first of these in that order.
    """
    if shape.n1 < 1 or shape.n2 < 1:
        raise ValueError("first_even_eigenvalue requires n1 >= 1 and n2 >= 1")
    values = [_eigenvalue(shape, k1, k2) for k1, k2 in _EVEN_CANDIDATES]
    if isinstance(shape.r, np.ndarray):
        # argmin takes the first of equal values, keeping the tie order.
        i = np.argmin(values, axis=0)
        k1, k2 = np.array(_EVEN_CANDIDATES).T[:, i]
        return EigenMode(k1=k1, k2=k2, value=np.choose(i, values))
    i = values.index(min(values))
    k1, k2 = _EVEN_CANDIDATES[i]
    return EigenMode(k1=k1, k2=k2, value=values[i])


def stability_margin(shape: CliffordShape) -> float | np.ndarray:
    """First positive even eigenvalue minus the Jacobi potential n + |A|^2.

    Nonnegative exactly on the closed interval returned by
    stability_interval.  The (1, 1) mode satisfies the Jacobi equation at
    every latitude, so the margin is never strictly positive; inside the
    interval it is identically zero.
    """
    return stability_report(shape).margin


def stability_interval(n1: int, n2: int) -> tuple[float, float]:
    """Closed latitude interval [lo, hi] of stable shapes for fixed factor
    dimensions:

        tan(lo) = sqrt(n2 / (n1 + 2)),  tan(hi) = sqrt((n2 + 2) / n1).
    """
    _check_int("n1", n1, 1)
    _check_int("n2", n2, 1)
    return _interval(n1, n2)


@functools.lru_cache(maxsize=1024)
def _interval(n1: int, n2: int) -> tuple[float, float]:
    """stability_interval for checked factor dimensions, memoised for the
    last 1024 pairs: a pure function of two ints, so it changes nothing."""
    lo = math.atan(math.sqrt(n2 / (n1 + 2.0)))
    hi = math.atan(math.sqrt((n2 + 2.0) / n1))
    return lo, hi


def stability_report(shape: CliffordShape) -> StabilityReport:
    """Bundle eigenvalue, margin, verdict, and the stability interval,
    from the unchecked kernels: the shape checked its factor dimensions
    when it was built, and first_even_eigenvalue refuses a zero one."""
    mode = first_even_eigenvalue(shape)
    c = shape.cos_r
    s = shape.sin_r
    margin = mode.value - shape.n - _norm_sq(shape.n1, shape.n2, s / c, c / s)
    lo, hi = _interval(shape.n1, shape.n2)
    return StabilityReport(
        shape=shape,
        mode=mode,
        lambda1=mode.value,
        margin=margin,
        stable=margin >= -STABILITY_SLACK,
        interval_lo=lo,
        interval_hi=hi,
    )
