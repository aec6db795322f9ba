"""Clifford hypersurfaces S^n1(cos r) x S^n2(sin r) in the unit (n+1)-sphere.

A shape is the product of a round n1-sphere of radius cos r and a round
n2-sphere of radius sin r, sitting at latitude r inside S^(n+1) with
n = n1 + n2.  Principal curvatures with respect to the unit normal that
points toward growing r are -tan r on the first factor and cot r on the
second, so the shape operator satisfies A^2 - beta0 A - Id = 0 with
beta0 = cot r - tan r.  With a 1-D array of latitudes, curvature, the
areas and parallel_jacobian answer per element, equal bit for bit to the
scalar calls.  The private kernels _area and _mean_curvature behind
area_sphere and curvature also take int arrays of factor dimensions, one
shape per element, and _area takes |S^n1| |S^n2| from its caller, so a
caller that evaluates many tube families in one batch keeps one table.
curvature's norm_sq is the kernel _norm_sq, which spectrum's stability
report calls without building the whole curvature record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .specfn import _check_int, sphere_area

__all__ = [
    "CliffordShape",
    "CurvatureData",
    "curvature",
    "area_sphere",
    "area_rp",
    "parallel_jacobian",
    "quadratic_roots",
]

_HALF_PI = 0.5 * math.pi


class _ArrayFields:
    """== and hash for a frozen dataclass (declared with eq=False) whose
    fields may hold numpy arrays.  Fields compare and hash as in the
    generated methods, except that an array field compares by dtype, shape
    and bytes and hashes those; for latitudes in (0, pi/2), which hold
    neither NaN nor -0.0, that is np.array_equal."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple(
            (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in values
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class CliffordShape(_ArrayFields):
    """Latitude-r product sphere S^n1(cos r) x S^n2(sin r) in S^(n1+n2+1).

    Factor dimensions may be zero (a geodesic sphere about a lower
    dimensional core) but not both; the latitude r must be strictly
    between 0 and pi/2 so neither factor collapses.  r is a float or a
    1-D float array (a read-only copy is kept, compared and hashed by its
    contents); cos_r and sin_r are evaluated once, here.
    """

    n1: int
    n2: int
    r: float | np.ndarray
    cos_r: float | np.ndarray = field(init=False, repr=False, compare=False)
    sin_r: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_int("n1", self.n1, 0)
        _check_int("n2", self.n2, 0)
        if self.n1 + self.n2 < 1:
            raise ValueError("n1 + n2 must be at least 1")
        if isinstance(self.r, np.ndarray):
            r = np.array(self.r, dtype=float)
            r.flags.writeable = False
            valid = r.ndim == 1 and bool(np.all((0.0 < r) & (r < _HALF_PI)))
            trig = np
        else:
            r = float(self.r)
            valid = 0.0 < r < _HALF_PI
            trig = math
        if not valid:
            raise ValueError(f"latitude must be a float or 1-D array in (0, pi/2), got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "cos_r", trig.cos(r))
        object.__setattr__(self, "sin_r", trig.sin(r))

    @property
    def n(self) -> int:
        """Hypersurface dimension."""
        return self.n1 + self.n2

    @property
    def ambient_dim(self) -> int:
        return self.n1 + self.n2 + 1


@dataclass(frozen=True)
class CurvatureData:
    """Principal curvatures with multiplicities, plus derived invariants.

    mean is the mean curvature H = (n1 kappa1 + n2 kappa2) / n, norm_sq the
    squared second-fundamental-form norm, and beta = tan r - cot r the
    coefficient in A^2 + beta A - Id = 0.
    """

    kappa1: float | np.ndarray
    mult1: int
    kappa2: float | np.ndarray
    mult2: int
    mean: float | np.ndarray
    norm_sq: float | np.ndarray
    beta: float | np.ndarray


def curvature(shape: CliffordShape) -> CurvatureData:
    """Principal curvature data of the shape for the outward (increasing r)
    unit normal: kappa1 = -tan r on the cos r factor, kappa2 = cot r on the
    sin r factor."""
    tan = shape.sin_r / shape.cos_r
    cot = shape.cos_r / shape.sin_r
    return CurvatureData(
        kappa1=-tan,
        mult1=shape.n1,
        kappa2=cot,
        mult2=shape.n2,
        mean=_mean_curvature(shape.n1, shape.n2, tan, cot),
        norm_sq=_norm_sq(shape.n1, shape.n2, tan, cot),
        beta=tan - cot,
    )


def _power(x: float | np.ndarray, p) -> float | np.ndarray:
    """x**p by numpy for floats and arrays alike, and x * x where the int or
    int array p is 2, as numpy squares for a scalar exponent 2 but not for
    an array of them; Python's float power rounds differently from numpy's."""
    y = np.power(x, p)
    if isinstance(y, np.ndarray):
        return np.multiply(x, x, out=y, where=p == 2)
    return float(x * x if p == 2 else y)


def _mean_curvature(n1, n2, tan_r, cot_r):
    """H = (n1 (-tan r) + n2 cot r) / (n1 + n2) per element, from tan r and
    cot r; the factor dimensions are ints, or int arrays that broadcast
    against the latitudes."""
    return (n1 * -tan_r + n2 * cot_r) / (n1 + n2)


def _norm_sq(n1, n2, tan_r, cot_r):
    """|A|^2 = n1 tan^2 r + n2 cot^2 r per element, the squared norm of the
    second fundamental form; the same doubles as n1 kappa1^2 + n2 kappa2^2,
    since negating kappa1 = -tan r rounds nothing."""
    return n1 * tan_r * tan_r + n2 * cot_r * cot_r


def _area(areas, n1, n2, cos_r, sin_r):
    """areas cos^n1(r) sin^n2(r) per element, with areas = |S^n1| |S^n2|
    from the caller; the factor dimensions are ints, or int arrays the
    shape of the latitudes."""
    return areas * _power(cos_r, n1) * _power(sin_r, n2)


def area_sphere(shape: CliffordShape) -> float | np.ndarray:
    """n-dimensional area of the shape inside the unit sphere:

        |S^n1| |S^n2| cos^n1(r) sin^n2(r).
    """
    areas = sphere_area(shape.n1) * sphere_area(shape.n2)
    return _area(areas, shape.n1, shape.n2, shape.cos_r, shape.sin_r)


def area_rp(shape: CliffordShape) -> float | np.ndarray:
    """Area of the image in real projective space, where the antipodal map
    identifies the surface with itself two to one."""
    return 0.5 * area_sphere(shape)


def parallel_jacobian(
    shape: CliffordShape, t: float | np.ndarray
) -> float | np.ndarray:
    """Area density of the normal flow by distance t:

        (cos(r+t)/cos r)^n1 (sin(r+t)/sin r)^n2,

    equal to the product of (cos t + kappa_i sin t) over principal
    curvatures.  Vanishes exactly at the focal latitudes r + t = 0 and
    r + t = pi/2 when the collapsing factor has positive dimension, and may
    be negative past them.  t is a float or a 1-D array that broadcasts
    against the shape's latitudes; an array answers per element, equal bit
    for bit to the scalar calls, and a float shape with a float t gives a
    float.
    """
    latitude = shape.r + (np.array(t, dtype=float) if isinstance(t, np.ndarray) else float(t))
    if np.ndim(latitude) > 1:
        raise ValueError(f"t must be a float or 1-D array, got shape {np.shape(t)}")
    c_ratio = np.cos(latitude) / shape.cos_r
    s_ratio = np.sin(latitude) / shape.sin_r
    density = _power(c_ratio, shape.n1) * _power(s_ratio, shape.n2)
    if shape.n1 > 0:
        density = np.where(latitude == _HALF_PI, 0.0, density)
    return density if np.ndim(latitude) else float(density)


def quadratic_roots(beta0: float) -> tuple[float, float]:
    """Roots mu_- < 0 < mu_+ of mu^2 - beta0 mu - 1 = 0, computed without
    cancellation: the root of larger magnitude comes from the stable branch
    of the quadratic formula and the other from the product mu_- mu_+ = -1.
    """
    beta0 = float(beta0)
    if not math.isfinite(beta0):
        raise ValueError(f"coefficient must be finite, got {beta0}")
    # Halved before the sum, which overflows above about 8.99e307 otherwise.
    half = 0.5 * beta0
    disc = math.hypot(half, 1.0)
    if beta0 >= 0.0:
        mu_plus = half + disc
        mu_minus = -1.0 / mu_plus
    else:
        mu_minus = half - disc
        mu_plus = -1.0 / mu_minus
    return mu_minus, mu_plus
