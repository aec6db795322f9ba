"""Clifford hypersurfaces S^n1(cos r) x S^n2(sin r) in the unit (n+1)-sphere.

A shape is the product of a round n1-sphere of radius cos r and a round
n2-sphere of radius sin r, sitting at latitude r inside S^(n+1) with
n = n1 + n2.  Principal curvatures with respect to the unit normal that
points toward growing r are -tan r on the first factor and cot r on the
second, so the shape operator satisfies A^2 - beta0 A - Id = 0 with
beta0 = cot r - tan r.  With a 1-D array of latitudes, curvature and the
areas answer per element, equal bit for bit to the scalar calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CliffordShape:
    """Latitude-r product sphere S^n1(cos r) x S^n2(sin r) in S^(n1+n2+1).

    Factor dimensions may be zero (a geodesic sphere about a lower
    dimensional core) but not both; the latitude r must be strictly
    between 0 and pi/2 so neither factor collapses.  r is a float or a
    1-D float array (a read-only copy is kept, and such a shape supports
    neither == nor hash); cos_r and sin_r are evaluated once, here.
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
    s = shape.sin_r
    c = shape.cos_r
    kappa1 = -s / c
    kappa2 = c / s
    n = shape.n
    mean = (shape.n1 * kappa1 + shape.n2 * kappa2) / n
    norm_sq = shape.n1 * kappa1 * kappa1 + shape.n2 * kappa2 * kappa2
    beta = s / c - c / s
    return CurvatureData(
        kappa1=kappa1,
        mult1=shape.n1,
        kappa2=kappa2,
        mult2=shape.n2,
        mean=mean,
        norm_sq=norm_sq,
        beta=beta,
    )


def _power(x: float | np.ndarray, p: float) -> float | np.ndarray:
    """x**p by numpy for floats and arrays alike: Python's float power
    rounds differently from numpy's in about one call in twenty."""
    y = np.power(x, p)
    return y if isinstance(x, np.ndarray) else float(y)


def area_sphere(shape: CliffordShape) -> float | np.ndarray:
    """n-dimensional area of the shape inside the unit sphere:

        |S^n1| |S^n2| cos^n1(r) sin^n2(r).
    """
    return (
        sphere_area(shape.n1)
        * sphere_area(shape.n2)
        * _power(shape.cos_r, shape.n1)
        * _power(shape.sin_r, shape.n2)
    )


def area_rp(shape: CliffordShape) -> float | np.ndarray:
    """Area of the image in real projective space, where the antipodal map
    identifies the surface with itself two to one."""
    return 0.5 * area_sphere(shape)


def parallel_jacobian(shape: CliffordShape, t: float) -> float:
    """Area density of the normal flow by distance t:

        (cos(r+t)/cos r)^n1 (sin(r+t)/sin r)^n2,

    equal to the product of (cos t + kappa_i sin t) over principal
    curvatures.  Vanishes exactly at the focal latitudes r + t = 0 and
    r + t = pi/2 when the collapsing factor has positive dimension, and may
    be negative past them.  Scalar latitudes only: an array-valued shape
    raises ValueError.
    """
    if isinstance(shape.r, np.ndarray):
        raise ValueError(
            "parallel_jacobian takes scalar latitudes only, got an array-valued shape"
        )
    t = float(t)
    latitude = shape.r + t
    if latitude == _HALF_PI and shape.n1 > 0:
        return 0.0
    c_ratio = math.cos(latitude) / shape.cos_r
    s_ratio = math.sin(latitude) / shape.sin_r
    return c_ratio**shape.n1 * s_ratio**shape.n2


def quadratic_roots(beta0: float) -> tuple[float, float]:
    """Roots mu_- < 0 < mu_+ of mu^2 - beta0 mu - 1 = 0, computed without
    cancellation: the root of larger magnitude comes from the stable branch
    of the quadratic formula and the other from the product mu_- mu_+ = -1.
    """
    beta0 = float(beta0)
    if not math.isfinite(beta0):
        raise ValueError(f"coefficient must be finite, got {beta0}")
    disc = math.hypot(beta0, 2.0)
    if beta0 >= 0.0:
        mu_plus = 0.5 * (beta0 + disc)
        mu_minus = -1.0 / mu_plus
    else:
        mu_minus = 0.5 * (beta0 - disc)
        mu_plus = -1.0 / mu_minus
    return mu_minus, mu_plus
