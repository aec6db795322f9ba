"""Willmore tube energies and the Clifford area function.

The conformally invariant Willmore energy of a Clifford shape is its area
times (1 + H^2)^(n/2).  Along each tube family this energy is smallest at
the minimal (H = 0) latitude, where it equals the interpolating area
function

    f(x) = |S^x| |S^(n-x)| (x/n)^(x/2) ((n-x)/n)^((n-x)/2),

evaluated at x = k.  f is symmetric about n/2, where it attains the
minimum sigma_n = f(floor(n/2)); strict convexity of log f pins the whole
chain

    2 |S^n| > f(1) > ... > f(floor(n/2)) = sigma_n.

The degenerate families k = 0 and k = n have constant energy 2 |S^n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordShape, _power, area_sphere, curvature
from .specfn import _check_int, log_gamma, sphere_area, trigamma

__all__ = [
    "WillmoreReport",
    "tube_willmore_energy",
    "clifford_area_f",
    "logf_second_derivative",
    "verify_area_chain",
    "width_candidate",
    "energy_minimum",
    "willmore_report",
]

_HALF_PI = 0.5 * math.pi
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)

_CONVEXITY_GRID = 1000
_CHAIN_SLACK = 1e-12


@dataclass(frozen=True)
class WillmoreReport:
    """Summary for hypersurface dimension n: the conjectured width
    sigma_n, the brute-force energy minimum over all tubes, and the two
    inequality verdicts backing the area chain."""

    n: int
    sigma_n: float
    min_energy: float
    argmin_k: int
    argmin_r: float
    chain_ok: bool
    convexity_ok: bool


def tube_willmore_energy(shape: CliffordShape) -> float | np.ndarray:
    """Willmore energy area(shape) * (1 + H^2)^(n/2) of the shape in the
    unit sphere; an array per latitude for an array-valued shape."""
    mean = curvature(shape).mean
    return area_sphere(shape) * _power(1.0 + mean * mean, shape.n / 2.0)


def clifford_area_f(n: int, x: float) -> float:
    """Area of the minimal Clifford shape with factor dimensions continued
    to real x in (0, n):

        f(x) = |S^x| |S^(n-x)| (x/n)^(x/2) ((n-x)/n)^((n-x)/2),

    computed in log space.  At integer x = k this is the area of the
    H = 0 member of the k-th tube family; as x -> 0 or n it tends to the
    doubled equatorial sphere area 2 |S^n|.
    """
    _check_int("n", n, 2)
    x = float(x)
    if not (0.0 < x < n):
        raise ValueError(f"x must lie in (0, {n}), got {x}")
    y = n - x
    ln = (
        2.0 * _LN_2
        + 0.5 * (n + 2) * _LN_PI
        - log_gamma(0.5 * (x + 1.0))
        - log_gamma(0.5 * (y + 1.0))
        + 0.5 * x * math.log(x / n)
        + 0.5 * y * math.log(y / n)
    )
    return math.exp(ln)


def logf_second_derivative(n: int, x: float) -> float:
    """Second derivative of log f:

        -(1/4) psi'((x+1)/2) - (1/4) psi'((n-x+1)/2) + 1/(2x) + 1/(2(n-x)),

    strictly positive on (0, n) because psi'(t + 1/2) < 1/t.
    """
    _check_int("n", n, 2)
    x = float(x)
    if not (0.0 < x < n):
        raise ValueError(f"x must lie in (0, {n}), got {x}")
    y = n - x
    return (
        -0.25 * trigamma(0.5 * (x + 1.0))
        - 0.25 * trigamma(0.5 * (y + 1.0))
        + 0.5 / x
        + 0.5 / y
    )


def width_candidate(n: int) -> float:
    """Conjectured min-max width sigma_n = f(floor(n/2)), the area of the
    balanced minimal Clifford shape."""
    _check_int("n", n, 2)
    return clifford_area_f(n, float(n // 2))


def _chain_holds(n: int) -> bool:
    """2 |S^n| > f(p) >= sigma_n for every integer p in [1, n - 1]."""
    bound = 2.0 * sphere_area(n)
    sigma = width_candidate(n)
    for p in range(1, n):
        value = clifford_area_f(n, float(p))
        if not (value < bound):
            return False
        if value < sigma * (1.0 - _CHAIN_SLACK):
            return False
    return True


def _convexity_holds(n: int, grid: int = _CONVEXITY_GRID) -> bool:
    """(log f)'' > 0 on a uniform grid spanning (0, n)."""
    xs = np.linspace(0.01 * n, 0.99 * n, grid)
    return all(logf_second_derivative(n, float(x)) > 0.0 for x in xs)


def verify_area_chain(n: int) -> bool:
    """True when the interpolating area function is log-convex on a dense
    grid and the integer chain 2 |S^n| > f(p) >= sigma_n holds."""
    _check_int("n", n, 2)
    return _chain_holds(n) and _convexity_holds(n)


def energy_minimum(n: int, r_samples: int = 10_000) -> tuple[float, int, float]:
    """Brute-force minimum of the tube Willmore energy over k in {0, .., n}
    and a uniform interior latitude grid of r_samples points.

    Returns (energy, k, r); ties resolve to the smallest k and then the
    smallest r.  Requires r_samples >= 1000 so the grid resolves the
    minimum well inside typical verification tolerances.
    """
    _check_int("n", n, 2)
    _check_int("r_samples", r_samples, 1000)
    r = _HALF_PI * (np.arange(1, r_samples + 1) / (r_samples + 1))
    best_energy = math.inf
    best_k = -1
    best_r = math.nan
    for k in range(n + 1):
        energy = tube_willmore_energy(CliffordShape(k, n - k, r))
        j = int(np.argmin(energy))
        value = float(energy[j])
        if value < best_energy:
            best_energy = value
            best_k = k
            best_r = float(r[j])
    return best_energy, best_k, best_r


def willmore_report(n: int, r_samples: int = 10_000) -> WillmoreReport:
    """Bundle sigma_n, the grid energy minimum, and the chain verdicts."""
    energy, k, r = energy_minimum(n, r_samples)
    return WillmoreReport(
        n=n,
        sigma_n=width_candidate(n),
        min_energy=energy,
        argmin_k=k,
        argmin_r=r,
        chain_ok=_chain_holds(n),
        convexity_ok=_convexity_holds(n),
    )
