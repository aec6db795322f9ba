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
Every function that returns an area or energy of dimension n, or a verdict
built on them, requires n <= 437: beyond it sigma_n and 2 |S^n| are
subnormal doubles, and from n = 455 they round to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import CliffordShape, _mean_curvature
from .specfn import _check_int, _log_sphere_area, log_gamma, trigamma

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

_CHAIN_SLACK = 1e-12

# Largest n for which sigma_n and 2 |S^n| are normal doubles.
_MAX_N = 437


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
    unit sphere; an array per latitude for an array-valued shape.

    Taken in log space, since near r = 0 or pi/2 the area underflows while
    (1 + H^2)^(n/2) overflows.  Each group of terms is symmetric under
    (n1, n2, cos r, sin r) -> (n2, n1, sin r, cos r), so mirror families
    k and n - k tie exactly at mirror latitudes.
    """
    areas = _log_sphere_area(shape.n1) + _log_sphere_area(shape.n2)
    energy = _energy(areas, shape.n1, shape.n2, shape.cos_r, shape.sin_r)
    return energy if isinstance(shape.r, np.ndarray) else float(energy)


def _energy(log_areas, n1, n2, cos_r, sin_r):
    """Willmore energies from log(|S^n1| |S^n2|) and the latitudes' cos and
    sin; n1, n2 and log_areas are scalars, or columns that broadcast against
    the latitudes, one family per row, so the trig of a grid is taken once."""
    mean = _mean_curvature(n1, n2, sin_r / cos_r, cos_r / sin_r)
    log_energy = (
        log_areas
        + (n1 * np.log(cos_r) + n2 * np.log(sin_r))
        + 0.5 * (n1 + n2) * np.log1p(mean * mean)
    )
    with np.errstate(over="ignore"):
        return np.exp(log_energy)


def clifford_area_f(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Area of the minimal Clifford shape with factor dimensions continued
    to real x, a float or a 1-D array in (0, n), equal bit for bit to the
    scalar calls:

        f(x) = |S^x| |S^(n-x)| (x/n)^(x/2) ((n-x)/n)^((n-x)/2),

    computed in log space.  At integer x = k this is the area of the
    H = 0 member of the k-th tube family; as x -> 0 or n it tends to the
    doubled equatorial sphere area 2 |S^n|.
    """
    _check_int("n", n, 2, _MAX_N)
    x = np.array(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
    if not (np.ndim(x) <= 1 and np.all((0.0 < x) & (x < n))):
        raise ValueError(f"x must be a float or 1-D array in (0, {n}), got {x}")
    f = _area_f(n, x)
    return f if isinstance(x, np.ndarray) else float(f)


def _area_f(n, x):
    """The formula of clifford_area_f, unchecked; n is an int, or an int
    array the shape of x with one dimension per element."""
    y = n - x
    # Where x / n underflows, x log(x / n) takes its limit 0, not 0 * -inf.
    x_frac = x / n
    ln = (
        2.0 * _LN_2
        + 0.5 * (n + 2) * _LN_PI
        - log_gamma(0.5 * (x + 1.0))
        - log_gamma(0.5 * (y + 1.0))
        + 0.5 * x * np.log(np.where(x_frac > 0.0, x_frac, 1.0))
        + 0.5 * y * np.log(y / n)
    )
    return np.exp(ln)


def logf_second_derivative(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Second derivative of log f at x, a float or a 1-D array in (0, n),
    equal bit for bit to the scalar calls:

        -(1/4) psi'((x+1)/2) - (1/4) psi'((n-x+1)/2) + 1/(2x) + 1/(2(n-x)),

    strictly positive on (0, n) because psi'(t + 1/2) < 1/t.
    """
    _check_int("n", n, 2)
    x = np.array(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
    if not (np.ndim(x) <= 1 and np.all((0.0 < x) & (x < n))):
        raise ValueError(f"x must be a float or 1-D array in (0, {n}), got {x}")
    return _logf_second_derivative(n, x)


def _logf_second_derivative(n, x):
    """The formula of logf_second_derivative, unchecked; n is an int, or an
    int array the shape of x with one dimension per element."""
    y = n - x
    with np.errstate(over="ignore"):  # 0.5 / x is inf at a subnormal x, as for a float
        return (
            -0.25 * trigamma(0.5 * (x + 1.0))
            - 0.25 * trigamma(0.5 * (y + 1.0))
            + 0.5 / x
            + 0.5 / y
        )


def width_candidate(n: int) -> float:
    """Conjectured min-max width sigma_n = f(floor(n/2)), the area of the
    balanced minimal Clifford shape."""
    _check_int("n", n, 2, _MAX_N)
    return clifford_area_f(n, float(n // 2))


def _chain_holds(ns: np.ndarray) -> np.ndarray:
    """2 |S^n| > f(p) >= sigma_n for every integer p in [1, n - 1], per n of
    a 1-D int array: the areas of every n in one pass of the formula."""
    row, col = np.nonzero(np.arange(1, ns.max(initial=0)) < ns[:, None])  # p = col + 1
    areas = _area_f(ns[row], col + 1.0)
    lowest = _area_f(ns, (ns // 2).astype(float)) * (1.0 - _CHAIN_SLACK)
    bound = 2.0 * np.exp(_log_sphere_area(ns))
    fails = ~((lowest[row] <= areas) & (areas < bound[row]))
    holds = np.ones(ns.size, dtype=bool)
    holds[row[fails]] = False
    return holds


def _convexity_holds(ns: np.ndarray) -> np.ndarray:
    """(log f)'' > 0 on a uniform 1000-point grid spanning (0, n), per n of
    a 1-D int array: every grid in one pass of the formula."""
    xs = np.linspace(0.01 * ns, 0.99 * ns, 1000, axis=1)
    d2 = _logf_second_derivative(np.repeat(ns, xs.shape[1]), xs.ravel())
    return (d2 > 0.0).reshape(xs.shape).all(axis=1)


def verify_area_chain(n: int | np.ndarray) -> bool | np.ndarray:
    """True when the interpolating area function is log-convex on a dense
    grid and the integer chain 2 |S^n| > f(p) >= sigma_n holds.  n is an
    int, or a 1-D int array answered per element with the verdicts of the
    scalar calls."""
    ns = n if isinstance(n, np.ndarray) else np.array([n])
    if ns.ndim != 1:
        raise ValueError(f"n must be an integer or a 1-D integer array, got {n!r}")
    dims = ns.tolist()
    for m in dims:
        _check_int("n", m, 2, _MAX_N)
    ok = _chain_holds(ns) & _convexity_holds(ns)
    return ok if isinstance(n, np.ndarray) else bool(ok[0])


def energy_minimum(n: int, r_samples: int = 10_000) -> tuple[float, int, float]:
    """Brute-force minimum of the tube Willmore energy over k in {0, .., n}
    and a uniform interior latitude grid of r_samples points.

    Returns (energy, k, r) at the first minimum of the row-major (k, r)
    table: ties resolve to the smallest k and then the smallest r.
    Requires r_samples >= 1000 so the grid resolves the minimum well inside
    typical verification tolerances.
    """
    _check_int("n", n, 2, _MAX_N)
    _check_int("r_samples", r_samples, 1000)
    r = _HALF_PI * (np.arange(1, r_samples + 1) / (r_samples + 1))
    # One row per family k, each element as tube_willmore_energy computes it.
    k = np.arange(n + 1)[:, None]
    log_area = _log_sphere_area(np.arange(n + 1))
    energy = _energy(log_area[k] + log_area[n - k], k, n - k, np.cos(r), np.sin(r))
    k, j = np.unravel_index(np.argmin(energy), energy.shape)
    return float(energy[k, j]), int(k), float(r[j])


def willmore_report(n: int, r_samples: int = 10_000) -> WillmoreReport:
    """Bundle sigma_n, the grid energy minimum, and the chain verdicts."""
    energy, k, r = energy_minimum(n, r_samples)
    return WillmoreReport(
        n=n,
        sigma_n=width_candidate(n),
        min_energy=energy,
        argmin_k=k,
        argmin_r=r,
        chain_ok=bool(_chain_holds(np.array([n]))[0]),
        convexity_ok=bool(_convexity_holds(np.array([n]))[0]),
    )
