"""Independent reference answers and output checks for the benchmark.

Everything here is computed from scipy (``betaincinv``, ``gammaln``,
``brentq``) and closed forms, never from rpiso, so a checker that accepts
an rpiso output has compared it against a second implementation.

Tube geometry: in RP^(n+1) the latitude-r tube about RP^k encloses the
volume fraction f = I_{sin^2 r}((n-k+1)/2, (k+1)/2) and has perimeter
C_k cos^k r sin^(n-k) r with C_k = |S^k| |S^(n-k)| (halved in the
projective quotient).  Inverting f with betaincinv gives sin^2 r directly;
on the upper half the complement cos^2 r is inverted instead, so both
tails keep relative accuracy.

Each ``check_*`` function returns a list of problems, empty when the
output is right.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaincinv, gammaln

HALF_PI = 0.5 * math.pi

# Relative perimeter error allowed on a profile point.  rpiso stops its
# volume solve at 1e-12 of the total, which costs at most ~1e-9 relative
# perimeter on volume fractions in [1e-4, 1 - 1e-4]; 1e-8 leaves a decade
# of room there and still catches any real change of answer.
PERIMETER_RTOL = 1e-8
# Radius error, relative to the distance from the nearer end of [0, pi/2]
# (where the volume map is flat and the radius is ill-conditioned).
RADIUS_RTOL = 1e-8
# Two families whose oracle perimeters agree to this relative gap are a
# tie: the envelope may pick either, so best_k is not checked there.
TIE_RTOL = 1e-8
# Handoff volumes, as a share of the total volume.
TRANSITION_TOL = 1e-9
# Relative error of the first even eigenvalue against its closed form.
EIGEN_RTOL = 1e-12
# A radius this close to a stability-interval endpoint has a margin of
# rounding size, so its verdict is not checked.
VERDICT_GUARD = 1e-9
# Absolute margin allowed inside the interval (where it is exactly zero),
# relative to the eigenvalue's size.
MARGIN_RTOL = 1e-9

_LN_PI = math.log(math.pi)


def log_sphere_area(d: int) -> float:
    """log |S^d| = log(2 pi^((d+1)/2) / Gamma((d+1)/2))."""
    half = 0.5 * (d + 1)
    return math.log(2.0) + half * _LN_PI - float(gammaln(half))


def total_volume(dim: int, space: str) -> float:
    """Volume of RP^dim ('rp') or of the sphere S^dim ('sphere')."""
    area = math.exp(log_sphere_area(dim))
    return area if space == "sphere" else 0.5 * area


def _sin2_cos2(n: int, k: int, f, fc):
    """(sin^2 r, cos^2 r) of the family-k tube enclosing fraction f, with
    fc = 1 - f supplied separately."""
    a, b = 0.5 * (n - k + 1), 0.5 * (k + 1)
    f = np.asarray(f, dtype=float)
    fc = np.asarray(fc, dtype=float)
    low = f <= 0.5
    x = betaincinv(a, b, np.where(low, f, 0.5))
    xc = betaincinv(b, a, np.where(low, 0.5, fc))
    return np.where(low, x, 1.0 - xc), np.where(low, 1.0 - x, xc)


def _radius(s2, c2):
    s2 = np.asarray(s2)
    c2 = np.asarray(c2)
    return np.where(s2 <= c2, np.arcsin(np.sqrt(s2)), HALF_PI - np.arcsin(np.sqrt(c2)))


def _log_perimeter(n: int, k: int, space: str, s2, c2):
    log_c = log_sphere_area(k) + log_sphere_area(n - k)
    if space == "rp":
        log_c -= math.log(2.0)
    return log_c + 0.5 * k * np.log(c2) + 0.5 * (n - k) * np.log(s2)


def fractions(dim: int, space: str, volumes):
    """Volume fraction and its complement, each to relative accuracy."""
    total = total_volume(dim, space)
    v = np.asarray(volumes, dtype=float)
    return v / total, (total - v) / total


def families(dim: int, space: str, volumes):
    """Perimeters and radii of every tube family at each volume: two
    arrays of shape (dim, len(volumes)), row k for the core RP^k."""
    n = dim - 1
    f, fc = fractions(dim, space, volumes)
    perims = np.empty((n + 1, f.size))
    radii = np.empty((n + 1, f.size))
    for k in range(n + 1):
        s2, c2 = _sin2_cos2(n, k, f, fc)
        perims[k] = np.exp(_log_perimeter(n, k, space, s2, c2))
        radii[k] = _radius(s2, c2)
    return perims, radii


def radius_for_volume(dim: int, k: int, space: str, volumes):
    f, fc = fractions(dim, space, volumes)
    return _radius(*_sin2_cos2(dim - 1, k, f, fc))


def check_radius(dim: int, k: int, space: str, volume: float, r: float) -> list[str]:
    err = float(radius_error(r, radius_for_volume(dim, k, space, [volume]))[0])
    return [] if err <= RADIUS_RTOL else [f"radius rel err {err:.2e}"]


def _rel(got, want):
    return np.abs(np.asarray(got) - want) / np.abs(want)


def radius_error(got, want):
    """Radius error relative to the distance from the nearer end of [0, pi/2]."""
    scale = np.minimum(want, HALF_PI - want)
    return np.abs(np.asarray(got) - want) / scale


def profile_point_errors(dim, space, volumes, perimeter, best_k, best_r):
    """Per point: (perimeter relative error, list of problems)."""
    perims, radii = families(dim, space, volumes)
    best_k = np.asarray(best_k, dtype=int)
    order = np.sort(perims, axis=0)
    want = order[0]
    tie = (order[1] - order[0]) <= TIE_RTOL * order[0]
    oracle_k = np.argmin(perims, axis=0)
    cols = np.arange(want.size)
    valid_k = (best_k >= 0) & (best_k < perims.shape[0])
    k_safe = np.where(valid_k, best_k, 0)
    p_err = _rel(perimeter, want)
    r_err = radius_error(best_r, radii[k_safe, cols])
    problems = []
    for i in range(want.size):
        bad = []
        if not valid_k[i]:
            bad.append(f"best_k {best_k[i]} out of range")
        elif not tie[i] and best_k[i] != oracle_k[i]:
            bad.append(f"best_k {best_k[i]}, oracle {oracle_k[i]}")
        if not p_err[i] <= PERIMETER_RTOL:
            bad.append(f"perimeter rel err {p_err[i]:.2e}")
        if not r_err[i] <= RADIUS_RTOL:
            bad.append(f"radius rel err {r_err[i]:.2e}")
        problems.append(bad)
    return p_err, problems


def curve_problems(dim, best_k) -> list[str]:
    """Per-curve properties: best_k nondecreasing in volume, every k seen."""
    best_k = np.asarray(best_k, dtype=int)
    out = []
    if np.any(np.diff(best_k) < 0):
        out.append("best_k decreases along the curve")
    missing = sorted(set(range(dim)) - set(best_k.tolist()))
    if missing:
        out.append(f"families {missing} never optimal")
    return out


def check_profile_table(dim, space, samples, table) -> tuple[list[str], float]:
    """A whole profile table (columns volume, perimeter, best_k, best_r):
    the grid, every point, and the per-curve properties.  Returns the
    problems and the worst perimeter relative error."""
    volumes, perimeter, best_k, best_r = table
    if len(volumes) != samples:
        return [f"{len(volumes)} rows, want {samples}"], math.inf
    total = total_volume(dim, space)
    grid = total * (np.arange(1, samples + 1) / (samples + 1))
    problems = []
    grid_err = np.max(_rel(volumes, grid))
    if not grid_err <= 1e-13:
        problems.append(f"volume grid off by {grid_err:.2e}")
    p_err, per_point = profile_point_errors(dim, space, volumes, perimeter, best_k, best_r)
    bad = [(i, b) for i, b in enumerate(per_point) if b]
    if bad:
        i, b = bad[0]
        problems.append(f"{len(bad)} bad points, first at row {i}: {'; '.join(b)}")
    problems += curve_problems(dim, best_k)
    return problems, float(np.max(p_err))


def transitions(dim: int, space: str) -> list[float]:
    """Handoff volumes v_0 .. v_(n-1) between families k and k + 1: the
    first volume where family k stops being cheaper than family k + 1."""
    n = dim - 1
    total = total_volume(dim, space)
    grid = np.linspace(0.0, 1.0, 4097)[1:-1]
    logs = [
        _log_perimeter(n, k, space, *_sin2_cos2(n, k, grid, 1.0 - grid))
        for k in range(n + 1)
    ]

    def gap(f, k):
        fc = 1.0 - f
        return float(
            _log_perimeter(n, k, space, *_sin2_cos2(n, k, f, fc))
            - _log_perimeter(n, k + 1, space, *_sin2_cos2(n, k + 1, f, fc))
        )

    out = []
    for k in range(n):
        flips = np.nonzero(np.diff(np.signbit(logs[k] - logs[k + 1])))[0]
        i = int(flips[0])
        f = brentq(gap, grid[i], grid[i + 1], args=(k,), xtol=1e-16, rtol=8.9e-16)
        out.append(total * f)
    return out


def check_transitions(dim, space, handoffs, want=None) -> tuple[list[str], float]:
    """Handoff list [(k, k + 1, volume), ...]: against the oracle, in k
    order, increasing, and symmetric (v_k + v_(n-1-k) = total).  Returns
    the problems and the worst volume error as a share of the total."""
    n = dim - 1
    total = total_volume(dim, space)
    if want is None:
        want = transitions(dim, space)
    if len(handoffs) != n:
        return [f"{len(handoffs)} handoffs, want {n}"], math.inf
    problems = []
    pairs = [(int(k), int(k2)) for k, k2, _ in handoffs]
    if pairs != [(k, k + 1) for k in range(n)]:
        problems.append(f"handoffs out of k order: {pairs}")
    v = np.array([float(x) for _, _, x in handoffs])
    if np.any(np.diff(v) <= 0.0):
        problems.append("handoff volumes not increasing")
    err = float(np.max(np.abs(v - np.asarray(want)))) / total
    if not err <= TRANSITION_TOL:
        problems.append(f"handoff volume off by {err:.2e} of the total")
    sym = float(np.max(np.abs(v + v[::-1] - total))) / total
    if not sym <= TRANSITION_TOL:
        problems.append(f"handoff symmetry defect {sym:.2e} of the total")
    return problems, err


def stability_interval(n1: int, n2: int) -> tuple[float, float]:
    return math.atan(math.sqrt(n2 / (n1 + 2.0))), math.atan(math.sqrt((n2 + 2.0) / n1))


def check_stability(n1, n2, r, lambda1, margin, stable, lo, hi) -> list[str]:
    """One stability report against the closed forms: the first even
    eigenvalue min(n1/c^2 + n2/s^2, 2(n1+1)/c^2, 2(n2+1)/s^2), the margin
    lambda1 - n - (n1 tan^2 r + n2 cot^2 r), the interval and the verdict."""
    c2 = math.cos(r) ** 2
    s2 = math.sin(r) ** 2
    lam = min(n1 / c2 + n2 / s2, 2.0 * (n1 + 1) / c2, 2.0 * (n2 + 1) / s2)
    want_margin = lam - (n1 + n2) - (n1 * s2 / c2 + n2 * c2 / s2)
    want_lo, want_hi = stability_interval(n1, n2)
    problems = []
    if not abs(lambda1 - lam) <= EIGEN_RTOL * lam:
        problems.append(f"lambda1 {lambda1!r}, closed form {lam!r}")
    if not abs(margin - want_margin) <= MARGIN_RTOL * lam:
        problems.append(f"margin {margin!r}, closed form {want_margin!r}")
    if not (abs(lo - want_lo) <= 1e-15 and abs(hi - want_hi) <= 1e-15):
        problems.append(f"interval [{lo!r}, {hi!r}], closed form [{want_lo!r}, {want_hi!r}]")
    near_end = min(abs(r - want_lo), abs(r - want_hi)) <= VERDICT_GUARD
    inside = want_lo <= r <= want_hi
    if not near_end:
        if bool(stable) != inside:
            problems.append(f"verdict stable={stable} at r={r!r}, interval says {inside}")
        if inside and margin < -MARGIN_RTOL * lam:
            problems.append(f"negative margin {margin!r} inside the interval")
        if not inside and margin >= 0.0:
            problems.append(f"nonnegative margin {margin!r} outside the interval")
    return problems
