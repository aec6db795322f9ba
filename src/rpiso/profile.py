"""Isoperimetric profiles of real projective space from tube envelopes.

For each k in {0, .., n} the distance tubes around a totally geodesic
RP^k inside RP^(n+1) are bounded by Clifford shapes
S^k(cos r) x S^(n-k)(sin r).  Sweeping r fills the whole space, giving a
perimeter-vs-volume curve per k; the candidate isoperimetric profile is
the lower envelope of these n + 1 curves.  The same tubes double-covered
in the round sphere give the antipodally-symmetric comparison profile:
every volume and area there is twice its RP^(n+1) value, and radii and
best k are the same.  So the module computes in RP^(n+1) units only, and
the factor of the Space (1 or 2) is applied where a result leaves it:
total_volume, tube_volume, tube_perimeter, profile_at, profile_curve and
transition_volumes.

Enclosed volume has the closed form

    v_k(r) = V_total * I_{sin^2 r}((n - k + 1)/2, (k + 1)/2),

with I the regularized incomplete beta, which is also what the direct
integral (1/2) |S^k| |S^(n-k)| cossin_integral(k, n-k, r) evaluates to.
Every volume inversion goes through one batched solve, so radius_for_volume,
profile_at and profile_curve agree bit for bit.  That solve is a bracketed
Newton iteration on the log of the volume fraction, or of its complement
above half volume, so radii keep their relative accuracy in both tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clifford import CliffordShape, area_rp, curvature
from .specfn import _betainc_xc_vec, _check_int, log_gamma, sphere_area

__all__ = [
    "Space",
    "TubeFamily",
    "ProfilePoint",
    "CrossingNotFound",
    "total_volume",
    "tube_volume",
    "tube_perimeter",
    "radius_for_volume",
    "profile_at",
    "profile_curve",
    "transition_volumes",
    "successive_check",
]

_HALF_PI = 0.5 * math.pi
_LN_2 = math.log(2.0)

# The radius solve stops once a Newton step moves a latitude t by at most
# _RADIUS_RTOL * t; it raises RuntimeError after _MAX_RADIUS_STEPS steps.
_RADIUS_RTOL = 1e-14
_MAX_RADIUS_STEPS = 60

# The handoff solve stops once a Newton step moves both radii by at most
# _NEWTON_TOL; it raises CrossingNotFound after _MAX_NEWTON steps.
_NEWTON_TOL = 1e-12
_MAX_NEWTON = 20


class Space(Enum):
    """Ambient space: the projective quotient, or its double cover with
    antipodally-symmetric competitors.  Volumes and areas in the sphere are
    exactly twice the projective ones, a factor applied only where a result
    leaves this module; radii and best k are identical in both spaces."""

    PROJECTIVE = "rp"
    SPHERE_ANTIPODAL = "sphere"


# How many times each space covers RP^d: the factor on its volumes and areas.
_COVER = {Space.PROJECTIVE: 1.0, Space.SPHERE_ANTIPODAL: 2.0}


class CrossingNotFound(RuntimeError):
    """No sign change between adjacent tube perimeter curves: the expected
    envelope transition is absent."""


@dataclass(frozen=True)
class TubeFamily:
    """Tubes around a totally geodesic RP^k in RP^(ambient_dim), swept by
    the boundary latitude r in [0, pi/2]."""

    ambient_dim: int
    k: int
    space: Space = Space.PROJECTIVE

    def __post_init__(self) -> None:
        total_volume(self.ambient_dim, self.space)  # checks ambient_dim and space
        _check_int("k", self.k)
        if not (0 <= self.k <= self.n):
            raise ValueError(
                f"k must lie in [0, {self.n}] for ambient_dim {self.ambient_dim}, got {self.k}"
            )

    @property
    def n(self) -> int:
        """Boundary hypersurface dimension."""
        return self.ambient_dim - 1


@dataclass(frozen=True)
class ProfilePoint:
    """One point of the candidate profile: the cheapest tube boundary among
    all k at the given enclosed volume."""

    volume: float
    perimeter: float
    best_k: int
    best_r: float


def total_volume(ambient_dim: int, space: Space = Space.PROJECTIVE) -> float:
    """Volume of the ambient space: |S^d| for the sphere, half for RP^d."""
    _check_int("ambient_dim", ambient_dim, 2)
    return _cover(space) * (0.5 * sphere_area(ambient_dim))


def _cover(space: Space) -> float:
    if not isinstance(space, Space):
        raise ValueError(f"space must be a Space, got {space!r}")
    return _COVER[space]


def _rp_volume(ambient_dim: int, v: float, space: Space) -> float:
    """The volume v of the given space in RP^d units, once it is checked to
    lie strictly inside (0, total)."""
    total = total_volume(ambient_dim, space)
    if not (0.0 < v < total):
        raise ValueError(f"volume must lie in (0, {total}), got {v}")
    return v / _cover(space)


def _volume_fraction(n: int, k: int, r: np.ndarray) -> np.ndarray:
    """Share of the total volume inside the latitude-r tubes around RP^k:
    I_{sin^2 r}((n - k + 1)/2, (k + 1)/2) per element."""
    s = np.sin(r)
    c = np.cos(r)
    return _betainc_xc_vec(s * s, c * c, 0.5 * (n - k + 1), 0.5 * (k + 1))


def tube_volume(fam: TubeFamily, r: float) -> float:
    """Volume enclosed by the latitude-r tube boundary around RP^k.

    Strictly increasing from 0 at r = 0 to the full ambient volume at
    r = pi/2 for every k; evaluated through the incomplete-beta closed
    form of the cos^k sin^(n-k) integral.
    """
    r = float(r)
    if not (0.0 <= r <= _HALF_PI):
        raise ValueError(f"radius must lie in [0, pi/2], got {r}")
    frac = float(_volume_fraction(fam.n, fam.k, np.array([r]))[0])
    return total_volume(fam.ambient_dim, fam.space) * frac


def tube_perimeter(fam: TubeFamily, r: float | np.ndarray) -> float | np.ndarray:
    """Area of the latitude-r tube boundary, a Clifford shape of factor
    dimensions (k, n - k); r may be a 1-D array of latitudes."""
    return _cover(fam.space) * area_rp(CliffordShape(fam.k, fam.n - fam.k, r))


def radius_for_volume(fam: TubeFamily, v: float) -> float:
    """Latitude whose tube encloses volume v, for v strictly inside
    (0, total): the batched solve on one element."""
    v = _rp_volume(fam.ambient_dim, float(v), fam.space)
    frac = np.array([v]) / total_volume(fam.ambient_dim)
    return float(_radii_for_fractions(fam.n, fam.k, frac)[0])


def _radii_for_fractions(n: int, k: int, v_frac: np.ndarray) -> np.ndarray:
    """Latitudes enclosing the given volume fractions f, each in (0, 1).

    With a = (n - k + 1)/2 and b = (k + 1)/2, f <= 1/2 solves
    I_{sin^2 r}(a, b) = f for r directly; f > 1/2 solves the complement
    I_{sin^2 s}(b, a) = 1 - f for s = pi/2 - r, so both tails keep their
    relative accuracy.  Each element is computed on its own, so results do
    not depend on what else shares the batch.
    """
    v_frac = np.asarray(v_frac, dtype=float)
    a = 0.5 * (n - k + 1)
    b = 0.5 * (k + 1)
    upper = v_frac > 0.5
    out = np.empty(v_frac.shape)
    out[~upper] = _invert_lower_fraction(v_frac[~upper], a, b)
    out[upper] = _HALF_PI - _invert_lower_fraction(1.0 - v_frac[upper], b, a)
    return out


def _invert_lower_fraction(y: np.ndarray, p: float, q: float) -> np.ndarray:
    """Latitudes t in (0, pi/2) with I_{sin^2 t}(p, q) = y, for y in (0, 1/2].

    Bracketed Newton (rtsafe, Numerical Recipes 9.4) on
    log I_{sin^2 t}(p, q) - log y, whose slope is I'/I with
    I' = 2 sin^(2p-1) t cos^(2q-1) t / B(p, q).  Each element starts from
    the small-radius asymptote t = (y p B(p, q))^(1/(2p)), capped at 1.2,
    which is already exact in double precision once (p + q) t^2 < 1e-16;
    that also covers the fractions for which sin^2 t underflows.  Otherwise
    it keeps its own bracket inside [0, pi/2], bisects only when a Newton
    step leaves that bracket, and freezes once a step moves it by at most
    _RADIUS_RTOL * t; that test comes before the bracket test, since a
    converged step may land on a bracket end.  Raises RuntimeError after
    _MAX_RADIUS_STEPS steps.
    """
    ln_beta = log_gamma(p) + log_gamma(q) - log_gamma(p + q)
    t = np.minimum(np.power(y, 0.5 / p) * math.exp(0.5 * (math.log(p) + ln_beta) / p), 1.2)
    # I = t^(2p) / (p B) (1 + c t^2 + ...) with |c| < p + q, so there the
    # start is within 1e-16 / (2p) relative of the root.
    exact = (t > 0.0) & ((p + q) * t * t < 1e-16)
    out = np.where(exact, t, np.nan)
    idx = np.nonzero(~exact)[0]
    t = t[idx]
    lo = np.zeros(idx.shape)
    hi = np.full(idx.shape, _HALF_PI)
    for _ in range(_MAX_RADIUS_STEPS):
        if idx.size == 0:
            return out
        s = np.sin(t)
        c = np.cos(t)
        frac = _betainc_xc_vec(s * s, c * c, p, q)
        # A fraction that underflows to 0 gives a NaN step, which bisects.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_slope = (
                _LN_2 + (2.0 * p - 1.0) * np.log(s) + (2.0 * q - 1.0) * np.log(c) - ln_beta
            )
            step = -np.log(frac / y[idx]) * np.exp(np.log(frac) - log_slope)
        done = np.abs(step) <= _RADIUS_RTOL * t
        out[idx[done]] = t[done] + step[done]
        below = frac < y[idx]
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        t = t + step
        t = np.where((t > lo) & (t < hi), t, 0.5 * (lo + hi))
        keep = ~done
        idx, t, lo, hi = idx[keep], t[keep], lo[keep], hi[keep]
    raise RuntimeError(
        f"volume Newton solve not converged after {_MAX_RADIUS_STEPS} steps "
        f"for I(p={p}, q={q})"
    )


def _tube_table(ambient_dim: int, volumes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perimeter, radius) arrays of shape (n + 1, volumes.size) for
    volumes in RP^d: row k holds tube family k at each volume."""
    n = ambient_dim - 1
    v_frac = np.asarray(volumes, dtype=float) / total_volume(ambient_dim)
    radii = np.array([_radii_for_fractions(n, k, v_frac) for k in range(n + 1)])
    perims = np.array([area_rp(CliffordShape(k, n - k, radii[k])) for k in range(n + 1)])
    return perims, radii


def _envelope(
    ambient_dim: int, volumes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower envelope over k of the tube perimeters at fixed volumes in RP^d.

    Returns (best_k, perimeter, radius) arrays; ties pick the smallest k.
    """
    perims, radii = _tube_table(ambient_dim, volumes)
    best = np.argmin(perims, axis=0)
    cols = np.arange(perims.shape[1])
    return best, perims[best, cols], radii[best, cols]


def profile_at(
    ambient_dim: int, v: float, space: Space = Space.PROJECTIVE
) -> ProfilePoint:
    """Best tube boundary enclosing volume v among all core dimensions k."""
    v = float(v)
    best, perim, radius = _envelope(ambient_dim, np.array([_rp_volume(ambient_dim, v, space)]))
    return ProfilePoint(
        volume=v,
        perimeter=_cover(space) * float(perim[0]),
        best_k=int(best[0]),
        best_r=float(radius[0]),
    )


def _volume_grid(total: float, samples: int) -> np.ndarray:
    return total * (np.arange(1, samples + 1) / (samples + 1))


def profile_curve(
    ambient_dim: int, samples: int, space: Space = Space.PROJECTIVE
) -> list[ProfilePoint]:
    """Profile sampled at samples interior volumes v_i = total * i/(samples+1)."""
    _check_int("samples", samples, 2)
    cover = _cover(space)
    volumes = _volume_grid(total_volume(ambient_dim), samples)
    best, perims, radii = _envelope(ambient_dim, volumes)
    return [
        ProfilePoint(volume=cover * v, perimeter=cover * p, best_k=k, best_r=r)
        for v, p, k, r in zip(volumes.tolist(), perims.tolist(), best.tolist(), radii.tolist())
    ]


def _solve_handoff(
    ambient_dim: int, k: int, r_start: tuple[float, float], bracket: tuple[float, float]
) -> float:
    """Volume in RP^d where tube families k and k + 1 enclose equal volume
    with equal perimeter: Newton on their radii (r_k, r_{k+1}) from r_start.

    The Jacobian uses dV/dr = P and dP/dr = n H P, with H the mean
    curvature of the boundary.  Raises CrossingNotFound if the step budget
    runs out, an iterate leaves (0, pi/2), or the solved volume falls
    outside bracket.
    """
    n = ambient_dim - 1
    fams = (TubeFamily(ambient_dim, k), TubeFamily(ambient_dim, k + 1))
    radii = np.array(r_start, dtype=float)
    for _ in range(_MAX_NEWTON):
        vol, perim, slope = [], [], []
        for fam, r in zip(fams, radii.tolist()):
            vol.append(tube_volume(fam, r))
            perim.append(tube_perimeter(fam, r))
            slope.append(n * curvature(CliffordShape(fam.k, n - fam.k, r)).mean)
        # Solve J step = -F for F = (V_k - V_{k+1}, P_k - P_{k+1}).
        jac = [[perim[0], -perim[1]], [slope[0] * perim[0], -slope[1] * perim[1]]]
        steps = np.linalg.solve(jac, [vol[1] - vol[0], perim[1] - perim[0]])
        radii = radii + steps
        if not np.all((radii > 0.0) & (radii < _HALF_PI)):
            raise CrossingNotFound(f"handoff k={k}: Newton iterate {radii} left (0, pi/2)")
        if np.max(np.abs(steps)) <= _NEWTON_TOL:
            break
    else:
        raise CrossingNotFound(f"handoff k={k}: Newton not converged after {_MAX_NEWTON} steps")
    v_star = tube_volume(fams[0], float(radii[0]))
    if not (bracket[0] <= v_star <= bracket[1]):
        raise CrossingNotFound(
            f"handoff k={k}: solved volume {v_star} outside the scan bracket {bracket}"
        )
    return v_star


_SCAN_POINTS = 1024


def transition_volumes(
    ambient_dim: int, space: Space = Space.PROJECTIVE
) -> list[tuple[int, int, float]]:
    """Envelope handoff volumes between adjacent tube families.

    For each k the perimeter gap P_k - P_{k+1} is sampled on a coarse
    volume grid to bracket its sign change; _solve_handoff then solves for
    equal volume and perimeter from the radii at the bracket's lower end.
    Raises CrossingNotFound if some adjacent pair never exchanges
    optimality, if a solve fails, or if the handoff volumes do not strictly
    increase with k: either would break the successive ordering.
    """
    n = ambient_dim - 1
    grid = _volume_grid(total_volume(ambient_dim), _SCAN_POINTS)
    cover = _cover(space)
    perims, radii = _tube_table(ambient_dim, grid)
    out: list[tuple[int, int, float]] = []
    for k in range(n):
        gap_vals = perims[k] - perims[k + 1]
        sign_flip = np.nonzero(np.signbit(gap_vals[:-1]) != np.signbit(gap_vals[1:]))[0]
        if sign_flip.size == 0:
            raise CrossingNotFound(
                f"tube families k={k} and k={k + 1} never exchange optimality "
                f"in ambient dimension {ambient_dim}"
            )
        # The handoff on the lower envelope is the first crossing where the
        # smaller k stops winning.
        i = int(sign_flip[0])
        bracket = (float(grid[i]), float(grid[i + 1]))
        v_star = cover * _solve_handoff(ambient_dim, k, (radii[k, i], radii[k + 1, i]), bracket)
        if out and v_star <= out[-1][2]:
            raise CrossingNotFound(f"handoff volume {v_star} for k={k} is not above {out[-1]}")
        out.append((k, k + 1, v_star))
    return out


def successive_check(
    ambient_dim: int, samples: int, space: Space = Space.PROJECTIVE
) -> bool:
    """True when the envelope's best k is nondecreasing in volume and every
    k from 0 to n appears: tube families hand off one after another.  The
    answer is the same in both spaces."""
    _check_int("samples", samples, 100)
    _cover(space)  # checked, although the answer does not depend on it
    best, _, _ = _envelope(ambient_dim, _volume_grid(total_volume(ambient_dim), samples))
    if not np.all(np.diff(best) >= 0):
        return False
    return set(np.unique(best).tolist()) == set(range(ambient_dim))
