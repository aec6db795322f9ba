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
Halley iteration on the log of the volume fraction, or of its complement
above half volume, so radii keep their relative accuracy in both tails.  It
stops on a relative step of 1e-14, or one evaluation earlier once Halley's
error estimate for the step is below 1e-15 relative: about 2.8 incomplete
beta evaluations per radius on the profile grids.

The handoff from family k to k + 1 is the root of the perimeter gap
P_k - P_{k+1} over the volume fraction, solved by a bracketed Newton
iteration of the same shape for all adjacent pairs at once, then checked to
increase in k and to lie on the lower envelope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clifford import CliffordShape, area_rp, curvature
from .specfn import _betainc_xc_vec, _check_int, _log_beta, _log_norm, sphere_area

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

# The radius solve takes t + step once a Halley step moves a latitude t by
# at most _RADIUS_RTOL * t, or, with no further evaluation, once both
# |step| / t and |step f''/f'| are at most _HALLEY_RTOL, so that Halley's
# error estimate |step| (step f''/f')^2 is below 1e-15 t; it raises
# RuntimeError after _MAX_RADIUS_STEPS steps.
_RADIUS_RTOL = 1e-14
_HALLEY_RTOL = 1e-5
_MAX_RADIUS_STEPS = 60

# The handoff solve stops once a Newton step moves a volume fraction by at
# most _HANDOFF_TOL or its bracket has closed to 4 ulp.  It raises
# CrossingNotFound after _MAX_HANDOFF_STEPS steps: fewer than the 53 halvings
# that take a pair whose gap stays negative from its start to f = 1 itself.
_HANDOFF_TOL = 1e-10
_MAX_HANDOFF_STEPS = 50


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
    lie in (0, total) at an RP^d fraction of at least sys.float_info.min."""
    rp_total = total_volume(ambient_dim)
    total = _cover(space) * rp_total
    if not (0.0 < v < total):
        raise ValueError(f"volume must lie in (0, {total}), got {v}")
    rp_v = v / _cover(space)
    if rp_v / rp_total < sys.float_info.min:
        raise ValueError(f"volume must be at least {sys.float_info.min} of {total}, got {v}")
    return rp_v


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
    """Latitude whose tube encloses volume v, for v in (0, total) and at
    least sys.float_info.min (2.2e-308) of the total, else ValueError: the
    batched solve on one element."""
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
    lower = ~upper
    out = np.empty(v_frac.shape)
    if lower.any():
        out[lower] = _invert_lower_fraction(v_frac[lower], a, b)
    if upper.any():
        out[upper] = _HALF_PI - _invert_lower_fraction(1.0 - v_frac[upper], b, a)
    return out


def _invert_lower_fraction(y: np.ndarray, p: float, q: float) -> np.ndarray:
    """Latitudes t in (0, pi/2) with I_{sin^2 t}(p, q) = y, for y in (0, 1/2].

    Bracketed Halley iteration (rtsafe, Numerical Recipes 9.4, with a
    third-order step) on f = log I_{sin^2 t}(p, q) - log y.  Its slope is
    f' = I'/I with I' = 2 sin^(2p-1) t cos^(2q-1) t / B(p, q), and
    f''/f' = (2p - 1) cot t - (2q - 1) tan t - I'/I, so the Halley step
    newton / (1 + newton f''/(2 f')) costs a few array operations over
    Newton's; where it is not finite, the Newton step is taken.  Each
    element starts from the small-radius asymptote
    t = (y p B(p, q))^(1/(2p)), capped at 1.2, which is already exact in
    double precision once (p + q) t^2 < 1e-16; that also covers the
    fractions for which sin^2 t underflows.  Otherwise it keeps its own
    bracket inside [0, pi/2] and bisects only when a step leaves it.  An
    element is done with t + step once the step moves t by at most
    _RADIUS_RTOL * t, or, without a confirming evaluation, once t + step
    lies in the bracket and |step| / t and |step f''/f'| are both at most
    _HALLEY_RTOL, which puts Halley's error estimate |step| (step f''/f')^2
    below 1e-15 t.  The first test skips the bracket test, since a
    converged step may land on a bracket end.  Raises RuntimeError after
    _MAX_RADIUS_STEPS steps.
    """
    ln_beta = _log_beta(p, q)
    ln_norm = _log_norm(p, q)  # as _betainc_xc_vec would compute it on every call
    t = np.minimum(np.power(y, 0.5 / p) * math.exp(0.5 * (math.log(p) + ln_beta) / p), 1.2)
    # I = t^(2p) / (p B) (1 + c t^2 + ...) with |c| < p + q, so there the
    # start is within 1e-16 / (2p) relative of the root.
    exact = (t > 0.0) & ((p + q) * t * t < 1e-16)
    out = np.where(exact, t, np.nan)
    idx = np.nonzero(~exact)[0]
    t = t[idx]
    lo = np.zeros(idx.shape)
    hi = np.full(idx.shape, _HALF_PI)
    # A fraction that underflows to 0 gives a NaN step, which bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_RADIUS_STEPS):
            if idx.size == 0:
                return out
            s = np.sin(t)
            c = np.cos(t)
            frac = _betainc_xc_vec(s * s, c * c, p, q, ln_norm)
            log_slope = (
                _LN_2 + (2.0 * p - 1.0) * np.log(s) + (2.0 * q - 1.0) * np.log(c) - ln_beta
            )
            inv_slope = np.exp(np.log(frac) - log_slope)  # 1 / f'
            newton = -np.log(frac / y[idx]) * inv_slope
            curv = (2.0 * p - 1.0) * c / s - (2.0 * q - 1.0) * s / c - 1.0 / inv_slope
            step = newton / (1.0 + 0.5 * newton * curv)
            step = np.where(np.isfinite(step), step, newton)
            below = frac < y[idx]
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            new = t + step
            inside = (new > lo) & (new < hi)
            size = np.abs(step)
            done = (size <= _RADIUS_RTOL * t) | (
                inside & (size <= _HALLEY_RTOL * t) & (np.abs(step * curv) <= _HALLEY_RTOL)
            )
            out[idx[done]] = new[done]
            t = np.where(inside, new, 0.5 * (lo + hi))
            keep = ~done
            idx, t, lo, hi = idx[keep], t[keep], lo[keep], hi[keep]
    raise RuntimeError(
        f"volume Halley solve not converged after {_MAX_RADIUS_STEPS} steps "
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
    """Best tube boundary enclosing volume v among all core dimensions k,
    for v in (0, total) and at least sys.float_info.min of the total."""
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


def transition_volumes(
    ambient_dim: int, space: Space = Space.PROJECTIVE
) -> list[tuple[int, int, float]]:
    """Envelope handoff volumes between adjacent tube families.

    The handoff from k to k + 1 is the root of the perimeter gap
    g(f) = P_k - P_{k+1} over the volume fraction f, which changes sign
    once on (0, 1), from - to +.  All n pairs are solved at once, each on
    its own: a bracketed Newton iteration in the form of the radius solve,
    with dg/df = V_total n (H_k - H_{k+1}) since dP/dV = n H, H the mean
    curvature.  Pair k starts halfway between (k + 1)/(n + 1) and 1/2, as
    the handoffs crowd toward half volume when n grows.  It is done once
    its step is at most _HANDOFF_TOL, or once its bracket has closed to
    4 ulp, for dimensions where the rounding noise of g keeps the step
    above the tolerance.  Raises CrossingNotFound if a pair is not
    done after _MAX_HANDOFF_STEPS steps (a pair that never exchanges
    optimality ends there), if the handoff volumes do not strictly increase
    with k, or if at some handoff a third family lies below the pair: each
    would break the successive ordering.
    """
    rp_total = total_volume(ambient_dim)
    n = ambient_dim - 1
    pairs = np.arange(n)
    f = 0.25 + 0.5 * (pairs + 1.0) / (n + 1.0)
    lo = np.zeros(n)
    hi = np.ones(n)
    out = np.empty(n)
    for _ in range(_MAX_HANDOFF_STEPS):
        gap = np.zeros(pairs.size)
        slope = np.zeros(pairs.size)
        for j in range(n + 1):
            # Open pairs with family j below (k = j) or above (k + 1 = j).
            sel = np.nonzero((pairs == j) | (pairs == j - 1))[0]
            if sel.size == 0:
                continue
            shape = CliffordShape(j, n - j, _radii_for_fractions(n, j, f[sel]))
            sign = np.where(pairs[sel] == j, 1.0, -1.0)
            gap[sel] += sign * area_rp(shape)
            slope[sel] += sign * curvature(shape).mean
        step = -gap / (rp_total * n * slope)
        below = gap < 0.0
        lo = np.where(below, f, lo)
        hi = np.where(below, hi, f)
        new = f + step
        converged = np.abs(step) <= _HANDOFF_TOL
        f = np.where(converged | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
        # A closed bracket counts only once g has been seen on both sides.
        closed = (hi - lo <= 4.0 * np.spacing(hi)) & (lo > 0.0) & (hi < 1.0)
        done = converged | closed
        out[pairs[done]] = f[done]
        keep = ~done
        pairs, f, lo, hi = pairs[keep], f[keep], lo[keep], hi[keep]
        if pairs.size == 0:
            break
    else:
        raise CrossingNotFound(
            f"handoffs k={pairs.tolist()} in ambient dimension {ambient_dim} not "
            f"converged after {_MAX_HANDOFF_STEPS} steps"
        )
    handoffs = rp_total * out
    if np.any(np.diff(handoffs) <= 0.0):
        raise CrossingNotFound(f"handoff volumes {handoffs.tolist()} do not increase in k")
    best = np.argmin(_tube_table(ambient_dim, handoffs)[0], axis=0)
    for k, j in enumerate(best.tolist()):
        if j not in (k, k + 1):
            raise CrossingNotFound(
                f"family {j} lies below the handoff of k={k} and k={k + 1} "
                f"in ambient dimension {ambient_dim}"
            )
    cover = _cover(space)
    return [(k, k + 1, cover * v) for k, v in enumerate(handoffs.tolist())]


def successive_check(ambient_dim: int, samples: int) -> bool:
    """True when the envelope's best k is nondecreasing in volume and every
    k from 0 to n appears: tube families hand off one after another.  Radii
    and best k are the same in both spaces, so there is one answer."""
    _check_int("samples", samples, 100)
    best, _, _ = _envelope(ambient_dim, _volume_grid(total_volume(ambient_dim), samples))
    if not np.all(np.diff(best) >= 0):
        return False
    return set(np.unique(best).tolist()) == set(range(ambient_dim))
