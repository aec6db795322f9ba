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
Every volume inversion goes through one solve, with one tube family per
element, so radius_for_volume, profile_at and profile_curve agree bit for
bit, whatever else shares a batch.  Its start and its step are written once
for floats and arrays.  A float, or a batch of fewer than _FLOAT_BELOW (32)
elements (the n + 1 families of profile_at, each step of the 2n handoff
solves up to dimension 16), runs them one element at a time on floats, and
a larger batch on arrays.  Each tube row carries one normaliser,
log(1 / B), which its fractions, the slope of their log density
(_log_density) and its start scale all take.  The float element returns
once it is done; the array loop retires finished elements, exact starts
among them, through _retire, which the handoff solve shares, as it shares
the bracket step, _bracket.  Only the incomplete beta's continued fraction
is written twice, so tests check that the float and array drivers return
the same doubles.  That solve is a bracketed
Halley iteration on the log of the volume fraction, or of its complement
above half volume, so radii keep their relative accuracy in both tails.  It
stops on a relative step of 1e-14, or one evaluation earlier once Halley's
error estimate for the step is below 1e-15 relative.  Above half volume the
tube of family k is the complement of a tube of the mirror family n - k, so
every element inverts the lower fraction of one family j in 0..n, and
starts from row j of a table of the inverse cached per dimension, so on the
profile grids most solves stop after their first evaluation: about 1.1
incomplete beta evaluations per radius, or 1.2 counting the table builds of
a cold cache.  Such a tube is also evaluated through its complement, the
mirror shape at the latitude s = pi/2 - r that the solve returns, so
perimeters keep their relative accuracy up to the last double below the
total.

The envelope solves only the families that can be lowest.  Each P_k is
concave in v, since dP/dV = n H and the mean curvature H decreases as the
tube grows.  So between two volumes P_k lies above its chord and below its
end tangents: every family is solved at every 16th volume, and in between
only where its chord comes within 1e-9 (relative) of the lowest tangent of
any family.  The answers equal the argmin over all families bit for bit.

The handoff from family k to k + 1 is the root of the perimeter gap
P_k - P_{k+1} over the volume fraction, solved by a bracketed Newton
iteration, with the radius solve's _bracket and _retire, for all adjacent
pairs at once, one radius solve per step, then checked to increase in k and
to lie on the lower envelope.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clifford import CliffordShape, _area, _mean_curvature, area_rp
from .specfn import _betainc_xc, _betainc_xc_vec, _check_int, _log_norm
from .specfn import _log_sphere_area, sphere_area

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

# The largest d with total_volume(d) >= sys.float_info.min: 1.32e-307 at
# 436, 1.58e-308 at 437.
_MAX_DIM = 436

# The radius solve takes t + step once a Halley step moves a latitude t by
# at most _RADIUS_RTOL * t, or, with no further evaluation, once both
# |step| / t and |step f''/f'| are at most _HALLEY_RTOL, so that Halley's
# error estimate |step| (step f''/f')^2 is below 1e-15 t; it raises
# RuntimeError after _MAX_RADIUS_STEPS steps.
_RADIUS_RTOL = 1e-14
_HALLEY_RTOL = 1e-5
_MAX_RADIUS_STEPS = 60

# Radius batches of fewer elements solve one element at a time on floats,
# where numpy's per-call overhead outweighs the arithmetic; 16 in place of
# 32 made profile_at at dims 16 and 25 and transition_volumes at dims 8
# and 9 1.1 to 1.7 times slower.
_FLOAT_BELOW = 32

# Latitudes of the radius solve's start tables, one row per mirror family:
# geometric from 1e-6 up to pi/66, then every pi/66 up to 32 pi/66.
_START_NODES = np.concatenate(
    [np.geomspace(1e-6, _HALF_PI / 33, 8, endpoint=False), _HALF_PI * np.arange(1, 33) / 33]
)
_LOG_NODES = np.log(_START_NODES)
# The largest start latitude, the last double below pi/2.
_T_MAX = math.nextafter(_HALF_PI, 0.0)

# The handoff solve stops once a Newton step moves a volume fraction by at
# most _HANDOFF_TOL; near the root, from dimension 299 up, rounding noise in
# the gap can send a step outside the bracket, which then bisects.  It raises
# CrossingNotFound after _MAX_HANDOFF_STEPS steps: fewer than the 53 halvings
# that take a pair whose gap stays negative from its start to f = 1 itself.
_HANDOFF_TOL = 1e-10
_MAX_HANDOFF_STEPS = 50

# _envelope solves every family at every _NODE_STRIDE-th volume and, in
# between, only the families whose chord comes within _PRUNE_MARGIN
# (relative) of the lowest end tangent.
_NODE_STRIDE = 16
_PRUNE_MARGIN = 1e-9


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
    """Volume of the ambient space: |S^d| for the sphere, half for RP^d,
    for 2 <= d <= _MAX_DIM (436), where the RP^d total is a normal double."""
    _check_int("ambient_dim", ambient_dim, 2, _MAX_DIM)
    return _cover(space) * _rp_total(ambient_dim)


@functools.lru_cache(maxsize=None)
def _rp_total(ambient_dim: int) -> float:
    """Half of |S^d|, memoised: a pure function of d, so it changes nothing."""
    return 0.5 * sphere_area(ambient_dim)


def _cover(space: Space) -> float:
    if not isinstance(space, Space):
        raise ValueError(f"space must be a Space, got {space!r}")
    return _COVER[space]


def _rp_volume(ambient_dim: int, v: float, space: Space) -> tuple[float, float]:
    """The volume v of the given space in RP^d units, once it is checked to
    lie in (0, total) at an RP^d fraction of at least sys.float_info.min,
    and the RP^d total."""
    total = total_volume(ambient_dim, space)  # checks ambient_dim and space
    if not (0.0 < v < total):
        raise ValueError(f"volume must lie in (0, {total}), got {v}")
    rp_total = _rp_total(ambient_dim)
    rp_v = v / _COVER[space]
    if rp_v / rp_total < sys.float_info.min:
        raise ValueError(f"volume must be at least {sys.float_info.min} of {total}, got {v}")
    return rp_v, rp_total


def tube_volume(fam: TubeFamily, r: float) -> float:
    """Volume enclosed by the latitude-r tube boundary around RP^k.

    Strictly increasing from 0 at r = 0 to the full ambient volume at
    r = pi/2 for every k; the total times the volume fraction
    I_{sin^2 r}((n - k + 1)/2, (k + 1)/2), the incomplete-beta closed form
    of the cos^k sin^(n-k) integral.
    """
    r = float(r)
    if not (0.0 <= r <= _HALF_PI):
        raise ValueError(f"radius must lie in [0, pi/2], got {r}")
    a, b = 0.5 * (fam.n - fam.k + 1), 0.5 * (fam.k + 1)
    s, c = np.sin(r), np.cos(r)
    frac = float(_betainc_xc(s * s, c * c, a, b, _log_norm(a, b)))
    return total_volume(fam.ambient_dim, fam.space) * frac


def tube_perimeter(fam: TubeFamily, r: float | np.ndarray) -> float | np.ndarray:
    """Area of the latitude-r tube boundary, a Clifford shape of factor
    dimensions (k, n - k); r may be a 1-D array of latitudes in (0, pi/2),
    else ValueError.  A radius from radius_for_volume within ulp/2 of the
    total volume can be exactly pi/2 (see there); profile_at keeps the
    perimeter at such volumes."""
    return _cover(fam.space) * area_rp(CliffordShape(fam.k, fam.n - fam.k, r))


def radius_for_volume(fam: TubeFamily, v: float) -> float:
    """Latitude whose tube encloses volume v, for v in (0, total) and at
    least sys.float_info.min (2.2e-308) of the total, else ValueError: the
    solve's float element.  The radius is correctly rounded, so
    within ulp/2 of the total, where the mirror latitude pi/2 - r is below
    ulp(pi/2)/2, it is exactly pi/2 (for TubeFamily(10, 0) at
    nextafter(total, 0), say), and tube_perimeter refuses it; profile_at
    evaluates the perimeter through the mirror latitude and keeps it."""
    rp_v, total = _rp_volume(fam.ambient_dim, float(v), fam.space)
    return float(_radii_for_fractions(fam.n, fam.k, rp_v, total))


def _radii_for_fractions(n: int, k, v_frac, total: float = 1.0):
    """Latitudes enclosing the volumes v_frac, each in (0, total), of tube
    family k: an int and a float or an array, or an int array with one
    family per element.  With the default total they are volume fractions."""
    y, upper = _split(v_frac, total)
    t = _invert_lower_fraction(n, _where(upper, n - k, k), y)
    return _where(upper, _HALF_PI - t, t)


def _split(v, total: float) -> tuple:
    """(y, upper) for volumes v in (0, total), a float or an array: upper
    marks v / total > 1/2, and y is v / total below that and (total - v) /
    total above, where the difference is exact, so it keeps its accuracy."""
    frac = v / total
    upper = frac > 0.5
    return _where(upper, (total - v) / total, frac), upper


def _where(cond, a, b):
    """np.where(cond, a, b) on an array condition, and a plain conditional
    on a scalar one, so that floats stay floats, not 0-d arrays.  The float
    element calls it about a dozen times per solve, so it tests the exact
    class, at half the cost of isinstance."""
    if cond.__class__ is np.ndarray:
        return np.where(cond, a, b)
    return a if cond else b


@functools.lru_cache(maxsize=64)
def _start_table(n: int) -> tuple[np.ndarray, ...]:
    """Constants of the tubes in dimension n, one row per mirror family
    j = 0..n, whose lower fraction is I(p, q) with p = (n - j + 1)/2 and
    q = (j + 1)/2: the per-row |S^j| |S^(n - j)|, as sphere_area gives them,
    which _tubes reads; the row's one normaliser ln_norm = _log_norm(p, q)
    = log(1 / B(p, q)), under which the rows' fractions, the slopes below
    and every Halley step of the solve are evaluated; the start scale
    (p B(p, q))^(1/(2p)) = exp((log p - ln_norm) / (2p)); the search keys
    j + i log I of each row's inner nodes (the latitudes t of _START_NODES
    but the first and last), flat and sorted by row, then log I; and, one
    row per family and one column per node, log I and the slopes
    d log t / d log I = I / (t I') of the inverse, with log I' from
    _log_density, which _start reads alike for a float and an array.  A node
    whose I underflows has log I = -inf, and one whose slope overflows (the
    high rows from dimension 236 on) an infinite slope; _start starts
    neither from them.  All rows come from one _betainc_xc_vec call on the
    first touch of a dimension, since every envelope and handoff call needs
    all rows: about 10 ms at dimension 150 against about 1.4 ms for one row
    (Intel Xeon, numpy 2.4).  A pure function of n, memoised: the cache can
    change no result.  The arrays are read-only."""
    j = np.arange(n + 1)
    p = 0.5 * (n + 1 - j)
    q = 0.5 * (j + 1)
    areas = np.exp(_log_sphere_area(j))
    ln_norm = _log_norm(p, q)
    scale = np.exp(0.5 * (np.log(p) - ln_norm) / p)
    s = np.sin(_START_NODES)
    c = np.cos(_START_NODES)
    a, b, norm = np.repeat([p, q, ln_norm], _START_NODES.size, axis=1)
    with np.errstate(divide="ignore"):  # log 0 where I underflows
        frac = _betainc_xc_vec(np.tile(s * s, n + 1), np.tile(c * c, n + 1), a, b, norm)
        log_y = np.log(frac).reshape(n + 1, -1)
    log_slope = _log_density(n - j[:, None], j[:, None], s, c, ln_norm[:, None])
    with np.errstate(over="ignore"):
        slopes = np.exp(log_y - _LOG_NODES - log_slope)
    # Set by parts, since 1j * -inf has a NaN real part.
    keys = np.empty((n + 1, _START_NODES.size - 2), dtype=complex)
    keys.real = j[:, None]
    keys.imag = log_y[:, 1:-1]
    tables = areas * areas[::-1], ln_norm, scale, keys.ravel(), log_y, slopes
    for table in tables:
        table.flags.writeable = False
    return tables


def _asymptote(n: int, root, scale) -> tuple:
    """The start t = (y p B(p, q))^(1/(2p)) = root * scale capped at 1.2,
    from root = y^(1/(2p)), and whether t is the root, within 1e-16 / (2p)
    relative since (p + q) t^2 < 1e-16.  Floats or arrays; root is
    np.float_power, which takes no square-root path for an exponent of 1/2,
    so a float root is the double of the same array element."""
    t = root * scale
    t = _where(t > 1.2, 1.2, t)
    return t, (t > 0.0) & (0.5 * (n + 2) * t * t < 1e-16)


def _hermite(u, u0, u1, l0, l1, m0, m1):
    """Cubic Hermite fit of log t at u = log y on [u0, u1], with log t = l0,
    l1 and slopes m0, m1 at the ends; NaN at an underflowed node or an
    infinite slope.  Floats or arrays."""
    h = u1 - u0
    x = (u - u0) / h
    x1 = x - 1.0
    log_t = (1.0 + 2.0 * x) * x1 * x1 * l0 + x * x1 * x1 * h * m0
    return log_t + x * x * (3.0 - 2.0 * x) * l1 + x * x * x1 * h * m1


def _start(n: int, row, y, scale, keys, log_y, slopes) -> tuple:
    """(t, exact, table) for I_{sin^2 t}(p, q) = y of mirror family row in
    dimension n, from the scales, keys, log I and slopes of _start_table:
    the start latitude, whether it is the asymptote and already the answer
    (_asymptote), and whether the row's table gives it: at or above the
    row's first node, where _hermite on the interval holding log y (or the
    last one) is finite, clipped into (0, pi/2); else it is the asymptote
    capped at 1.2.  An int and a float, or arrays, through the same calls
    with no type branch: interval i counts the row's inner nodes at or below
    log y, by one searchsorted over all rows' keys, and the root is
    np.float_power (_asymptote).  So both drivers start from the same
    doubles by construction; only the continued fraction is written twice
    (_invert_lower_fraction)."""
    u = np.log(y)
    i = keys.searchsorted(row + 1j * u, side="right") - row * (_START_NODES.size - 2)
    t, exact = _asymptote(n, np.float_power(y, 1.0 / (n + 1 - row)), scale[row])
    u0, u1, m0, m1 = log_y[row, i], log_y[row, i + 1], slopes[row, i], slopes[row, i + 1]
    log_t = _hermite(u, u0, u1, _LOG_NODES[i], _LOG_NODES[i + 1], m0, m1)
    # At or above the row's first node, and finite.
    table = (log_y[row, 0] <= u) & (abs(log_t) < math.inf)
    start = np.exp(log_t)
    start = _where(start < sys.float_info.min, sys.float_info.min, start)
    start = _where(start > _T_MAX, _T_MAX, start)
    return _where(exact, t, _where(table, start, t)), exact, table


def _log_density(pm, j, s, c, ln_norm):
    """log I' = log 2 + (n - j) log sin t + j log cos t + ln_norm, the log
    of the lower fraction's derivative in t, at s = sin t, c = cos t of
    mirror family j, pm = n - j, with the row's ln_norm = log(1 / B(p, q)).
    Floats or arrays that broadcast: _start_table's slopes and _halley's."""
    return _LN_2 + pm * np.log(s) + j * np.log(c) + ln_norm


def _halley(pm, j, s, c, frac, y, ln_norm) -> tuple:
    """(Newton step, f''/f', Halley step) at s = sin t, c = cos t of mirror
    family j, pm = n - j, with frac = I under the row's ln_norm; the Halley
    step may not be finite.  Floats or arrays."""
    inv_slope = np.exp(np.log(frac) - _log_density(pm, j, s, c, ln_norm))  # 1 / f'
    newton = -np.log(frac / y) * inv_slope
    curv = pm * c / s - j * s / c - 1.0 / inv_slope
    return newton, curv, newton / (1.0 + 0.5 * newton * curv)


def _step(n: int, j, y, t, lo, hi, ln_norm) -> tuple:
    """(done, t + step, next t, lo, hi): one bracketed Halley step at the
    latitude t in [lo, hi] for the lower fraction y of mirror family j, with
    that row's one normaliser ln_norm = log(1 / B(p, q)), which both the
    fraction and its slope take; _bracket moves the bracket and picks the
    next t.  An int and floats, on the float incomplete beta, or arrays, on
    the batched one."""
    pm = n - j
    s = np.sin(t)
    c = np.cos(t)
    betainc = _betainc_xc_vec if isinstance(t, np.ndarray) else _betainc_xc
    frac = betainc(s * s, c * c, 0.5 * (pm + 1), 0.5 * (j + 1), ln_norm)
    newton, curv, step = _halley(pm, j, s, c, frac, y, ln_norm)
    step = _where(abs(step) < math.inf, step, newton)
    new, inside, next_t, lo, hi = _bracket(t, step, frac < y, lo, hi)
    size = abs(step)
    done = (size <= _RADIUS_RTOL * t) | (
        inside & (size <= _HALLEY_RTOL * t) & (abs(step * curv) <= _HALLEY_RTOL)
    )
    return done, new, next_t, lo, hi


def _bracket(x, step, below, lo, hi) -> tuple:
    """(x + step, whether it lies strictly inside the bracket, next x, lo,
    hi): the safeguard of both Newton-type solves (rtsafe, Numerical Recipes
    9.4).  The bracket end on x's side moves to x, lo where below holds (the
    root lies above x) and hi elsewhere; the next x is x + step inside the
    new bracket, else its midpoint.  Floats or arrays."""
    lo, hi = _where(below, (x, hi), (lo, x))
    new = x + step
    inside = (new > lo) & (new < hi)
    return new, inside, _where(inside, new, 0.5 * (lo + hi)), lo, hi


def _retire(out, done, new, idx, *state) -> list:
    """Retirement in both array loops: writes new[done] to out[idx[done]]
    and returns idx and each array of state without the finished elements."""
    out[idx[done]] = new[done]
    keep = ~done
    return [v[keep] for v in (idx, *state)]


def _invert_lower_fraction(n: int, row, y):
    """Latitudes t in (0, pi/2) with I_{sin^2 t}(p, q) = y, for y in (0, 1/2],
    where element i belongs to the mirror family j = row[i] of dimension n:
    p = (n - j + 1)/2 and q = (j + 1)/2, so 2p - 1 = n - j and 2q - 1 = j
    exactly, and p + q = (n + 2)/2; an int row and a float y give a float.
    Tube family k at a volume fraction up to 1/2 is row j = k at y = that
    fraction, and t is its latitude r.  Above half it is the mirror row
    j = n - k at the complement fraction, and t is s = pi/2 - r, which
    solves I_{sin^2 s}((k + 1)/2, (n - k + 1)/2) = y: so both tails keep
    their relative accuracy.

    Bracketed Halley iteration (rtsafe, Numerical Recipes 9.4, with a
    third-order step) on f = log I_{sin^2 t}(p, q) - log y.  Its slope is
    f' = I'/I with I' = 2 sin^(2p-1) t cos^(2q-1) t / B(p, q), and
    f''/f' = (2p - 1) cot t - (2q - 1) tan t - I'/I, so the Halley step
    newton / (1 + newton f''/(2 f')) costs a few operations over Newton's
    (_halley); where it is not finite, the Newton step is taken.  An
    element starts from _start: the small-radius asymptote, the answer
    where it is already exact (also where sin^2 t underflows), or a start
    from the dimension's _start_table.  It keeps its own bracket inside
    [0, pi/2] and bisects only when a step leaves it (_bracket).  It is done
    with t + step once the step moves t by at most _RADIUS_RTOL * t, or,
    without a confirming evaluation, once t + step lies in the bracket and
    |step| / t and |step f''/f'| are both at most _HALLEY_RTOL, which puts
    Halley's error estimate |step| (step f''/f')^2 below 1e-15 t.  The
    first test skips the bracket test, since a converged step may land on a
    bracket end.  Raises RuntimeError, naming the mirror families left, when
    an element is not done after _MAX_RADIUS_STEPS steps.

    _start and _step take floats or arrays, and each row's one normaliser
    from _start_table, under which the fraction and its slope are both
    evaluated; the drivers differ only in how a finished element retires.
    A float, or a batch of fewer than _FLOAT_BELOW elements, where numpy's
    per-call overhead outweighs the arithmetic, runs one element at a time
    (_invert_one), which returns once done; a larger batch steps all its
    elements at once on arrays and drops the finished ones, the exact
    starts first, through _retire, as the handoff solve does.  The
    continued fraction (_betacf, _betacf_vec) is still written twice, so the
    tests check that the drivers return the same doubles and raise the same
    error.
    """
    # A fraction that underflows to 0 gives a NaN step, which bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not isinstance(y, np.ndarray):
            out = _invert_one(n, row, y)
            left = [] if out is not None else [row]
        elif y.size < _FLOAT_BELOW:
            rows = row.tolist()
            out = [_invert_one(n, j, v) for j, v in zip(rows, y.tolist())]
            left = [j for j, t in zip(rows, out) if t is None]
            out = np.array(out, dtype=float)
        else:
            _, ln_norm, *table = _start_table(n)
            t, exact, _ = _start(n, row, y, *table)
            out = np.empty(y.size)
            idx, t, y, row = _retire(out, exact, t, np.arange(y.size), t, y, row)
            lo, hi = np.zeros(idx.size), np.full(idx.size, _HALF_PI)
            for _ in range(_MAX_RADIUS_STEPS):
                if not idx.size:
                    break
                done, new, t, lo, hi = _step(n, row, y, t, lo, hi, ln_norm[row])
                if done.any():
                    idx, t, y, lo, hi, row = _retire(out, done, new, idx, t, y, lo, hi, row)
            left = row.tolist()
    if left:
        raise RuntimeError(
            f"volume Halley solve not converged after {_MAX_RADIUS_STEPS} steps "
            f"in dimension n={n} for mirror families j={sorted(set(left))}"
        )
    return out


def _invert_one(n: int, j: int, y: float) -> float | None:
    """The float driver of _invert_lower_fraction on one element, of mirror
    family j; None when it is not done after _MAX_RADIUS_STEPS steps."""
    _, ln_norm, *table = _start_table(n)
    t, exact, _ = _start(n, j, y, *table)
    if exact:
        return t
    lo, hi = 0.0, _HALF_PI
    ln_norm = ln_norm[j]
    for _ in range(_MAX_RADIUS_STEPS):
        done, new, t, lo, hi = _step(n, j, y, t, lo, hi, ln_norm)
        if done:
            return new
    return None


def _tubes(
    n: int, k: np.ndarray, y: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Callable[[], np.ndarray]]:
    """(perimeter, radius, curvature) in RP^(n+1) of tube family k[i] at
    tail fraction y[i], as _split gives them; curvature() returns their
    mean curvatures, computed only when called, since _envelope needs them
    only for its bounds.  Below half volume the perimeter is
    tube_perimeter's bit for bit.  Above half volume family k is solved as
    its mirror row n - k (see _invert_lower_fraction) and evaluated
    through its mirror shape S^(n-k)(cos s) x S^k(sin s), the same
    hypersurface at the solved latitude s = pi/2 - r: its area is the
    tube's, and its mean curvature is the tube's negated.  Evaluating
    cos r = sin s from r itself would cost the tube's area its relative
    accuracy as s shrinks, and r rounds to pi/2 where s is below ulp/2."""
    n1 = np.where(upper, n - k, k)
    t = _invert_lower_fraction(n, n1, y)
    c = np.cos(t)
    s = np.sin(t)
    perimeter = 0.5 * _area(_start_table(n)[0][n1], n1, n - n1, c, s)  # area_rp

    def curvature() -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mean = _mean_curvature(n1, n - n1, s / c, c / s)  # infinite at the tiniest latitudes
        return np.where(upper, -mean, mean)

    return perimeter, np.where(upper, _HALF_PI - t, t), curvature


def _envelope(
    ambient_dim: int, volumes: np.ndarray, total: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower envelope over k of the tube perimeters at fixed volumes in RP^d,
    whose total volume is total.  The volumes must be in ascending order:
    the bounds between nodes below are chords and tangents between
    neighbouring volumes.

    Returns (best_k, perimeter, radius) arrays; ties pick the smallest k.
    The answers are those of np.argmin over every family solved at every
    volume, bit for bit, from far fewer radius solves.  Each P_k is concave
    in v: dP/dV = n H, and H decreases as r, and with it v, grows.  So on an
    interval between two volumes a and b, P_k lies above its chord and
    below both its end tangents.  Every family is solved at the nodes,
    every _NODE_STRIDE-th volume plus the last.  Between the nodes, family
    k is solved at v only when its chord is at most (1 + _PRUNE_MARGIN)
    times the smallest end tangent of any family, plus 1e-12 of the bounds'
    largest term for their rounding.  A family skipped at v lies above its
    chord, and so above the family of that tangent, by more than rounding:
    strictly above the lowest one, so ties still go to the smallest k.
    Each element is solved on its own, so the solved ones equal their
    entries in the full table.  The bounds are used only when some volume
    lies between nodes, and only then does it raise RuntimeError if some
    family's slope does not decrease over the nodes, since the bounds would
    not hold.  One or two volumes (profile_at's one, say) are all nodes:
    every family is solved at each, and nothing is bounded or tested.
    """
    n = ambient_dim - 1
    v = np.asarray(volumes, dtype=float)
    y, upper = _split(v, total)
    is_node = np.zeros(v.size, dtype=bool)
    is_node[::_NODE_STRIDE] = True
    is_node[-1] = True
    nodes = np.flatnonzero(is_node)
    inner = np.flatnonzero(~is_node)
    # Unsolved entries stay at inf and never win the argmin.
    perims = np.full((n + 1, v.size), np.inf)
    radii = np.zeros((n + 1, v.size))
    # Every family at every node, family by family.
    fam, col = np.divmod(np.arange((n + 1) * nodes.size), nodes.size)
    col = nodes[col]
    perims[fam, col], radii[fam, col], curvature = _tubes(n, fam, y[col], upper[col])
    # One or two volumes are all nodes, and no bound is used.
    if inner.size:
        slope = n * curvature().reshape(n + 1, nodes.size)
        with np.errstate(invalid="ignore", over="ignore"):
            if np.any(np.diff(slope, axis=1) > 1e-9 * np.abs(slope[:, :-1])):
                raise RuntimeError(
                    f"tube perimeter slopes increase with volume in ambient dimension "
                    f"{ambient_dim}: the perimeters are not concave, so no family can be skipped"
                )
            right = np.searchsorted(nodes, inner)
            left = right - 1
            x, va, vb = v[inner], v[nodes[left]], v[nodes[right]]
            pa, pb = perims[:, nodes[left]], perims[:, nodes[right]]
            ta = slope[:, left] * (x - va)
            tb = slope[:, right] * (x - vb)
            chord = pa + (pb - pa) * ((x - va) / (vb - va))
            cap = np.min(np.minimum(pa + ta, pb + tb), axis=0)
            slack = 1e-12 * np.max(pa + pb + np.abs(ta) + np.abs(tb), axis=0)
            # NaN or infinite bounds, at the tiniest latitudes, drop nothing.
            fam, col = np.nonzero(~(chord > (1.0 + _PRUNE_MARGIN) * cap + slack))
        if col.size:
            col = inner[col]
            perims[fam, col], radii[fam, col], _ = _tubes(n, fam, y[col], upper[col])
    best = np.argmin(perims, axis=0)
    cols = np.arange(v.size)
    return best, perims[best, cols], radii[best, cols]


def profile_at(
    ambient_dim: int, v: float, space: Space = Space.PROJECTIVE
) -> ProfilePoint:
    """Best tube boundary enclosing volume v among all core dimensions k,
    for v in (0, total) and at least sys.float_info.min of the total."""
    v = float(v)
    rp_v, total = _rp_volume(ambient_dim, v, space)
    best, perim, radius = _envelope(ambient_dim, np.array([rp_v]), total)
    return ProfilePoint(
        volume=v,
        perimeter=_cover(space) * float(perim[0]),
        best_k=int(best[0]),
        best_r=float(radius[0]),
    )


def _volume_grid(total: float, samples: int) -> np.ndarray:
    return total * (np.arange(1, samples + 1) / (samples + 1))


def _profile_columns(
    ambient_dim: int, samples: int, space: Space = Space.PROJECTIVE
) -> tuple[list[float], list[float], list[int], list[float]]:
    """The profile at samples interior volumes v_i = total * i/(samples+1)
    as the columns volume, perimeter, best_k and best_r, in ProfilePoint's
    field order: lists from one _envelope call, with the space's factor
    applied to volumes and perimeters."""
    _check_int("samples", samples, 2)
    cover = _cover(space)
    total = total_volume(ambient_dim)
    volumes = _volume_grid(total, samples)
    best, perims, radii = _envelope(ambient_dim, volumes, total)
    return (cover * volumes).tolist(), (cover * perims).tolist(), best.tolist(), radii.tolist()


def profile_curve(
    ambient_dim: int, samples: int, space: Space = Space.PROJECTIVE
) -> list[ProfilePoint]:
    """Profile sampled at samples interior volumes v_i = total * i/(samples+1):
    one ProfilePoint per row of _profile_columns."""
    return list(map(ProfilePoint, *_profile_columns(ambient_dim, samples, space)))


def transition_volumes(
    ambient_dim: int, space: Space = Space.PROJECTIVE
) -> list[tuple[int, int, float]]:
    """Envelope handoff volumes between adjacent tube families.

    The handoff from k to k + 1 is the root of the perimeter gap
    g(f) = P_k - P_{k+1} over the volume fraction f, which changes sign once
    on (0, 1), from - to +.  All n pairs are solved at once, each on its
    own: a bracketed Newton iteration that shares the radius solve's bracket
    step (_bracket) and retirement (_retire), with
    dg/df = V_total n (H_k - H_{k+1}) since dP/dV = n H, H the mean
    curvature.  Pair k starts halfway between (k + 1)/(n + 1) and 1/2, as
    the handoffs crowd toward half volume when n grows.  It is done with
    f + step once its step is at most _HANDOFF_TOL.  Near the root, from
    dimension 299 up, the rounding noise of g can send a step outside the
    bracket, and the pair then bisects.  So a handoff is settled to about
    1e-10 of the fraction, not to the 17 digits the CLI prints: at dimension
    150, radius changes of 6.4e-15 relative have moved handoffs by up to
    3.3e-11 relative.  Raises CrossingNotFound if a pair is not done after
    _MAX_HANDOFF_STEPS steps (a pair that never exchanges optimality ends
    there), if the handoff volumes do not strictly increase with k, or if at
    some handoff a third family lies below the pair: each would break the
    successive ordering.
    """
    cover = _cover(space)
    rp_total = total_volume(ambient_dim)
    n = ambient_dim - 1
    pairs = np.arange(n)
    f = 0.25 + 0.5 * (pairs + 1.0) / (n + 1.0)
    lo = np.zeros(n)
    hi = np.ones(n)
    out = np.empty(n)
    for _ in range(_MAX_HANDOFF_STEPS):
        # Family k then family k + 1 of each open pair, in one solve.
        y, upper = _split(np.concatenate([f, f]), 1.0)
        perim, _, curvature = _tubes(n, np.concatenate([pairs, pairs + 1]), y, upper)
        mean = curvature()
        gap = perim[: pairs.size] - perim[pairs.size :]
        step = -gap / (rp_total * n * (mean[: pairs.size] - mean[pairs.size :]))
        new, _, f, lo, hi = _bracket(f, step, gap < 0.0, lo, hi)
        pairs, f, lo, hi = _retire(out, np.abs(step) <= _HANDOFF_TOL, new, pairs, f, lo, hi)
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
    best = _envelope(ambient_dim, handoffs, rp_total)[0]
    for k, j in enumerate(best.tolist()):
        if j not in (k, k + 1):
            raise CrossingNotFound(
                f"family {j} lies below the handoff of k={k} and k={k + 1} "
                f"in ambient dimension {ambient_dim}"
            )
    return [(k, k + 1, cover * v) for k, v in enumerate(handoffs.tolist())]


def successive_check(ambient_dim: int, samples: int) -> bool:
    """True when the envelope's best k is nondecreasing in volume and every
    k from 0 to n appears: tube families hand off one after another.  Radii
    and best k are the same in both spaces, so there is one answer."""
    _check_int("samples", samples, 100)
    total = total_volume(ambient_dim)
    best, _, _ = _envelope(ambient_dim, _volume_grid(total, samples), total)
    if not np.all(np.diff(best) >= 0):
        return False
    return set(np.unique(best).tolist()) == set(range(ambient_dim))
