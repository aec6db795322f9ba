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
bit, whatever else shares a batch.  A batch of fewer than _FLOAT_BELOW
(32) elements (one radius, the n + 1 families of profile_at, each step of
the 2n handoff solves up to dimension 16) runs it one element at a time on
floats, through the float incomplete beta, and a larger one on arrays,
through the batched one, with the arithmetic shared and the same doubles
out; tests check that equality.  That solve is a bracketed Halley iteration
on the log of the volume fraction, or of its complement above half volume,
so radii keep their relative accuracy in both tails.  It stops on a
relative step of 1e-14, or one evaluation earlier once Halley's error
estimate for the step is below 1e-15 relative.  Above half volume the
tube of family k is the complement of a tube of the mirror family n - k, so
every element inverts the lower fraction of one family j in 0..n, and starts
from row j of a table of the inverse cached per dimension, so on the
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
iteration of the same shape for all adjacent pairs at once, one radius
solve per step, then checked to increase in k and to lie on the lower
envelope.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clifford import CliffordShape, _area, _mean_curvature, area_rp
from .specfn import _betainc_xc, _betainc_xc_vec, _check_int, _log_beta_norm
from .specfn import sphere_area

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
# most _HANDOFF_TOL or its bracket has closed to 4 ulp.  It raises
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
    return _cover(space) * (0.5 * sphere_area(ambient_dim))


def _cover(space: Space) -> float:
    if not isinstance(space, Space):
        raise ValueError(f"space must be a Space, got {space!r}")
    return _COVER[space]


def _rp_volume(ambient_dim: int, v: float, space: Space) -> tuple[float, float]:
    """The volume v of the given space in RP^d units, once it is checked to
    lie in (0, total) at an RP^d fraction of at least sys.float_info.min,
    and the RP^d total."""
    rp_total = total_volume(ambient_dim)
    total = _cover(space) * rp_total
    if not (0.0 < v < total):
        raise ValueError(f"volume must lie in (0, {total}), got {v}")
    rp_v = v / _cover(space)
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
    frac = float(_betainc_xc(s * s, c * c, a, b, _log_beta_norm(a, b)[1]))
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
    batched solve on one element.  The radius is correctly rounded, so
    within ulp/2 of the total, where the mirror latitude pi/2 - r is below
    ulp(pi/2)/2, it is exactly pi/2 (for TubeFamily(10, 0) at
    nextafter(total, 0), say), and tube_perimeter refuses it; profile_at
    evaluates the perimeter through the mirror latitude and keeps it."""
    rp_v, total = _rp_volume(fam.ambient_dim, float(v), fam.space)
    return float(_radii_for_fractions(fam.n, fam.k, np.array([rp_v]), total)[0])


def _radii_for_fractions(
    n: int, k: int | np.ndarray, v_frac: np.ndarray, total: float = 1.0
) -> np.ndarray:
    """Latitudes enclosing the volumes v_frac, each in (0, total), of tube
    family k: an int, or an int array with one family per element.  With
    the default total they are volume fractions."""
    y, upper = _split(np.asarray(v_frac, dtype=float), total)
    t = _invert_lower_fraction(n, np.where(upper, n - k, k), y)
    return np.where(upper, _HALF_PI - t, t)


def _split(v: np.ndarray, total: float) -> tuple[np.ndarray, np.ndarray]:
    """(y, upper) for volumes v in (0, total): upper marks v / total > 1/2,
    and y is v / total below that and (total - v) / total above, where the
    difference is exact, so the complement keeps its relative accuracy."""
    frac = v / total
    upper = frac > 0.5
    return np.where(upper, (total - v) / total, frac), upper


@functools.lru_cache(maxsize=64)
def _start_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constants of the radius solve in dimension n, one row per mirror
    family j = 0..n, whose lower fraction is I(p, q) with p = (n - j + 1)/2
    and q = (j + 1)/2: the per-row log B(p, q), log(1 / B(p, q)) and start
    scale (p B(p, q))^(1/(2p)), and, flattened row by row over the
    latitudes t of _START_NODES, the complex search keys j + i log I and
    the slopes d log t / d log I = I / (t I') of the inverse.  A node whose
    I underflows has log I = -inf, and one whose slope overflows (the high
    rows from dimension 236 on) an infinite slope; _table_start starts
    neither from them.  All rows come from one _betainc_xc_vec call on the
    first touch of a dimension, since every envelope and handoff call needs
    all rows: about 10 ms at dimension 150 against about 1.4 ms for one row
    (Intel Xeon, numpy 2.4).  A pure function of n, memoised: the cache can
    change no result.  The arrays are read-only."""
    j = np.arange(n + 1)
    p = 0.5 * (n + 1 - j)
    q = 0.5 * (j + 1)
    ln_beta, ln_norm = _log_beta_norm(p, q)
    scale = np.exp(0.5 * (np.log(p) + ln_beta) / p)
    s = np.sin(_START_NODES)
    c = np.cos(_START_NODES)
    a, b, norm = np.repeat([p, q, ln_norm], _START_NODES.size, axis=1)
    with np.errstate(divide="ignore"):  # log 0 where I underflows
        frac = _betainc_xc_vec(np.tile(s * s, n + 1), np.tile(c * c, n + 1), a, b, norm)
        log_y = np.log(frac).reshape(n + 1, -1)
    log_slope = _LN_2 + (n - j)[:, None] * np.log(s) + j[:, None] * np.log(c) - ln_beta[:, None]
    with np.errstate(over="ignore"):
        slopes = np.exp(log_y - _LOG_NODES - log_slope).ravel()
    # Set by parts, since 1j * -inf has a NaN real part.
    keys = np.empty(log_y.shape, dtype=complex)
    keys.real = j[:, None]
    keys.imag = log_y
    tables = ln_beta, ln_norm, scale, keys.ravel(), slopes
    for table in tables:
        table.flags.writeable = False
    return tables


def _asymptote(n: int, root, scale) -> tuple:
    """The start t = (y p B(p, q))^(1/(2p)) = root * scale capped at 1.2,
    from root = y^(1/(2p)), and whether t is the root, within 1e-16 / (2p)
    relative since (p + q) t^2 < 1e-16.  Floats or arrays; root is np.power
    with an exponent array, since a float exponent of 1/2 takes a
    square-root path that rounds differently."""
    t = np.minimum(root * scale, 1.2)
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


def _table_start(
    keys: np.ndarray, slopes: np.ndarray, row: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Start latitudes for the lower fraction I_{sin^2 t}(p, q) = y of
    mirror family row[i], from the flattened search keys and slopes of
    _start_table: _hermite on the interval that holds log y, or the last
    one above the last node, clipped into (0, pi/2).  NaN below the first
    node whose I is positive, and where _hermite is not finite.  Each
    element's start depends only on its own y and row."""
    u = np.log(y)
    size = _START_NODES.size
    # One search over all rows: the keys sort by row, then by log y.
    pos = np.searchsorted(keys, row + 1j * u, side="right") - row * size
    i = np.clip(pos - 1, 0, size - 2)
    at = row * size + i
    log_y = keys.imag
    log_t = _hermite(
        u, log_y[at], log_y[at + 1], _LOG_NODES[i], _LOG_NODES[i + 1], slopes[at], slopes[at + 1]
    )
    t = np.clip(np.exp(log_t), sys.float_info.min, _T_MAX)
    return np.where((pos > 0) & np.isfinite(log_t), t, np.nan)


def _halley(pm, j, s, c, frac, y, ln_beta) -> tuple:
    """(Newton step, f''/f', Halley step) at s = sin t, c = cos t of mirror
    family j, pm = n - j, with frac = I and ln_beta = log B(p, q); the
    Halley step may not be finite.  Floats or arrays."""
    log_slope = _LN_2 + pm * np.log(s) + j * np.log(c) - ln_beta
    inv_slope = np.exp(np.log(frac) - log_slope)  # 1 / f'
    newton = -np.log(frac / y) * inv_slope
    curv = pm * c / s - j * s / c - 1.0 / inv_slope
    return newton, curv, newton / (1.0 + 0.5 * newton * curv)


def _unconverged(n: int, rows: list[int]) -> RuntimeError:
    return RuntimeError(
        f"volume Halley solve not converged after {_MAX_RADIUS_STEPS} steps "
        f"in dimension n={n} for mirror families j={sorted(set(rows))}"
    )


def _invert_lower_fraction(n: int, row: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Latitudes t in (0, pi/2) with I_{sin^2 t}(p, q) = y, for y in (0, 1/2],
    where element i belongs to the mirror family j = row[i] of dimension n:
    p = (n - j + 1)/2 and q = (j + 1)/2, so 2p - 1 = n - j and 2q - 1 = j
    exactly, and p + q = (n + 2)/2.  Tube family k at a volume fraction up
    to 1/2 is row j = k at y = that fraction, and t is its latitude r.
    Above half it is the mirror row j = n - k at the complement fraction,
    and t is s = pi/2 - r, which solves I_{sin^2 s}((k + 1)/2,
    (n - k + 1)/2) = y: so both tails keep their relative accuracy.

    Bracketed Halley iteration (rtsafe, Numerical Recipes 9.4, with a
    third-order step) on f = log I_{sin^2 t}(p, q) - log y.  Its slope is
    f' = I'/I with I' = 2 sin^(2p-1) t cos^(2q-1) t / B(p, q), and
    f''/f' = (2p - 1) cot t - (2q - 1) tan t - I'/I, so the Halley step
    newton / (1 + newton f''/(2 f')) costs a few operations over Newton's
    (_halley); where it is not finite, the Newton step is taken.  An
    element whose small-radius asymptote is already exact takes it as the
    answer (_asymptote); that also covers the fractions for which sin^2 t
    underflows.  Every other element starts from its row of the
    dimension's _start_table (_hermite), or, below the row's first
    positive node and wherever the table gives nothing finite, from the
    asymptote capped at 1.2.  The tables are memoised by a bounded
    lru_cache, which only saves rebuilding a pure function of n, so it can
    change no result; each element's start depends only on its own
    (y, row).  It then keeps its own bracket inside [0, pi/2] and bisects
    only when a step leaves it.  An element is done with t + step once the
    step moves t by at most _RADIUS_RTOL * t, or, without a confirming
    evaluation, once t + step lies in the bracket and |step| / t and
    |step f''/f'| are both at most _HALLEY_RTOL, which puts Halley's error
    estimate |step| (step f''/f')^2 below 1e-15 t.  The first test skips
    the bracket test, since a converged step may land on a bracket end.
    Raises RuntimeError, naming the mirror families left, when an element
    is not done after _MAX_RADIUS_STEPS steps.

    The arithmetic above is written once and the loop control twice, as
    for the incomplete beta: a batch of fewer than _FLOAT_BELOW elements
    is solved one element at a time on floats (_invert_one), where numpy's
    per-call overhead would cost more than the arithmetic.  A larger one
    runs on arrays below: every element steps at once, and the loop drops
    elements from its state only on the steps where some finish.  Both
    return the same doubles and raise the same error, which the tests
    check bit for bit.
    """
    if y.size < _FLOAT_BELOW:
        rows = row.tolist()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = [_invert_one(n, j, v) for j, v in zip(rows, y.tolist())]
        if None in out:
            raise _unconverged(n, [j for j, t in zip(rows, out) if t is None])
        return np.array(out, dtype=float)
    ln_beta, ln_norm, scale, keys, slopes = _start_table(n)
    p = 0.5 * (n + 1 - row)
    t, exact = _asymptote(n, np.power(y, 0.5 / p), scale[row])
    out = np.where(exact, t, np.nan)
    idx = np.nonzero(~exact)[0]
    t, y, row = t[idx], y[idx], row[idx]
    lo = np.zeros(idx.shape)
    hi = np.full(idx.shape, _HALF_PI)
    steps = 0
    # A fraction that underflows to 0 gives a NaN step, which bisects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = _table_start(keys, slopes, row, y)
        t = np.where(np.isnan(start), t, start)
        while idx.size:
            if steps == _MAX_RADIUS_STEPS:
                raise _unconverged(n, row.tolist())
            steps += 1
            pm = n - row
            s = np.sin(t)
            c = np.cos(t)
            frac = _betainc_xc_vec(s * s, c * c, 0.5 * (pm + 1), 0.5 * (row + 1), ln_norm[row])
            newton, curv, step = _halley(pm, row, s, c, frac, y, ln_beta[row])
            step = np.where(np.isfinite(step), step, newton)
            below = frac < y
            lo = np.where(below, t, lo)
            hi = np.where(below, hi, t)
            new = t + step
            inside = (new > lo) & (new < hi)
            size = np.abs(step)
            done = (size <= _RADIUS_RTOL * t) | (
                inside & (size <= _HALLEY_RTOL * t) & (np.abs(step * curv) <= _HALLEY_RTOL)
            )
            t = np.where(inside, new, 0.5 * (lo + hi))
            if done.any():
                out[idx[done]] = new[done]
                keep = ~done
                idx, t, y, lo, hi, row = (v[keep] for v in (idx, t, y, lo, hi, row))
    return out


def _invert_one(n: int, j: int, y: float) -> float | None:
    """The float driver of _invert_lower_fraction on one element, of
    mirror family j; None when it is not done after _MAX_RADIUS_STEPS
    steps."""
    ln_beta, ln_norm, scale, keys, slopes = _start_table(n)
    p = 0.5 * (n + 1 - j)
    t, exact = _asymptote(n, np.power(y, np.array([0.5 / p]))[0], scale[j])
    if exact:
        return t
    # _table_start on one element, with the search confined to row j.
    u = np.log(y)
    nodes = _START_NODES.size
    log_y = keys.imag
    pos = bisect.bisect_right(log_y, u, j * nodes, (j + 1) * nodes) - j * nodes
    if pos > 0:
        i = min(pos - 1, nodes - 2)
        at = j * nodes + i
        ends = log_y[at], log_y[at + 1], _LOG_NODES[i], _LOG_NODES[i + 1]
        log_t = _hermite(u, *ends, slopes[at], slopes[at + 1])
        if math.isfinite(log_t):
            t = min(max(np.exp(log_t), sys.float_info.min), _T_MAX)
    pm = n - j
    a, b = 0.5 * (pm + 1), 0.5 * (j + 1)
    ln_beta, ln_norm = ln_beta[j], ln_norm[j]
    lo, hi = 0.0, _HALF_PI
    for _ in range(_MAX_RADIUS_STEPS):
        s, c = np.sin(t), np.cos(t)
        frac = _betainc_xc(s * s, c * c, a, b, ln_norm)
        newton, curv, step = _halley(pm, j, s, c, frac, y, ln_beta)
        if not math.isfinite(step):
            step = newton
        lo, hi = (t, hi) if frac < y else (lo, t)
        new = t + step
        inside = lo < new < hi
        size = abs(step)
        if size <= _RADIUS_RTOL * t or (
            inside and size <= _HALLEY_RTOL * t and abs(step * curv) <= _HALLEY_RTOL
        ):
            return new
        t = new if inside else 0.5 * (lo + hi)
    return None


def _tubes(
    n: int, k: np.ndarray, y: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(perimeter, radius, mean curvature) in RP^(n+1) of tube family k[i]
    at tail fraction y[i], as _split gives them.  Above half volume family
    k is solved as its mirror row n - k (see _invert_lower_fraction) and
    evaluated through its mirror shape S^(n-k)(cos s) x S^k(sin s), the
    same hypersurface at the solved latitude s = pi/2 - r: its area is the
    tube's, and its mean curvature is the tube's negated.  Evaluating
    cos r = sin s from r itself would cost the tube's area its relative
    accuracy as s shrinks, and r rounds to pi/2 where s is below ulp/2."""
    n1 = np.where(upper, n - k, k)
    t = _invert_lower_fraction(n, n1, y)
    c = np.cos(t)
    s = np.sin(t)
    perimeter = 0.5 * _area(n1, n - n1, c, s)  # area_rp
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mean = _mean_curvature(n1, n - n1, s / c, c / s)  # infinite at the tiniest latitudes
    return perimeter, np.where(upper, _HALF_PI - t, t), np.where(upper, -mean, mean)


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
    every _NODE_STRIDE-th volume plus the last; raises RuntimeError if some
    family's slope there does not decrease, since the bounds would then not
    hold.  Between the nodes, family k is solved at v only when its chord
    is at most (1 + _PRUNE_MARGIN) times the smallest end tangent of any
    family, plus 1e-12 of the bounds' largest term for their rounding.  A
    family skipped at v lies above its chord, and so above the family of
    that tangent, by more than rounding: strictly above the lowest one, so
    ties still go to the smallest k.  Each element is solved on its own, so
    the solved ones equal their entries in the full table.
    """
    n = ambient_dim - 1
    v = np.asarray(volumes, dtype=float)
    y, upper = _split(v, total)
    is_node = np.zeros(v.size, dtype=bool)
    is_node[::_NODE_STRIDE] = True
    is_node[-1] = True
    nodes = np.flatnonzero(is_node)
    # Unsolved entries stay at inf and never win the argmin.
    perims = np.full((n + 1, v.size), np.inf)
    radii = np.zeros((n + 1, v.size))
    fam = np.repeat(np.arange(n + 1), nodes.size)
    col = np.tile(nodes, n + 1)
    perims[fam, col], radii[fam, col], mean = _tubes(n, fam, y[col], upper[col])
    slope = n * mean.reshape(n + 1, nodes.size)
    with np.errstate(invalid="ignore", over="ignore"):
        if np.any(np.diff(slope, axis=1) > 1e-9 * np.abs(slope[:, :-1])):
            raise RuntimeError(
                f"tube perimeter slopes increase with volume in ambient dimension "
                f"{ambient_dim}: the perimeters are not concave, so no family can be skipped"
            )
        inner = np.flatnonzero(~is_node)
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
    g(f) = P_k - P_{k+1} over the volume fraction f, which changes sign
    once on (0, 1), from - to +.  All n pairs are solved at once, each on
    its own: a bracketed Newton iteration in the form of the radius solve,
    with dg/df = V_total n (H_k - H_{k+1}) since dP/dV = n H, H the mean
    curvature.  Pair k starts halfway between (k + 1)/(n + 1) and 1/2, as
    the handoffs crowd toward half volume when n grows.  It is done once
    its step is at most _HANDOFF_TOL, or once its bracket has closed to
    4 ulp, for dimensions where the rounding noise of g keeps the step
    above the tolerance.  So a handoff is settled to about 1e-10 of the
    fraction, not to the 17 digits the CLI prints: at dimension 150, radius
    changes of 6.4e-15 relative have moved handoffs by up to 3.3e-11
    relative.  Raises CrossingNotFound if a pair is not done after
    _MAX_HANDOFF_STEPS steps (a pair that never exchanges optimality ends
    there), if the handoff volumes do not strictly increase with k, or if
    at some handoff a third family lies below the pair: each would break
    the successive ordering.
    """
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
        perim, _, mean = _tubes(n, np.concatenate([pairs, pairs + 1]), y, upper)
        gap = perim[: pairs.size] - perim[pairs.size :]
        slope = mean[: pairs.size] - mean[pairs.size :]
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
    best = _envelope(ambient_dim, handoffs, rp_total)[0]
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
    total = total_volume(ambient_dim)
    best, _, _ = _envelope(ambient_dim, _volume_grid(total, samples), total)
    if not np.all(np.diff(best) >= 0):
        return False
    return set(np.unique(best).tolist()) == set(range(ambient_dim))
