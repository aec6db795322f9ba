"""Special functions and adaptive quadrature.

Self-contained double-precision building blocks for the geometry modules:
sphere surface areas, log-gamma (fixed Lanczos coefficient table), trigamma
(recurrence shift plus asymptotic tail), the regularized incomplete beta
function (Lentz continued fraction with the usual symmetry switch), and an
adaptive Gauss-Legendre integrator for cos^a(t) sin^b(t) integrands.

Everything here is deterministic and depends only on ``math`` and ``numpy``,
and each formula is written once for a scalar and for an array, so a scalar
call returns the same double as the matching element of any batch.
log_gamma and trigamma take a float or a 1-D array; a float runs an
element's steps.  The incomplete beta has two paths over one prefactor
and reflection (_front): the float element _betainc_xc, with the
continued fraction _betacf, which the scalar entry points run, and the
array pass _betainc_xc_vec, with _betacf_vec, which runs every batch,
whatever its size.  Both take one normaliser, _log_norm(a, b) =
log(1 / B(a, b)), the double the prefactor uses; cossin_integral_closed
takes B as its exp(-ln_norm) and the radius solve's slope adds it, so no
caller holds a second one.  Each kernel writes the Lentz update once,
over the iteration's two partial numerators.  _betacf_vec retires each
element at the iteration where it converges and gathers the active ones
into shorter arrays once at most half are left, so it computes little
more than each element's own iterations.  The quadrature refines all its
integrals together, level by level, and a scalar call is the batch on
one element.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "sphere_area",
    "log_gamma",
    "trigamma",
    "reg_inc_beta",
    "cossin_integral",
    "cossin_integral_closed",
]

_HALF_PI = 0.5 * math.pi
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos approximation, g = 7, 9 coefficients.  Relative error of the
# resulting log-gamma is a few 1e-15 across [0.5, 200].  Below x ~ 0.1 it
# degrades, and it divides by zero once (x - 1) + 1 rounds to 0, so
# log_gamma reaches x < 0.5 through the recurrence instead.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Bernoulli numbers B_2 .. B_14 divided into the asymptotic trigamma tail
# psi'(x) ~ 1/x + 1/(2 x^2) + sum_k B_2k x^(-2k-1).
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

# Shift threshold for the trigamma recurrence.  At x >= 10 the truncated
# asymptotic series is accurate to ~1e-16 relative.
_TRIGAMMA_SHIFT = 10.0

_CF_EPS = 3.0e-16
_CF_TINY = 1.0e-300
_CF_MAX_ITER = 300


def _check_int(
    name: str, value: int, minimum: int | None = None, maximum: int | None = None
) -> None:
    """Raise ValueError unless value is an int (not a bool) and, when the
    bounds are given, at least minimum and at most maximum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within the depth budget."""


# Error control for cossin_integral: a panel is accepted once refining it
# changes its estimate by at most _QUAD_REL_TOL of itself or its share of
# _QUAD_REL_TOL times its integral's first estimate, so every tolerance is
# relative; one still open at depth _QUAD_MAX_DEPTH raises QuadratureError.
_QUAD_REL_TOL = 1e-12
_QUAD_MAX_DEPTH = 40


def log_gamma(x: float | np.ndarray) -> float | np.ndarray:
    """Natural logarithm of the Gamma function for finite x > 0, a float or
    a 1-D array.  A float runs an element's steps: its + - * / on Python
    floats, which round as numpy's do, and its logs through np.log; it
    comes back a float, so array and scalar calls agree bit for bit.

    Lanczos rational approximation for x >= 0.5.  Below that,
    ln Gamma(x) = ln Gamma(x + 1) - ln x keeps the relative error within
    1e-13 down to the smallest positive double; no reflection branch is
    needed because the argument is restricted to the positive axis.
    """
    if isinstance(x, np.ndarray):
        t = np.array(x, dtype=float)
        valid = t.ndim <= 1 and ((t > 0.0) & (t < math.inf)).all()
    else:
        t = float(x)
        valid = 0.0 < t < math.inf
    if not valid:
        raise ValueError(f"log_gamma requires a float or 1-D array of finite x > 0, got {x}")
    # Elements at or above 0.5 add 0 and subtract 0 * ln x, exactly.
    small = t < 0.5
    z = (t + small) - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc = acc + _LANCZOS[i] / (z + i)
    u = z + 7.5
    with np.errstate(over="ignore"):  # ln Gamma(x) is inf above x ~ 2.5e305
        out = _HALF_LN_2PI + (z + 0.5) * np.log(u) - u + np.log(acc) - small * np.log(t)
    return out if isinstance(x, np.ndarray) else float(out)


def _log_norm(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """log(1 / B(a, b)), the incomplete beta's one normaliser, for floats a
    and b or 1-D arrays of one shape, from one log_gamma each of a + b, a
    and b; B(a, b) itself is exp(-_log_norm(a, b))."""
    return log_gamma(a + b) - log_gamma(a) - log_gamma(b)


def sphere_area(d: int) -> float:
    """Surface area of the unit d-sphere, 2 pi^((d+1)/2) / Gamma((d+1)/2).

    The d = 0 sphere is the two-point set, area 2.  Equal bit for bit to
    np.exp(_log_sphere_area(ds)) at d, the table of an int array ds.
    """
    _check_int("dimension", d, 0)
    return float(np.exp(_log_sphere_area(d)))


def _log_sphere_area(d: int | np.ndarray) -> float | np.ndarray:
    """log |S^d| for an int or a 1-D int array, finite where |S^d| itself
    underflows (d above about 400)."""
    half = 0.5 * (d + 1)
    return _LN_2 + half * _LN_PI - log_gamma(half)


def trigamma(x: float | np.ndarray) -> float | np.ndarray:
    """Trigamma function psi'(x) = sum_{l>=0} 1/(x+l)^2 for x > 0, a float
    or a 1-D array; a float takes an element's numpy steps (+ - * / only)
    and comes back a float, so array and scalar calls agree bit for bit.

    Upward recurrence psi'(x) = psi'(x+1) + 1/x^2 shifts each argument to
    x >= 10, where the Bernoulli asymptotic tail is applied.  Absolute
    error stays below 1e-12 on (0, 60]; the floor is set by rounding of
    the dominant 1/x^2 term at small arguments.  Below x ~ 7.5e-155 the
    value overflows and inf is returned.
    """
    t = np.array(x, dtype=float) if isinstance(x, np.ndarray) else np.float64(float(x))
    if t.ndim > 1 or not (t > 0.0).all():
        raise ValueError(f"trigamma requires a float or 1-D array of x > 0, got {x}")
    with np.errstate(divide="ignore", over="ignore"):  # 1/x^2 overflows to inf
        acc = 0.0
        # Elements already at the threshold add 0.0 and stay put, exactly.
        while (low := t < _TRIGAMMA_SHIFT).any():
            acc += low * (1.0 / (t * t))
            t = t + low
        inv2 = 1.0 / (t * t)
        tail = 1.0 / t + 0.5 * inv2
        power = inv2 / t
        for coeff in _TRIGAMMA_TAIL:
            tail += coeff * power
            power *= inv2
        out = acc + tail
    return out if isinstance(x, np.ndarray) else float(out)


def _betacf(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the incomplete-beta continued fraction.  Each
    iteration computes its two partial numerators, the even and the odd
    (Press et al., Numerical Recipes, 3rd ed., section 6.4), and writes
    the Lentz update once, applied to each in turn; it stops on the odd
    one's delta."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    # m as a float, the same value, which pays for the inner loop.
    for m in map(float, range(1, _CF_MAX_ITER + 1)):
        m2 = 2.0 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + aa / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _betacf_vec(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_betacf on 1-D arrays: a and b are the shape of x, with one (a, b)
    per element, and none of the three is written.  An element retires at
    the iteration where it converges, and its h goes to the output then;
    once at most half of the arrays are still active, the active elements
    are gathered into shorter ones, so a converged element soon stops
    costing anything.  Each iteration computes its two partial numerators
    into their own buffers and writes the Lentz update once, over both, in
    place on preallocated buffers, with _betacf's operations in _betacf's
    order; the fraction uses only + - * /, so each element equals _betacf
    on it bit for bit.  Raises RuntimeError naming the (a, b, x) of every
    element not converged after _CF_MAX_ITER iterations."""
    out = np.empty(x.size)
    if not x.size:
        return out
    idx = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    _tiny_floor(d, np.abs(d))
    d = 1.0 / d
    h = d.copy()
    a2m, even, odd, den, tmp = (np.empty_like(x) for _ in range(5))
    done, active = np.empty(x.size, dtype=bool), np.ones(x.size, dtype=bool)
    left = x.size
    # m as a float, the same value, since numpy takes a float operand faster.
    for m in map(float, range(1, _CF_MAX_ITER + 1)):
        m2 = 2.0 * m
        np.add(a, m2, out=a2m)
        # even = m * (b - m) * x / ((qam + m2) * (a + m2))
        np.subtract(b, m, out=even)
        even *= m
        even *= x
        np.add(qam, m2, out=den)
        den *= a2m
        even /= den
        # odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), where
        # -m - a is -(a + m) exactly, since IEEE rounding is symmetric in sign.
        np.subtract(-m, a, out=odd)
        np.add(qab, m, out=den)
        odd *= den
        odd *= x
        np.add(qap, m2, out=den)
        np.multiply(a2m, den, out=den)
        odd /= den
        for aa in (even, odd):
            d *= aa
            d += 1.0
            _tiny_floor(d, np.abs(d, out=tmp))
            np.divide(aa, c, out=c)
            c += 1.0
            _tiny_floor(c, np.abs(c, out=tmp))
            np.divide(1.0, d, out=d)
            np.multiply(d, c, out=tmp)  # delta
            h *= tmp
        tmp -= 1.0
        np.less(np.abs(tmp, out=tmp), _CF_EPS, out=done)
        done &= active
        retired = np.count_nonzero(done)
        if not retired:
            continue
        out[idx[done]] = h[done]
        active ^= done
        left -= retired
        if not left:
            return out
        if 2 * left <= idx.size:
            state = idx, a, b, x, qab, qap, qam, c, d, h
            idx, a, b, x, qab, qap, qam, c, d, h = (v[active] for v in state)
            a2m, even, odd, den, tmp = (v[:left] for v in (a2m, even, odd, den, tmp))
            done, active = done[:left], np.ones(left, dtype=bool)
    rest = ", ".join(
        f"(a={p}, b={q}, x={t})"
        for p, q, t in zip(a[active].tolist(), b[active].tolist(), x[active].tolist())
    )
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge for {left} of "
        f"{out.size} elements: {rest}"
    )


def _tiny_floor(v: np.ndarray, size: np.ndarray) -> None:
    """Set the elements of v whose magnitude, size, is below _CF_TINY to
    _CF_TINY, in place: the whole array is tested, only those assigned."""
    if np.minimum.reduce(size) < _CF_TINY:
        v[size < _CF_TINY] = _CF_TINY


def _front(x, xc, a, b, ln_norm):
    """The incomplete beta's prefactor x^a xc^b / B(a, b), with ln_norm =
    log(1 / B(a, b)), and whether x lies below the mean, where the
    continued fraction converges fast; the other elements run on the
    reflection I_x(a, b) = 1 - I_xc(b, a).  Floats or arrays of one shape:
    the arithmetic of _betainc_xc and _betainc_xc_vec, written once."""
    return np.exp(ln_norm + a * np.log(x) + b * np.log(xc)), x < (a + 1.0) / (a + b + 2.0)


def _betainc_xc(x: float, xc: float, a: float, b: float, ln_norm: float) -> float:
    """One element of _betainc_xc_vec on floats, bit for bit: the
    prefactor of _front, then _betacf on (a, b, x), or on (b, a, xc) for a
    reflected element."""
    if x <= 0.0:
        return 0.0
    if xc <= 0.0:
        return 1.0
    front, lower = _front(x, xc, a, b, ln_norm)
    if lower:
        return front * _betacf(a, b, float(x)) / a
    return 1.0 - front * _betacf(b, a, float(xc)) / b


def _betainc_xc_vec(x: np.ndarray, xc: np.ndarray, a, b, ln_norm) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) per element, with the
    complement xc = 1 - x supplied by the caller.  Passing an independently
    computed complement (for example cos^2 r alongside sin^2 r) preserves
    accuracy near x = 1.  a, b and ln_norm = _log_norm(a, b) = log(1 /
    B(a, b)), the one normaliser its callers hold, are floats, or arrays
    the shape of x.

    One array pass for every batch, whatever its size: elements past the
    mean run on the reflection (see _front), and all elements share one
    continued-fraction call, with (a, b, x) swapped for (b, a, xc) per
    reflected element, which leaves each element's arithmetic that of
    _betainc_xc.  So every element equals _betainc_xc on it bit for bit."""
    x = np.asarray(x, dtype=float)
    xc = np.asarray(xc, dtype=float)
    empty = x <= 0.0
    out = np.where(empty, 0.0, 1.0)
    mid = ~(empty | (xc <= 0.0))
    with np.errstate(divide="ignore"):  # log 0 at the endpoints, overwritten below
        front, lower = _front(x, xc, a, b, ln_norm)
    flip = mid & ~lower
    a, b, x = np.where(flip, b, a), np.where(flip, a, b), np.where(flip, xc, x)
    # An endpoint runs the fraction at 0, where it stops at once.
    part = front * _betacf_vec(a, b, np.where(mid, x, 0.0)) / a
    return np.where(mid, np.where(flip, 1.0 - part, part), out)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for x in [0, 1].

    Continued fraction applied on whichever side of the mean keeps it
    rapidly convergent; the two branches are glued by the reflection
    I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    x = float(x)
    a = float(a)
    b = float(b)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"reg_inc_beta requires a > 0, got {a}")
    if not (b > 0.0 and math.isfinite(b)):
        raise ValueError(f"reg_inc_beta requires b > 0, got {b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got {x}")
    return float(_betainc_xc(x, 1.0 - x, a, b, _log_norm(a, b)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _cossin_args(n1, n2, r) -> tuple:
    """The exponents and radii of integrals of cos^n1 sin^n2 over [0, r],
    checked: ints and a float, or int and float arrays of one shape, with
    n1, n2 >= 0 and r in [0, pi/2].  Returned as ints and a float, or as
    arrays."""
    if not isinstance(r, np.ndarray):
        _check_int("n1", n1, 0)
        _check_int("n2", n2, 0)
        r = float(r)
        if not (0.0 <= r <= _HALF_PI):
            raise ValueError(f"radius must lie in [0, pi/2], got {r}")
        return n1, n2, r
    n1, n2, r = np.asarray(n1), np.asarray(n2), np.asarray(r, dtype=float)
    ints = all(np.issubdtype(n.dtype, np.integer) for n in (n1, n2))
    if not (ints and n1.shape == n2.shape == r.shape and (n1 >= 0).all() and (n2 >= 0).all()):
        raise ValueError("n1 and n2 must be integer arrays >= 0 of the shape of r")
    outside = ~((0.0 <= r) & (r <= _HALF_PI))
    if outside.any():
        raise ValueError(f"radius must lie in [0, pi/2], got {r[outside][0]}")
    return n1, n2, r


def _int_power(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x**e per element for ints e >= 0 broadcasting against x, by repeated
    squaring.  Products round the same whatever shares the array; np.power
    does not, since its SIMD and strided loops round differently (x86-64
    with AVX-512, numpy 2.4)."""
    out = np.ones_like(x)
    while e.any():
        out = np.where(e & 1, out * x, out)
        e = e >> 1
        x = x * x
    return out


def _gl_panels(n1: np.ndarray, n2: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fixed-order Gauss-Legendre estimates of the integral of
    cos^n1 sin^n2 over [a, b], per element: one row per node, summed row by
    row, so each estimate depends only on its own panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid + half * _GL_NODES[:, None]
    vals = _GL_WEIGHTS[:, None] * (_int_power(np.cos(t), n1) * _int_power(np.sin(t), n2))
    return half * sum(vals)


def cossin_integral(
    n1: int | np.ndarray, n2: int | np.ndarray, r: float | np.ndarray
) -> float | np.ndarray:
    """Integral of cos^n1(t) sin^n2(t) over [0, r] by adaptive quadrature.

    Takes ints n1, n2 >= 0 and 0 <= r <= pi/2, or int and float arrays of
    one shape, one integral per element.  All integrals are refined
    together, level by level: each level evaluates both halves of every
    open panel in one pass, accepts a panel once its halves change its
    estimate by at most _QUAD_REL_TOL of itself or its share (halved per
    level) of _QUAD_REL_TOL times its integral's first estimate, and splits
    the rest.  Each integral is the sum of its accepted panels, added level
    by level and left to right, so a scalar call, the batch on one element,
    equals the matching element of any batch bit for bit.  Raises
    QuadratureError if a panel is still open at depth _QUAD_MAX_DEPTH.
    """
    scalar = not isinstance(r, np.ndarray)
    n1, n2, r = _cossin_args(n1, n2, r)
    shape = np.shape(r)
    n1, n2, r = np.ravel(n1), np.ravel(n2), np.ravel(r)
    out = np.zeros(r.size)
    # Open panels: the integral each belongs to, its ends and its estimate.
    owner = np.arange(r.size)
    a = np.zeros(r.size)
    b = r
    whole = _gl_panels(n1, n2, a, b)
    tol = _QUAD_REL_TOL * np.abs(whole)
    depth = 1
    while True:
        # Both halves of every open panel in one pass, the left ones first.
        mid = 0.5 * (a + b)
        ends = np.concatenate([a, mid]), np.concatenate([mid, b])
        left, right = np.split(_gl_panels(np.tile(n1[owner], 2), np.tile(n2[owner], 2), *ends), 2)
        better = left + right
        change = np.abs(better - whole)
        done = change <= np.maximum(tol[owner], _QUAD_REL_TOL * np.abs(better))
        np.add.at(out, owner[done], better[done])
        if done.all():
            return float(out[0]) if scalar else out.reshape(shape)
        if depth >= _QUAD_MAX_DEPTH:
            i = np.flatnonzero(~done)[0]
            k = owner[i]
            raise QuadratureError(
                f"cossin_integral({n1[k]}, {n2[k]}, {r[k]}): panel [{a[i]}, {b[i]}] did not "
                f"converge at depth {depth} (estimate change {change[i]:.3e})"
            )
        # Each open panel becomes its left then its right half.
        keep = ~done
        owner = np.repeat(owner[keep], 2)
        a, mid, b = a[keep], mid[keep], b[keep]
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
        whole = np.column_stack((left[keep], right[keep])).ravel()
        tol *= 0.5
        depth += 1


def cossin_integral_closed(
    n1: int | np.ndarray, n2: int | np.ndarray, r: float | np.ndarray
) -> float | np.ndarray:
    """Closed form of the same integral:

        (1/2) B((n2+1)/2, (n1+1)/2) * I_{sin^2 r}((n2+1)/2, (n1+1)/2).

    Takes ints and a float, or int and float arrays of one shape, one
    integral per element, in one normaliser pass (_log_norm, with B as
    its exp(-ln_norm)) and one incomplete-beta call.  A scalar call runs
    the same steps on floats, through _betainc_xc, so it equals the
    matching element of any batch bit for bit.
    """
    n1, n2, r = _cossin_args(n1, n2, r)
    scalar = not isinstance(r, np.ndarray)
    shape = np.shape(r)
    if not scalar:
        n1, n2, r = n1.ravel(), n2.ravel(), r.ravel()
    a, b = 0.5 * (n2 + 1), 0.5 * (n1 + 1)
    ln_norm = _log_norm(a, b)
    s, c = np.sin(r), np.cos(r)
    out = 0.5 * np.exp(-ln_norm) * (_betainc_xc if scalar else _betainc_xc_vec)(
        s * s, c * c, a, b, ln_norm
    )
    return float(out) if scalar else out.reshape(shape)
