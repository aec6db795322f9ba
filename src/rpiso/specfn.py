"""Scalar special functions and adaptive quadrature.

Self-contained double-precision building blocks for the geometry modules:
sphere surface areas, log-gamma (fixed Lanczos coefficient table), trigamma
(recurrence shift plus asymptotic tail), the regularized incomplete beta
function (Lentz continued fraction with the usual symmetry switch), and an
adaptive Gauss-Legendre integrator for cos^a(t) sin^b(t) integrands.

Everything here is deterministic and depends only on ``math`` and ``numpy``.
The incomplete beta has one path, the batched _betainc_xc_vec; scalar entry
points call it on size-1 arrays, so they return the same doubles as the
matching element of any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quadrature",
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
# Below this many elements _betacf_vec loops over _betacf: numpy's
# per-operation overhead dominates small batches (x86-64, numpy 2.4: 9 us
# against 250 us for one element; the two break even near 50).
_CF_LOOP_BELOW = 32


def _check_int(name: str, value: int, minimum: int | None = None) -> None:
    """Raise ValueError unless value is an int (not a bool) and, when
    minimum is given, at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within the depth budget."""


@dataclass(frozen=True)
class Quadrature:
    """Error control for the adaptive integrator.

    abs_tol and rel_tol must be positive; max_depth is the bisection depth
    at which a still-unconverged panel raises QuadratureError.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 40

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        _check_int("max_depth", self.max_depth, 1)


def log_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for finite x > 0.

    Lanczos rational approximation for x >= 0.5.  Below that,
    ln Gamma(x) = ln Gamma(x + 1) - ln x keeps the relative error within
    1e-13 down to the smallest positive double; no reflection branch is
    needed because the argument is restricted to the positive axis.
    """
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


def _log_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def sphere_area(d: int) -> float:
    """Surface area of the unit d-sphere, 2 pi^((d+1)/2) / Gamma((d+1)/2).

    The d = 0 sphere is the two-point set, area 2.
    """
    _check_int("dimension", d, 0)
    half = 0.5 * (d + 1)
    return math.exp(_LN_2 + half * _LN_PI - log_gamma(half))


def trigamma(x: float) -> float:
    """Trigamma function psi'(x) = sum_{l>=0} 1/(x+l)^2 for x > 0.

    Upward recurrence psi'(x) = psi'(x+1) + 1/x^2 shifts the argument to
    x >= 10, where the Bernoulli asymptotic tail is applied.  Absolute
    error stays below 1e-12 on (0, 60]; the floor is set by rounding of
    the dominant 1/x^2 term at small arguments.  Below x ~ 7.5e-155 the
    value overflows and inf is returned.
    """
    x = float(x)
    if not (x > 0.0):
        raise ValueError(f"trigamma requires x > 0, got {x}")
    if x * x == 0.0:
        return math.inf
    acc = 0.0
    while x < _TRIGAMMA_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 1.0 / x + 0.5 * inv2
    power = inv2 / x
    for coeff in _TRIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + tail


def _betacf(a: float, b: float, x: float) -> float:
    """Lentz evaluation of the incomplete-beta continued fraction."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def _betacf_vec(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Vectorized _betacf.  Converged elements freeze, and the fraction uses
    only + - * /, so each element equals the scalar call bit for bit; small
    batches therefore loop over the scalar call."""
    x = np.asarray(x, dtype=float)
    if x.size < _CF_LOOP_BELOW:
        return np.array([_betacf(a, b, u) for u in x.tolist()]).reshape(x.shape)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
    d = 1.0 / d
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
        d = 1.0 / d
        h = np.where(active, h * (d * c), h)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _CF_TINY, _CF_TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _CF_TINY, _CF_TINY, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(active, h * delta, h)
        active &= ~(np.abs(delta - 1.0) < _CF_EPS)
        if not active.any():
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}"
    )


def _betainc_xc_vec(x: np.ndarray, xc: np.ndarray, a: float, b: float) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b) per element, with the
    complement xc = 1 - x supplied by the caller.  Passing an independently
    computed complement (for example cos^2 r alongside sin^2 r) preserves
    accuracy near x = 1."""
    x = np.asarray(x, dtype=float)
    xc = np.asarray(xc, dtype=float)
    out = np.where(x <= 0.0, 0.0, 1.0)
    mid = ~((x <= 0.0) | (xc <= 0.0))
    direct = mid & (x < (a + 1.0) / (a + b + 2.0))
    flipped = mid & ~direct
    ln_norm = log_gamma(a + b) - log_gamma(a) - log_gamma(b)
    with np.errstate(divide="ignore"):  # log 0 at the endpoints, overwritten below
        front = np.exp(ln_norm + a * np.log(x) + b * np.log(xc))
    if direct.any():
        out[direct] = front[direct] * _betacf_vec(a, b, x[direct]) / a
    if flipped.any():
        out[flipped] = 1.0 - front[flipped] * _betacf_vec(b, a, xc[flipped]) / b
    return out


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
    return float(_betainc_xc_vec(np.array([x]), np.array([1.0 - x]), a, b)[0])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl_panel(n1: int, n2: int, a: float, b: float) -> float:
    """Fixed-order Gauss-Legendre estimate of the integral over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid + half * _GL_NODES
    vals = np.cos(t) ** n1 * np.sin(t) ** n2
    return half * float(np.dot(_GL_WEIGHTS, vals))


def _refine(
    n1: int, n2: int, a: float, b: float, whole: float, tol: float, depth: int, q: Quadrature
) -> float:
    mid = 0.5 * (a + b)
    left = _gl_panel(n1, n2, a, mid)
    right = _gl_panel(n1, n2, mid, b)
    better = left + right
    if abs(better - whole) <= max(tol, q.rel_tol * abs(better)):
        return better
    if depth >= q.max_depth:
        raise QuadratureError(
            f"panel [{a}, {b}] did not converge at depth {depth} "
            f"(estimate change {abs(better - whole):.3e})"
        )
    half_tol = 0.5 * tol
    return _refine(n1, n2, a, mid, left, half_tol, depth + 1, q) + _refine(
        n1, n2, mid, b, right, half_tol, depth + 1, q
    )


def cossin_integral(n1: int, n2: int, r: float, q: Quadrature | None = None) -> float:
    """Integral of cos^n1(t) sin^n2(t) over [0, r] by adaptive quadrature.

    Requires integer n1, n2 >= 0 and 0 <= r <= pi/2.  Raises
    QuadratureError if the bisection depth budget is exhausted before the
    requested tolerance is met.
    """
    _check_int("n1", n1, 0)
    _check_int("n2", n2, 0)
    r = float(r)
    if not (0.0 <= r <= _HALF_PI):
        raise ValueError(f"radius must lie in [0, pi/2], got {r}")
    if q is None:
        q = Quadrature()
    if r == 0.0:
        return 0.0
    whole = _gl_panel(n1, n2, 0.0, r)
    return _refine(n1, n2, 0.0, r, whole, q.abs_tol, 1, q)


def cossin_integral_closed(n1: int, n2: int, r: float) -> float:
    """Closed form of the same integral:

        (1/2) B((n2+1)/2, (n1+1)/2) * I_{sin^2 r}((n2+1)/2, (n1+1)/2).
    """
    _check_int("n1", n1, 0)
    _check_int("n2", n2, 0)
    r = float(r)
    if not (0.0 <= r <= _HALF_PI):
        raise ValueError(f"radius must lie in [0, pi/2], got {r}")
    a = 0.5 * (n2 + 1)
    b = 0.5 * (n1 + 1)
    s = np.sin(np.array([r]))
    c = np.cos(np.array([r]))
    return 0.5 * math.exp(_log_beta(a, b)) * float(_betainc_xc_vec(s * s, c * c, a, b)[0])
