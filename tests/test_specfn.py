"""Special functions against independent oracles and their own invariants."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpiso import profile, specfn
from rpiso.specfn import (
    QuadratureError,
    _betainc_xc_vec,
    _log_beta_norm,
    cossin_integral,
    cossin_integral_closed,
    log_gamma,
    reg_inc_beta,
    sphere_area,
    trigamma,
)
from rpiso.clifford import CliffordShape
from rpiso.profile import (
    TubeFamily,
    profile_at,
    profile_curve,
    radius_for_volume,
    successive_check,
    total_volume,
    tube_volume,
)
from rpiso.spectrum import laplace_eigenvalue, stability_interval
from rpiso.verify import DEFAULT_TOLERANCES
from rpiso.willmore import energy_minimum

HALF_PI = 0.5 * math.pi


def series_trigamma(x: float, terms: int = 10**7) -> float:
    """Oracle: raw partial sum of sum_l (x+l)^-2 plus an Euler-Maclaurin
    tail 1/t + 1/(2t^2) + 1/(6t^3); tail truncation error is O(t^-5)."""
    l = np.arange(terms, dtype=float)
    partial = float(np.sum((1.0 / (x + l) ** 2)[::-1]))
    t = x + terms
    return partial + 1.0 / t + 0.5 / (t * t) + 1.0 / (6.0 * t**3)


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)

    def test_zero_sphere_is_two_points(self):
        assert sphere_area(0) == pytest.approx(2.0, rel=1e-14)

    def test_gamma_recurrence(self):
        for d in range(2, 61):
            lhs = sphere_area(d)
            rhs = 2.0 * math.pi * sphere_area(d - 2) / (d - 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sphere_area(-1)
        with pytest.raises(ValueError):
            sphere_area(2.0)

    def test_array_table_equals_scalar_calls(self):
        # The table behind profile._start_table's areas and energy_minimum.
        ds = np.arange(438)
        table = np.exp(specfn._log_sphere_area(ds))
        assert [v.hex() for v in table.tolist()] == [sphere_area(d).hex() for d in ds.tolist()]


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_against_libm(self):
        # math.lgamma is an independent implementation; compare mixed
        # absolute/relative since ln Gamma vanishes at 1 and 2.
        for x in np.linspace(0.5, 200.0, 400):
            mine = log_gamma(float(x))
            ref = math.lgamma(float(x))
            assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_factorial_recurrence(self):
        for x in (0.7, 1.5, 3.25, 10.0, 41.5):
            lhs = log_gamma(x + 1.0)
            rhs = math.log(x) + log_gamma(x)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_small_arguments_against_libm(self):
        # Below 0.5 the value comes from ln Gamma(x + 1) - ln x; ln Gamma is
        # at least ln Gamma(0.5) > 0.57 there, so a relative bound is fair.
        for x in np.geomspace(1e-300, 0.5, 600):
            ref = math.lgamma(float(x))
            assert abs(log_gamma(float(x)) - ref) <= 1e-13 * ref

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)

    @staticmethod
    def _seeded_arguments() -> np.ndarray:
        return 10.0 ** np.random.default_rng(16).uniform(-300.0, 3.0, 1500)

    def test_array_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = self._seeded_arguments()
        vals = log_gamma(xs)
        refs = [float(mpmath.loggamma(mpmath.mpf(x))) for x in xs.tolist()]
        for x, val, ref in zip(xs.tolist(), vals.tolist(), refs):
            assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref)), (x, val, ref)

    def test_array_equals_scalar_calls(self):
        # Shifted and unshifted elements, the shift boundary, the zeros of
        # ln Gamma, the smallest doubles and one whose ln Gamma overflows.
        xs = np.concatenate(
            [
                self._seeded_arguments(),
                [5e-324, 1e-300, np.nextafter(0.5, 0.0), 0.5, 1.0, 2.0, 1e3, 1e307],
            ]
        )
        vals = log_gamma(xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        singles = [log_gamma(x) for x in xs.tolist()]
        assert all(type(v) is float for v in singles)
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in singles]
        assert vals[-1] == math.inf

    @pytest.mark.parametrize(
        "xs",
        [[1.0, 0.0], [2.0, -1.5], [1.0, math.nan], [1.0, math.inf], [[1.0, 2.0], [3.0, 4.0]]],
        ids=["zero", "negative", "nan", "inf", "2-D"],
    )
    def test_array_rejects_bad_element_or_shape(self, xs):
        with pytest.raises(ValueError, match="1-D array of finite x > 0"):
            log_gamma(np.array(xs))


class TestTrigamma:
    def test_known_constants(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, abs=1e-12)

    def test_series_oracle(self):
        for x in (0.5, 1.0, 2.75, 7.3):
            assert abs(trigamma(x) - series_trigamma(x)) <= 1e-12

    def test_telescoping_recurrence(self):
        x = 2.75
        assert trigamma(x) - trigamma(x + 1.0) == pytest.approx(
            1.0 / (x * x), rel=1e-13
        )

    def test_decreasing_and_convex(self):
        xs = np.linspace(0.25, 30.0, 240)
        vals = np.array([trigamma(float(x)) for x in xs])
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(np.diff(vals, 2) > 0.0)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in np.geomspace(1e-150, 60.0, 300):
            ref = float(mpmath.psi(1, mpmath.mpf(float(x))))
            assert trigamma(float(x)) == pytest.approx(ref, rel=1e-13)

    def test_array_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        xs = np.geomspace(1e-150, 60.0, 300)
        refs = [float(mpmath.psi(1, mpmath.mpf(x))) for x in xs.tolist()]
        assert trigamma(xs) == pytest.approx(refs, rel=1e-13)

    def test_overflow_returns_inf(self):
        # 1/x^2 exceeds the largest double; x * x itself underflows to 0.
        assert trigamma(1e-200) == math.inf
        assert trigamma(5e-324) == math.inf

    def test_array_equals_scalar_calls(self):
        # Overflowing, shifted, unshifted and x * x overflowing elements.
        xs = np.concatenate(
            [
                [5e-324, 1e-200, 1e-160, 7.5e-155],
                np.geomspace(1e-150, 60.0, 400),
                np.random.default_rng(8).uniform(0.0, 12.0, 200),
                [9.999999999999998, 10.0, 1e200],
            ]
        )
        vals = trigamma(xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        singles = [trigamma(x) for x in xs.tolist()]
        assert all(type(v) is float for v in singles)
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in singles]
        assert np.isinf(vals[:3]).all() and np.isfinite(vals[3:]).all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trigamma(0.0)

    @pytest.mark.parametrize(
        "xs",
        [[1.0, 0.0, 2.0], [1.0, -3.0], [1.0, math.nan], [[1.0, 2.0], [3.0, 4.0]]],
        ids=["zero", "negative", "nan", "2-D"],
    )
    def test_array_rejects_bad_element_or_shape(self, xs):
        with pytest.raises(ValueError, match="1-D array of x > 0"):
            trigamma(np.array(xs))


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 2.5, 7.0):
            assert reg_inc_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)

    def test_reflection_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = float(rng.uniform(0.0, 1.0))
            a = float(rng.uniform(0.1, 20.0))
            b = float(rng.uniform(0.1, 20.0))
            total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = [reg_inc_beta(float(x), 2.5, 1.25) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.01, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.01, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        # Below ~1e-2 the rounding of 1 - x meets an unbounded density
        # x**(a-1) for a < 1, so the reflection identity is only testable
        # where the complement is exact to half an ulp of x.
        x=st.floats(min_value=0.01, max_value=0.99),
        a=st.floats(min_value=0.1, max_value=30.0),
        b=st.floats(min_value=0.1, max_value=30.0),
    )
    def test_reflection_property(self, x, a, b):
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_scalar_entry_points_equal_batched_elements(self):
        # One incomplete-beta path: size-1 calls, the scalar entry points
        # and the radius solve return exactly the doubles of a batch.  The
        # size-1 calls run on both end radii and every 16th one, since
        # test_batches_of_every_size_equal_the_float_element covers size 1.
        rs = np.linspace(0.002, HALF_PI - 0.002, 252)
        sized_one = set(range(0, rs.size, 16)) | {rs.size - 1}
        s, c = np.sin(rs), np.cos(rs)
        x, xc = s * s, c * c
        for dim in range(3, 13):
            n = dim - 1
            total = total_volume(dim)
            for k in range(n + 1):
                a, b = 0.5 * (n - k + 1), 0.5 * (k + 1)
                log_b, ln_norm = _log_beta_norm(a, b)
                batched = _betainc_xc_vec(x, xc, a, b, ln_norm)
                reflected = _betainc_xc_vec(x, 1.0 - x, a, b, ln_norm)
                front = 0.5 * np.exp(log_b)
                fam = TubeFamily(dim, k)
                for i, r in enumerate(rs.tolist()):
                    if i in sized_one:
                        one = _betainc_xc_vec(x[i : i + 1], xc[i : i + 1], a, b, ln_norm)
                        assert one[0] == batched[i]
                    assert tube_volume(fam, r) == total * batched[i]
                    assert reg_inc_beta(x[i], a, b) == reflected[i]
                    assert cossin_integral_closed(k, n - k, r) == front * batched[i]
            for frac in np.linspace(0.02, 0.98, 12):
                point = profile_at(dim, frac * total)
                best = TubeFamily(dim, point.best_k)
                assert radius_for_volume(best, frac * total) == point.best_r

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33])
    def test_batches_of_every_size_equal_the_float_element(self, size, monkeypatch):
        # A batch of any size runs one array pass, never the float element
        # _betainc_xc, and every element is the same double as _betainc_xc
        # on it.  Windows of `size` cover a pool of 80 elements, with x = 0
        # and xc = 0 first and the rest on both sides of the mean, for mixed
        # half-integer (a, b) arrays and for float a and b; two more windows
        # hold only elements below the mean and only reflected ones.
        rng = np.random.default_rng(size)
        r = rng.uniform(0.01, HALF_PI - 0.01, 78)
        s, c = np.sin(r), np.cos(r)
        x, xc = np.append([0.0, 1.0], s * s), np.append([1.0, 0.0], c * c)
        half = 0.5 * rng.integers(1, 40, (2, x.size))
        element_of = specfn._betainc_xc
        calls = []
        monkeypatch.setattr(specfn, "_betainc_xc", lambda *e: calls.append(e) or element_of(*e))
        for a, b in [tuple(half), (3.5, 1.5)]:
            ln_norm = _log_beta_norm(a, b)[1]
            cols = np.broadcast_arrays(x, xc, a, b, ln_norm)
            lower = (x < (cols[2] + 1.0) / (cols[2] + cols[3] + 2.0))[2:]
            assert lower.any() and not lower.all()
            pool = _betainc_xc_vec(x, xc, a, b, ln_norm)
            element = [element_of(*e) for e in zip(*(v.tolist() for v in cols))]
            assert pool.tolist() == element
            starts = sorted({*range(0, x.size - size + 1, size or x.size), x.size - size})
            windows = [np.arange(i, i + size) for i in starts]
            inner = np.arange(2, x.size)
            windows += [np.resize(inner[lower], size), np.resize(inner[~lower], size)]
            for w in windows:
                args = (v if np.ndim(v) == 0 else v[w] for v in (x, xc, a, b, ln_norm))
                got = _betainc_xc_vec(*args)
                assert got.shape == (size,) and got.dtype == float
                assert got.tolist() == [element[i] for i in w]
                assert np.array_equal(got, pool[w])
        assert calls == []

    @pytest.mark.parametrize("size", [2, 3, 1000, 20000])
    def test_retiring_elements_equal_the_float_element(self, size):
        # Elements at or below x = 1e-6 converge at the first iteration.
        # Elements at the mean x = a / (a + b) need more, from a few to
        # about a hundred when a and b are far apart; the last, at a =
        # 218.5 and b = 218, needs 33.  Once the fast ones retire, at most
        # half of the arrays are active and the rest are gathered.  Size 2,
        # one fast element and the last, gathers once, down to a single
        # survivor; size 3, a fast element and the last twice, never
        # gathers; 1,000 and 20,000, about 60 % fast, gather 8 and 11
        # times, down to a single survivor.
        rng = np.random.default_rng(size)
        half = 0.5 * rng.integers(1, 438, (2, size))
        fast = (rng.random(size) < 0.6) | (size <= 3)
        fast[-1] = False
        half[:, ~fast] = 0.5 * rng.integers(1, 300, (2, np.count_nonzero(~fast)))
        tiny = np.where(rng.random(size) < 0.5, 0.0, 10.0 ** rng.uniform(-300, -6, size))
        a, b = half
        a[-1], b[-1] = 218.5, 218.0
        if size == 3:
            a[1], b[1] = a[-1], b[-1]
            fast[1] = False
        x = np.where(fast, tiny, a / (a + b))
        args = a, b, x
        kept = [v.copy() for v in args]
        got = specfn._betacf_vec(*args)
        assert got.tolist() == [specfn._betacf(*e) for e in zip(*(v.tolist() for v in args))]
        assert all(np.array_equal(v, k) for v, k in zip(args, kept))

    def test_tiny_guard_trips_per_element(self):
        # At x = (a + 1) / (a + b) the fraction's first denominator is 0,
        # which the kernels replace by _CF_TINY; the ordinary elements
        # around them keep their own value.
        a = np.array([1.5, 2.0, 0.5, 3.0, 1.0, 4.5])
        b = np.array([2.5, 3.0, 1.5, 5.0, 3.0, 2.0])
        x = np.where(np.arange(6) % 2 == 0, (a + 1.0) / (a + b), 0.3)
        assert ((a + b) * x / (a + 1.0) == 1.0).sum() == 3
        got = specfn._betacf_vec(a, b, x)
        assert got.tolist() == [specfn._betacf(*e) for e in zip(a.tolist(), b.tolist(), x.tolist())]

    @pytest.mark.parametrize(
        "a, b, x, value",
        [
            # d0 = 1 - 3 (0.75) / 2 = -1/8 and the first aa = 1/8, so the
            # first in-loop d of the m-step is 1 + (1/8)(-8) = 0 exactly;
            # I_0.75(1, 2) = 0.9375 = front cf / a gives cf = 10.
            (1.0, 2.0, 0.75, 10.0),
            # The second (negative) aa zeroes d at m = 1: cf = 254 / 7, from
            # I_0.5(1, 7) = 127 / 128.
            (1.0, 7.0, 0.5, 254.0 / 7.0),
            # The second aa zeroes c.  x lies far beyond (a + 1) / (a + b + 2),
            # where the fraction is never used, so only the kernels' equality
            # is asserted.
            (2.0, 8.0, 0.9375, None),
        ],
    )
    def test_in_loop_tiny_guards(self, a, b, x, value):
        # Each element trips one in-loop guard and is floored to _CF_TINY in
        # both kernels, among ordinary elements in a batch.
        expect = specfn._betacf(a, b, x)
        if value is not None:
            assert expect == pytest.approx(value, rel=1e-15)
        aa = np.array([a, 1.5, a, 4.5])
        bb = np.array([b, 2.5, b, 2.0])
        xx = np.array([x, 0.3, x, 0.2])
        got = specfn._betacf_vec(aa, bb, xx)
        assert got.tolist() == [specfn._betacf(*e) for e in zip(*(v.tolist() for v in (aa, bb, xx)))]
        assert got[0] == got[2] == expect

    # (a, b, x) and the fraction's value as float.hex, so a change that both
    # kernels share cannot move a double unseen.  The kernels use only
    # + - * / and comparisons, so these do not depend on the CPU.  The three
    # guard-tripping inputs above, the slowest tube element, x = 0 and a tiny
    # x, a reflected tube row (n = 9, k = 3 at r = 1.2: (b, a, cos^2 r)),
    # non-half-integer (a, b), and x = 0.98 at a = 200.5, b = 1.
    PINNED = [
        (1.0, 2.0, 0.75, "0x1.3ffffffffffffp+3"),
        (1.0, 7.0, 0.5, "0x1.224924924924ap+5"),
        (2.0, 8.0, 0.9375, "0x1.02e85c00fbdadp+27"),
        (218.5, 218.0, 218.5 / 436.5, "0x1.a3aaf0feb1d86p+4"),
        (2.5, 4.0, 0.0, "0x1.0000000000000p+0"),
        (1.5, 2.5, 1e-6, "0x1.00001ad7f51e1p+0"),
        (2.0, 3.5, 0.13130314222937728, "0x1.4df2e0a64ea7ap+0"),
        (0.3, 2.7, 0.1, "0x1.47286e32a84c9p+0"),
        (5.25, 1.75, 0.6, "0x1.7720888e84da6p+1"),
        (0.5, 0.5, 0.4, "0x1.65ce2c9fd77d5p+0"),
        (200.5, 1.0, 0.98, "0x1.8fffffffffff9p+5"),
    ]

    @pytest.mark.parametrize("a, b, x, value", PINNED)
    def test_float_kernel_returns_pinned_doubles(self, a, b, x, value):
        assert specfn._betacf(a, b, x).hex() == value

    def test_array_kernel_returns_pinned_doubles(self):
        a, b, x, values = zip(*self.PINNED)
        got = specfn._betacf_vec(np.array(a), np.array(b), np.array(x))
        assert [v.hex() for v in got.tolist()] == list(values)

    @pytest.mark.parametrize("cap", [2, 32])
    def test_unconverged_elements_are_named(self, cap, monkeypatch):
        # A fraction not converged within a lowered iteration cap raises,
        # and the array kernel names only the elements still running: the
        # ones at x = 0 retire at the first iteration, and below a cap of
        # 33 the one at a = 218.5 is always among the rest.
        monkeypatch.setattr(specfn, "_CF_MAX_ITER", cap)
        a = np.array([218.5, 1.5, 7.5, 30.0, 2.5])
        b = np.array([218.0, 2.5, 7.5, 30.5, 4.0])
        x = np.where(np.arange(5) % 2 == 1, 0.0, a / (a + b))
        elements = list(zip(a.tolist(), b.tolist(), x.tolist()))
        left = []
        for p, q, t in elements:
            try:
                specfn._betacf(p, q, t)
            except RuntimeError as err:
                assert str(err).endswith(f"for a={p}, b={q}, x={t}")
                left.append(f"(a={p}, b={q}, x={t})")
        assert 0 < len(left) < len(elements)
        with pytest.raises(RuntimeError) as err:
            specfn._betacf_vec(a, b, x)
        assert str(err.value).endswith(f"for {len(left)} of 5 elements: " + ", ".join(left))

    def test_non_convergence_reaches_the_callers(self, monkeypatch):
        monkeypatch.setattr(specfn, "_CF_MAX_ITER", 2)
        with pytest.raises(RuntimeError, match=r"did not converge for a=30\.0, b=30\.0, x=0\.5"):
            reg_inc_beta(0.5, 30.0, 30.0)
        # 100 volumes of dimension 10 run the array solve, whose steps
        # call the array kernel.
        total = total_volume(10)
        with pytest.raises(RuntimeError, match=r"did not converge for \d+ of \d+ elements: \(a="):
            profile._envelope(10, np.linspace(0.01, 0.99, 100) * total, total)

    def test_reflection_at_sub_ulp_x_saturates(self):
        # The complement of a sub-ulp x rounds to exactly 1.0, so the pair
        # sums to 1 + x**a; both summands are individually correct.
        x = 1e-38
        assert 1.0 - x == 1.0
        assert reg_inc_beta(1.0 - x, 1.0, 0.25) == 1.0
        assert reg_inc_beta(x, 0.25, 1.0) == pytest.approx(x**0.25, rel=1e-12)


def recursive_cossin_integral(n1: int, n2: int, r: float) -> float:
    """Reference: the depth-first adaptive Gauss-Legendre quadrature, one
    scalar panel at a time, each split summed as left + right, with the
    share of _QUAD_REL_TOL times the first estimate halved per level."""

    def panel(a: float, b: float) -> float:
        t = 0.5 * (a + b) + 0.5 * (b - a) * specfn._GL_NODES
        vals = np.cos(t) ** n1 * np.sin(t) ** n2
        return 0.5 * (b - a) * float(np.dot(specfn._GL_WEIGHTS, vals))

    def refine(a: float, b: float, whole: float, tol: float) -> float:
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        if abs(left + right - whole) <= max(tol, specfn._QUAD_REL_TOL * abs(left + right)):
            return left + right
        return refine(a, mid, left, 0.5 * tol) + refine(mid, b, right, 0.5 * tol)

    whole = panel(0.0, r)
    return refine(0.0, r, whole, specfn._QUAD_REL_TOL * abs(whole))


class TestCossinIntegral:
    def test_constant_integrand(self):
        for r in (0.0, 0.3, 1.0, HALF_PI):
            assert cossin_integral(0, 0, r) == pytest.approx(r, abs=1e-12)

    def test_elementary_antiderivatives(self):
        # sin t cos t integrates to sin^2(t)/2; cos^2 sin^3 integrates to
        # cos^5/5 - cos^3/3, giving 1/3 - 1/5 = 2/15 on the full quarter arc.
        assert cossin_integral(1, 1, HALF_PI) == pytest.approx(0.5, rel=1e-12)
        assert cossin_integral(2, 3, HALF_PI) == pytest.approx(2.0 / 15.0, rel=1e-12)

    def test_agrees_with_closed_form(self):
        for n1 in range(11):
            for n2 in range(11):
                for r in (0.1, 0.5, 1.0, 1.5):
                    quad = cossin_integral(n1, n2, r)
                    closed = cossin_integral_closed(n1, n2, r)
                    assert quad == pytest.approx(closed, rel=1e-10, abs=1e-300)

    @staticmethod
    def _verify_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 484 (n1, n2, r) points of rpiso verify."""
        grid = np.meshgrid(np.arange(11), np.arange(11), (0.1, 0.5, 1.0, 1.5), indexing="ij")
        n1, n2, r = (g.ravel() for g in grid)
        return n1, n2, r

    def _assert_array_equals_scalar_calls(self, integral):
        # The verify grid, both ends of the arc, and a 2-D batch.
        for n1, n2, r in [self._verify_grid(), ([0, 3, 7], [5, 0, 7], [0.0, HALF_PI, HALF_PI])]:
            n1, n2, r = np.asarray(n1), np.asarray(n2), np.asarray(r, dtype=float)
            whole = integral(n1, n2, r)
            assert isinstance(whole, np.ndarray) and whole.shape == r.shape
            singles = [integral(*args) for args in zip(n1.tolist(), n2.tolist(), r.tolist())]
            assert all(type(v) is float for v in singles)
            assert [v.hex() for v in whole.tolist()] == [v.hex() for v in singles]
        eye, ones = np.eye(2, dtype=int), np.ones((2, 2), dtype=int)
        square = integral(eye, ones, np.full((2, 2), 0.5))
        assert square.shape == (2, 2) and square[0, 1] == integral(0, 1, 0.5)

    def test_array_equals_scalar_calls(self):
        self._assert_array_equals_scalar_calls(cossin_integral)

    def test_panel_estimates_do_not_depend_on_the_batch(self):
        # A panel alone, as the first panel of a scalar call is evaluated,
        # gives the double it gives among others.
        rng = np.random.default_rng(16)
        n1, n2 = rng.integers(0, 31, 400), rng.integers(0, 31, 400)
        a = rng.uniform(0.0, 1.0, 400)
        b = a + rng.uniform(0.0, HALF_PI - 1.0, 400)
        whole = specfn._gl_panels(n1, n2, a, b)
        alone = [
            specfn._gl_panels(n1[i : i + 1], n2[i : i + 1], a[i : i + 1], b[i : i + 1])[0]
            for i in range(400)
        ]
        assert whole.tolist() == alone

    def test_array_against_recursive_reference(self):
        # Level-wise sums and powers by squaring round differently from the
        # depth-first reference: a few ulp, bounded here by 32 eps.
        rng = np.random.default_rng(16)
        n1, n2, r = self._verify_grid()
        n1 = np.concatenate([n1, rng.integers(0, 31, 600)])
        n2 = np.concatenate([n2, rng.integers(0, 31, 600)])
        r = np.concatenate([r, rng.uniform(1e-3, HALF_PI, 600)])
        quad = cossin_integral(n1, n2, r)
        for a, b, t, val in zip(n1.tolist(), n2.tolist(), r.tolist(), quad.tolist()):
            ref = recursive_cossin_integral(a, b, t)
            assert abs(val - ref) <= 32 * sys.float_info.epsilon * abs(ref), (a, b, t, val, ref)

    def test_array_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        n1, n2, r = self._verify_grid()
        quad = cossin_integral(n1, n2, r)
        with mpmath.workdps(20):
            for a, b, t, val in zip(n1.tolist(), n2.tolist(), r.tolist(), quad.tolist()):
                ref = mpmath.quad(
                    lambda u: mpmath.cos(u) ** a * mpmath.sin(u) ** b, [0, t], method="gauss-legendre"
                )
                assert abs(val - float(ref)) <= 1e-13 * abs(ref), (a, b, t, val, ref)

    def test_integrals_far_below_one_keep_their_relative_accuracy(self):
        # Integrals far below 1, where an absolute tolerance stops too early.
        # The reference is mpmath's incomplete beta, (1/2) B_{sin^2 r}((n2 +
        # 1)/2, (n1 + 1)/2) at 40 digits: mpmath.quad on 64 subintervals is
        # itself 3.3e-11 off at (7, 90, 0.05), whose integrand is a
        # polynomial in sin t with a known antiderivative.
        mpmath = pytest.importorskip("mpmath")
        cases = [(0, 200, 1.0), (200, 200, 1.5), (7, 90, 0.05), (0, 80, 0.5), (2, 60, 0.3), (40, 40, 1.0)]
        n1, n2, r = (np.array(column) for column in zip(*cases))
        quad = cossin_integral(n1, n2, r.astype(float))
        with mpmath.workdps(40):
            for (a, b, t), val in zip(cases, quad.tolist()):
                x = mpmath.sin(mpmath.mpf(t)) ** 2
                ref = mpmath.betainc(mpmath.mpf(b + 1) / 2, mpmath.mpf(a + 1) / 2, 0, x) / 2
                assert abs(val - ref) <= DEFAULT_TOLERANCES["specfn_agree"] * ref, (a, b, t, val)

    @pytest.mark.parametrize(
        "n1,n2,r,match",
        [
            ([1, 2], [1], [0.5, 0.5], "shape of r"),
            ([1.0, 2.0], [1, 1], [0.5, 0.5], "integer arrays"),
            ([1, -1], [1, 1], [0.5, 0.5], ">= 0"),
            ([1, 1], [1, 1], [0.5, math.nan], r"got nan$"),
        ],
        ids=["shape", "float", "negative", "nan"],
    )
    def test_array_rejects_bad_arrays(self, n1, n2, r, match):
        with pytest.raises(ValueError, match=match):
            cossin_integral(np.array(n1), np.array(n2), np.array(r))

    def test_closed_form_array_equals_scalar_calls(self):
        self._assert_array_equals_scalar_calls(cossin_integral_closed)

    @pytest.mark.parametrize(
        "n1,n2,r,match",
        [
            ([1, 2], [1], [0.5, 0.5], "shape of r"),
            ([1.0, 2.0], [1, 1], [0.5, 0.5], "integer arrays"),
            ([True, False], [1, 1], [0.5, 0.5], "integer arrays"),
            ([1, -1], [1, 1], [0.5, 0.5], ">= 0"),
            ([1, 1], [1, 1], [0.5, -0.1], r"\[0, pi/2\], got -0.1$"),
            ([1, 1], [1, 1], [0.5, math.nan], r"got nan$"),
        ],
        ids=["shape", "float", "bool", "negative", "radius", "nan"],
    )
    def test_closed_form_rejects_bad_arrays(self, n1, n2, r, match):
        with pytest.raises(ValueError, match=match):
            cossin_integral_closed(np.array(n1), np.array(n2), np.array(r))

    def test_power_swap_symmetry_on_full_arc(self):
        # t -> pi/2 - t swaps the roles of the two powers.
        for n1, n2 in ((0, 4), (1, 2), (3, 5), (7, 7)):
            assert cossin_integral(n1, n2, HALF_PI) == pytest.approx(
                cossin_integral(n2, n1, HALF_PI), rel=1e-12
            )

    def test_monotone_in_radius(self):
        rs = np.linspace(0.0, HALF_PI, 40)
        vals = [cossin_integral(2, 4, float(r)) for r in rs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cossin_integral(-1, 0, 0.5)
        with pytest.raises(ValueError):
            cossin_integral(0, 0, -0.1)
        with pytest.raises(ValueError):
            cossin_integral(0, 0, HALF_PI + 0.1)

    def test_depth_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(specfn, "_QUAD_MAX_DEPTH", 1)
        # At the default tolerances the first two converge at depth 1 and
        # the last needs depth 2: the batch raises, naming that integral.
        n1, n2, r = np.array([0, 3, 10]), np.array([0, 4, 10]), np.array([0.3, 0.7, 1.5])
        for args in zip(n1[:2].tolist(), n2[:2].tolist(), r[:2].tolist()):
            cossin_integral(*args)
        with pytest.raises(QuadratureError, match=r"^cossin_integral\(10, 10, 1.5\): panel"):
            cossin_integral(n1, n2, r)
        monkeypatch.setattr(specfn, "_QUAD_REL_TOL", 1e-18)
        with pytest.raises(QuadratureError):
            cossin_integral(10, 10, 1.5)


# Integer arguments, one entry point each, given a bool or a float: the
# shared check rejects both and names the argument.
_NON_INTEGERS = [
    pytest.param("ambient_dim", lambda: TubeFamily(True, 0), id="TubeFamily-bool"),
    pytest.param("ambient_dim", lambda: TubeFamily(3.0, 0), id="TubeFamily-float"),
    pytest.param("ambient_dim", lambda: total_volume(True), id="total_volume"),
    pytest.param("dimension", lambda: sphere_area(True), id="sphere_area"),
    pytest.param("n1", lambda: CliffordShape(True, 1, 0.3), id="CliffordShape"),
    pytest.param("n1", lambda: stability_interval(True, 1), id="stability_interval"),
    pytest.param(
        "k1", lambda: laplace_eigenvalue(CliffordShape(2, 3, 0.4), True, 0), id="laplace_eigenvalue"
    ),
    pytest.param("r_samples", lambda: energy_minimum(4, True), id="energy_minimum"),
    pytest.param("samples", lambda: profile_curve(4, True), id="profile_curve"),
    pytest.param("samples", lambda: successive_check(4, 300.0), id="successive_check"),
    pytest.param("n1", lambda: cossin_integral(True, 1, 0.3), id="cossin_integral"),
    pytest.param("n2", lambda: cossin_integral_closed(1, 2.0, 0.3), id="cossin_integral_closed"),
]


@pytest.mark.parametrize("name,call", _NON_INTEGERS)
def test_integer_arguments_reject_bool_and_float(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        call()
