"""Special functions against independent oracles and their own invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpiso.specfn import (
    Quadrature,
    QuadratureError,
    _betainc_xc_vec,
    _log_beta,
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

    def test_overflow_returns_inf(self):
        # 1/x^2 exceeds the largest double; x * x itself underflows to 0.
        assert trigamma(1e-200) == math.inf
        assert trigamma(5e-324) == math.inf

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trigamma(0.0)


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
        # and the radius solve return exactly the doubles of a batch.
        rs = np.linspace(0.002, HALF_PI - 0.002, 252)
        s, c = np.sin(rs), np.cos(rs)
        x, xc = s * s, c * c
        for dim in range(3, 13):
            n = dim - 1
            total = total_volume(dim)
            for k in range(n + 1):
                a, b = 0.5 * (n - k + 1), 0.5 * (k + 1)
                batched = _betainc_xc_vec(x, xc, a, b)
                reflected = _betainc_xc_vec(x, 1.0 - x, a, b)
                front = 0.5 * math.exp(_log_beta(a, b))
                fam = TubeFamily(dim, k)
                for i, r in enumerate(rs.tolist()):
                    assert _betainc_xc_vec(x[i : i + 1], xc[i : i + 1], a, b)[0] == batched[i]
                    assert tube_volume(fam, r) == total * batched[i]
                    assert reg_inc_beta(x[i], a, b) == reflected[i]
                    assert cossin_integral_closed(k, n - k, r) == front * batched[i]
            for frac in np.linspace(0.02, 0.98, 12):
                point = profile_at(dim, frac * total)
                best = TubeFamily(dim, point.best_k)
                assert radius_for_volume(best, frac * total) == point.best_r

    def test_reflection_at_sub_ulp_x_saturates(self):
        # The complement of a sub-ulp x rounds to exactly 1.0, so the pair
        # sums to 1 + x**a; both summands are individually correct.
        x = 1e-38
        assert 1.0 - x == 1.0
        assert reg_inc_beta(1.0 - x, 1.0, 0.25) == 1.0
        assert reg_inc_beta(x, 0.25, 1.0) == pytest.approx(x**0.25, rel=1e-12)


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

    def test_depth_budget_exhaustion(self):
        q = Quadrature(abs_tol=1e-18, rel_tol=1e-18, max_depth=1)
        with pytest.raises(QuadratureError):
            cossin_integral(10, 10, 1.5, q)

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            Quadrature(abs_tol=0.0)
        with pytest.raises(ValueError):
            Quadrature(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            Quadrature(max_depth=0)
        with pytest.raises(ValueError):
            Quadrature(max_depth=True)


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
]


@pytest.mark.parametrize("name,call", _NON_INTEGERS)
def test_integer_arguments_reject_bool_and_float(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        call()
