"""Closed-form Clifford geometry: curvatures, areas, Jacobians, roots."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HALF_PI,
    LATITUDES,
    assert_elementwise,
    random_shapes,
    random_shapes_with_degenerate,
)
from rpiso import clifford
from rpiso.clifford import (
    CliffordShape,
    area_rp,
    area_sphere,
    curvature,
    parallel_jacobian,
    quadratic_roots,
)
from rpiso.specfn import sphere_area


class TestShapeValidation:
    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            CliffordShape(-1, 2, 0.5)
        with pytest.raises(ValueError):
            CliffordShape(0, 0, 0.5)
        with pytest.raises(ValueError):
            CliffordShape(1.0, 1, 0.5)

    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            CliffordShape(1, 1, 0.0)
        with pytest.raises(ValueError):
            CliffordShape(1, 1, HALF_PI)
        with pytest.raises(ValueError):
            CliffordShape(1, 1, -0.3)

    def test_dimensions(self):
        shape = CliffordShape(2, 3, 0.5)
        assert shape.n == 5
        assert shape.ambient_dim == 6


class TestCurvature:
    def test_square_torus(self):
        data = curvature(CliffordShape(1, 1, math.pi / 4))
        assert data.kappa1 == pytest.approx(-1.0, rel=1e-12)
        assert data.kappa2 == pytest.approx(1.0, rel=1e-12)
        assert data.mean == pytest.approx(0.0, abs=1e-12)
        assert data.norm_sq == pytest.approx(2.0, rel=1e-12)
        assert data.beta == pytest.approx(0.0, abs=1e-12)

    def test_explicit_2_3_shape(self):
        data = curvature(CliffordShape(2, 3, math.pi / 6))
        assert data.kappa1 == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-12)
        assert data.kappa2 == pytest.approx(math.sqrt(3.0), rel=1e-12)
        n_mean = 5.0 * data.mean
        assert n_mean == pytest.approx(-2.0 / math.sqrt(3.0) + 3.0 * math.sqrt(3.0), rel=1e-12)

    def test_minimal_latitude_balances(self):
        for p, n in ((1, 3), (2, 5), (3, 7), (4, 9)):
            r = math.atan(math.sqrt((n - p) / p))
            data = curvature(CliffordShape(p, n - p, r))
            assert data.mean == pytest.approx(0.0, abs=1e-12)
            assert data.norm_sq == pytest.approx(float(n), rel=1e-12)

    def test_multiplicities(self):
        data = curvature(CliffordShape(4, 2, 0.8))
        assert data.mult1 == 4
        assert data.mult2 == 2


class TestAreas:
    def test_square_torus_area(self):
        shape = CliffordShape(1, 1, math.pi / 4)
        assert area_sphere(shape) == pytest.approx(2.0 * math.pi**2, rel=1e-12)
        assert area_rp(shape) == pytest.approx(math.pi**2, rel=1e-12)

    def test_degenerate_factor_is_doubled_sphere(self):
        for n, r in ((2, 0.4), (5, 1.1)):
            shape = CliffordShape(0, n, r)
            expected = 2.0 * sphere_area(n) * math.sin(r) ** n
            assert area_sphere(shape) == pytest.approx(expected, rel=1e-12)

    def test_rp_is_exactly_half(self):
        for shape in random_shapes_with_degenerate(50, seed=11):
            assert area_rp(shape) == 0.5 * area_sphere(shape)

    def test_complement_symmetry(self):
        for shape in random_shapes(200, seed=13):
            flipped = CliffordShape(shape.n2, shape.n1, HALF_PI - shape.r)
            assert area_sphere(shape) == pytest.approx(area_sphere(flipped), rel=1e-12)

    def test_balanced_minimal_in_s3(self):
        r = math.atan(1.0)
        assert area_sphere(CliffordShape(1, 1, r)) == pytest.approx(
            2.0 * math.pi**2, rel=1e-12
        )


class TestMeanCurvatureMonotone:
    def test_decreasing_with_unique_zero(self):
        for n1, n2 in ((1, 1), (2, 3), (5, 2), (4, 4)):
            rs = np.linspace(0.05, HALF_PI - 0.05, 300)
            means = np.array(
                [curvature(CliffordShape(n1, n2, float(r))).mean for r in rs]
            )
            assert np.all(np.diff(means) < 0.0)
            zero_r = math.atan(math.sqrt(n2 / n1))
            before = curvature(CliffordShape(n1, n2, zero_r - 1e-6)).mean
            after = curvature(CliffordShape(n1, n2, zero_r + 1e-6)).mean
            assert before > 0.0 > after


class TestParallelJacobian:
    def test_identity_at_zero(self):
        for shape in random_shapes(20, seed=17):
            assert parallel_jacobian(shape, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_explicit_value(self):
        # Factors (cos t + kappa_i sin t) over the principal curvatures,
        # assembled independently of the implementation's ratio form.
        shape = CliffordShape(2, 1, 0.3)
        t = 0.2
        expected = (math.cos(0.5) / math.cos(0.3)) ** 2 * (
            math.sin(0.5) / math.sin(0.3)
        )
        assert parallel_jacobian(shape, t) == pytest.approx(expected, rel=1e-13)
        data = curvature(shape)
        factors = (math.cos(t) + data.kappa1 * math.sin(t)) ** shape.n1 * (
            math.cos(t) + data.kappa2 * math.sin(t)
        ) ** shape.n2
        assert parallel_jacobian(shape, t) == pytest.approx(factors, rel=1e-12)

    def test_focal_collapse_is_exact_zero(self):
        # r = 1/4 is a power of two, so r + (HALF_PI - r) reconstitutes
        # HALF_PI exactly and the collapsing cosine factor must be dropped.
        shape = CliffordShape(1, 1, 0.25)
        assert parallel_jacobian(shape, HALF_PI - 0.25) == 0.0
        shape2 = CliffordShape(2, 3, 0.25)
        assert parallel_jacobian(shape2, -0.25) == 0.0

    @pytest.mark.parametrize("n1,n2", [(0, 3), (1, 1), (1, 2), (2, 3), (5, 0)])
    def test_array_equals_scalar_calls(self, n1, n2):
        # Element 0 sits at the focal latitude r + t = pi/2 (exactly, as in
        # test_focal_collapse_is_exact_zero), element 1 past it, element 2
        # at r + t = 0; the rest flow both ways from seeded latitudes.
        rng = np.random.default_rng(29)
        rs = np.concatenate([[0.25, 0.4, 0.3], LATITUDES])
        ts = np.concatenate(
            [[HALF_PI - 0.25, HALF_PI - 0.4 + 0.05, -0.3], rng.uniform(-0.5, 0.5, LATITUDES.size)]
        )
        whole = parallel_jacobian(CliffordShape(n1, n2, rs), ts)
        assert isinstance(whole, np.ndarray) and whole.shape == rs.shape
        singles = [
            parallel_jacobian(CliffordShape(n1, n2, r), t) for r, t in zip(rs.tolist(), ts.tolist())
        ]
        assert all(type(v) is float for v in singles)
        assert [v.hex() for v in whole.tolist()] == [v.hex() for v in singles]
        if n1 > 0:
            assert whole[0] == 0.0
        assert (whole[1] < 0.0) == (n1 % 2 == 1)
        if n2 > 0:
            assert whole[2] == 0.0

    def test_t_broadcasts_against_latitudes(self):
        ts = np.linspace(-0.2, 0.6, 9)
        moved = parallel_jacobian(CliffordShape(2, 3, 0.5), ts)
        assert moved.tolist() == [parallel_jacobian(CliffordShape(2, 3, 0.5), t) for t in ts.tolist()]
        rs = np.linspace(0.1, 1.2, 9)
        fixed = parallel_jacobian(CliffordShape(2, 3, rs), 0.3)
        assert fixed.tolist() == [parallel_jacobian(CliffordShape(2, 3, r), 0.3) for r in rs.tolist()]

    @pytest.mark.parametrize("t", [np.zeros(3), np.zeros((2, 2))], ids=["length", "2-D"])
    def test_rejects_t_of_another_shape(self, t):
        with pytest.raises(ValueError):
            parallel_jacobian(CliffordShape(1, 2, np.array([0.3, 0.4])), t)

    def test_area_transport(self):
        rng = np.random.default_rng(19)
        for shape in random_shapes(200, seed=23):
            room = HALF_PI - shape.r - 0.01
            t = float(rng.uniform(0.0, room))
            moved = CliffordShape(shape.n1, shape.n2, shape.r + t)
            lhs = parallel_jacobian(shape, t) * area_sphere(shape)
            assert lhs == pytest.approx(area_sphere(moved), rel=1e-12)

    def test_negative_past_focal_point(self):
        shape = CliffordShape(1, 2, 0.4)
        value = parallel_jacobian(shape, HALF_PI - 0.4 + 0.05)
        assert value < 0.0


class TestQuadraticRoots:
    def test_symmetric_case(self):
        assert quadratic_roots(0.0) == (-1.0, 1.0)

    def test_rational_case(self):
        mu_minus, mu_plus = quadratic_roots(1.5)
        assert mu_minus == pytest.approx(-0.5, rel=1e-14)
        assert mu_plus == pytest.approx(2.0, rel=1e-14)

    def test_ordering_and_product(self):
        for beta0 in (-12.0, -1.0, -1e-8, 0.0, 1e-8, 3.0, 50.0):
            mu_minus, mu_plus = quadratic_roots(beta0)
            assert mu_minus < 0.0 < mu_plus
            assert mu_minus * mu_plus == pytest.approx(-1.0, rel=1e-14)
            assert mu_minus + mu_plus == pytest.approx(beta0, rel=1e-12, abs=1e-14)

    def test_recovers_principal_curvatures(self):
        # The shape operator's polynomial in the opposite sign convention:
        # its roots are exactly the two principal curvatures.
        for shape in random_shapes(100, seed=29):
            data = curvature(shape)
            mu_minus, mu_plus = quadratic_roots(-data.beta)
            assert mu_minus == pytest.approx(data.kappa1, rel=1e-12)
            assert mu_plus == pytest.approx(data.kappa2, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quadratic_roots(math.inf)
        with pytest.raises(ValueError):
            quadratic_roots(math.nan)


class TestAlgebraicIdentities:
    def test_trace_identity_random(self):
        for shape in random_shapes_with_degenerate(1000, seed=31):
            data = curvature(shape)
            n = shape.n
            residual = data.norm_sq - n + data.beta * n * data.mean
            assert abs(residual) <= 1e-12 * max(1.0, data.norm_sq)

    def test_per_curvature_quadratic(self):
        for shape in random_shapes(500, seed=37):
            data = curvature(shape)
            for kappa in (data.kappa1, data.kappa2):
                residual = kappa * kappa + data.beta * kappa - 1.0
                assert abs(residual) <= 1e-12 * max(1.0, kappa * kappa)

    @settings(max_examples=80, deadline=None)
    @given(
        n1=st.integers(min_value=1, max_value=10),
        n2=st.integers(min_value=1, max_value=10),
        r=st.floats(min_value=0.05, max_value=HALF_PI - 0.05),
    )
    def test_trace_identity_property(self, n1, n2, r):
        data = curvature(CliffordShape(n1, n2, r))
        n = n1 + n2
        residual = data.norm_sq - n + data.beta * n * data.mean
        assert abs(residual) <= 1e-12 * max(1.0, data.norm_sq)


class TestArrayLatitudes:
    @pytest.mark.parametrize("n1,n2", [(0, 3), (1, 1), (2, 5), (6, 0), (4, 4)])
    def test_curvature_and_areas_match_scalar_calls(self, n1, n2):
        def fields(shape):
            data = curvature(shape)
            return (
                data.kappa1,
                data.kappa2,
                data.mean,
                data.norm_sq,
                data.beta,
                area_sphere(shape),
                area_rp(shape),
            )

        assert_elementwise(fields, n1, n2)

    def test_power_with_exponent_array_equals_scalar_calls(self):
        # numpy's power squares exactly only for a scalar exponent 2; the
        # tube batches pass one exponent per element.
        rng = np.random.default_rng(23)
        x = rng.uniform(0.0, 1.0, 6100)
        p = np.repeat(np.arange(61), 100)
        got = clifford._power(x, p)
        each = [clifford._power(v, e) for v, e in zip(x.tolist(), p.tolist())]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in each]
        by_exponent = np.concatenate([clifford._power(x[p == e], e) for e in range(61)])
        assert np.array_equal(got, by_exponent)
        # Only exponent-2 elements are squared: 1e300 to the first is no overflow.
        with np.errstate(over="raise"):
            assert clifford._power(np.array([1e300, 3.0]), np.array([1, 2])).tolist() == [1e300, 9.0]
            assert clifford._power(1e300, 1) == 1e300

    @pytest.mark.parametrize("bad", [0.0, HALF_PI, -0.2, 2.0, math.nan, math.inf])
    def test_rejects_any_element_outside(self, bad):
        rs = LATITUDES.copy()
        rs[40] = bad
        with pytest.raises(ValueError):
            CliffordShape(2, 3, rs)

    def test_rejects_non_vector_arrays(self):
        with pytest.raises(ValueError):
            CliffordShape(2, 3, np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            CliffordShape(2, 3, np.array(0.5))

    def test_keeps_a_read_only_copy(self):
        rs = LATITUDES.copy()
        shape = CliffordShape(2, 3, rs)
        rs[0] = 1.0
        assert shape.r[0] == LATITUDES[0]
        assert shape.cos_r[0] == math.cos(LATITUDES[0])
        with pytest.raises(ValueError):
            shape.r[0] = 1.0

    def test_compares_and_hashes_by_contents(self):
        shape = CliffordShape(2, 3, LATITUDES)
        same = CliffordShape(2, 3, LATITUDES.copy())
        assert shape == same and hash(shape) == hash(same)
        assert len({shape, same}) == 1
        moved = LATITUDES.copy()
        moved[7] = np.nextafter(moved[7], 0.0)
        for other in (
            CliffordShape(2, 3, moved),
            CliffordShape(2, 3, LATITUDES[:-1]),
            CliffordShape(3, 2, LATITUDES),
            CliffordShape(2, 3, float(LATITUDES[0])),
        ):
            assert shape != other


class TestScalarEquality:
    def test_scalar_shapes_compare_and_hash_as_field_tuples(self):
        shape = CliffordShape(2, 3, 0.7)
        assert shape == CliffordShape(2, 3, 0.7)
        assert shape != CliffordShape(2, 3, 0.71)
        assert shape != CliffordShape(3, 2, 0.7)
        assert hash(shape) == hash((2, 3, 0.7))
        assert shape.__eq__((2, 3, 0.7)) is NotImplemented
