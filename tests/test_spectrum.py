"""Eigenvalues, stability margins, and the closed-form latitude interval."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import HALF_PI, LATITUDES, assert_elementwise, random_shapes
from rpiso.clifford import CliffordShape, curvature
from rpiso.spectrum import (
    STABILITY_SLACK,
    first_even_eigenvalue,
    laplace_eigenvalue,
    stability_interval,
    stability_margin,
    stability_report,
)


class TestLaplaceEigenvalue:
    def test_constants_have_zero_eigenvalue(self):
        for shape in random_shapes(20, seed=41):
            assert laplace_eigenvalue(shape, 0, 0) == 0.0

    def test_square_torus_degree_one(self):
        shape = CliffordShape(1, 1, math.pi / 4)
        assert laplace_eigenvalue(shape, 1, 1) == pytest.approx(4.0, rel=1e-12)

    def test_tilted_torus_degree_two(self):
        shape = CliffordShape(1, 1, math.pi / 3)
        assert laplace_eigenvalue(shape, 2, 0) == pytest.approx(16.0, rel=1e-12)

    def test_zero_iff_constant(self):
        shape = CliffordShape(2, 3, 0.7)
        for k1, k2 in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (3, 2)):
            assert laplace_eigenvalue(shape, k1, k2) > 0.0

    def test_degenerate_factor_degree_guard(self):
        shape = CliffordShape(0, 3, 0.7)
        assert laplace_eigenvalue(shape, 1, 0) >= 0.0
        with pytest.raises(ValueError):
            laplace_eigenvalue(shape, 2, 0)
        with pytest.raises(ValueError):
            laplace_eigenvalue(shape, 0, -1)


class TestFirstEvenEigenvalue:
    def test_square_torus(self):
        mode = first_even_eigenvalue(CliffordShape(1, 1, math.pi / 4))
        assert (mode.k1, mode.k2) == (1, 1)
        assert mode.value == pytest.approx(4.0, rel=1e-12)

    def test_tie_at_interval_endpoint(self):
        mode = first_even_eigenvalue(CliffordShape(1, 1, math.pi / 3))
        assert mode.value == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_balanced_2_2(self):
        mode = first_even_eigenvalue(CliffordShape(2, 2, math.pi / 4))
        assert (mode.k1, mode.k2) == (1, 1)
        assert mode.value == pytest.approx(8.0, rel=1e-12)

    def test_brute_force_never_beats_candidates(self):
        even_modes = [
            (k1, k2)
            for k1 in range(7)
            for k2 in range(7)
            if 0 < k1 + k2 <= 6 and (k1 + k2) % 2 == 0
        ]
        for shape in random_shapes(300, seed=43, max_factor=6):
            best = first_even_eigenvalue(shape).value
            brute = min(laplace_eigenvalue(shape, k1, k2) for k1, k2 in even_modes)
            assert brute >= best * (1.0 - 1e-14)

    def test_rejects_degenerate_factor(self):
        with pytest.raises(ValueError):
            first_even_eigenvalue(CliffordShape(0, 2, 0.5))


class TestStabilityMargin:
    def test_zero_at_square_torus(self):
        assert abs(stability_margin(CliffordShape(1, 1, math.pi / 4))) <= 1e-12

    def test_zero_at_interval_endpoint(self):
        assert abs(stability_margin(CliffordShape(1, 1, math.pi / 3))) <= 1e-12

    def test_negative_outside(self):
        # tan(pi/2.5) > sqrt(3), past the upper endpoint for (1, 1).
        assert stability_margin(CliffordShape(1, 1, math.pi / 2.5)) < -1e-3

    def test_never_positive_beyond_noise(self):
        # The degree-(1,1) mode solves the Jacobi equation at every
        # latitude, so the margin can only be zero or negative.
        for shape in random_shapes(500, seed=47):
            assert stability_margin(shape) <= 1e-10


class TestStabilityInterval:
    def test_1_1_endpoints(self):
        lo, hi = stability_interval(1, 1)
        assert lo == pytest.approx(math.pi / 6.0, rel=1e-12)
        assert hi == pytest.approx(math.pi / 3.0, rel=1e-12)

    def test_2_2_endpoints(self):
        lo, hi = stability_interval(2, 2)
        assert lo == pytest.approx(math.atan(1.0 / math.sqrt(2.0)), rel=1e-12)
        assert hi == pytest.approx(math.atan(math.sqrt(2.0)), rel=1e-12)

    def test_swap_reflection(self):
        for n1, n2 in ((1, 2), (3, 1), (2, 5), (4, 4)):
            lo12, _ = stability_interval(n1, n2)
            _, hi21 = stability_interval(n2, n1)
            assert lo12 == pytest.approx(HALF_PI - hi21, rel=1e-12)

    def test_minimal_radius_inside(self):
        for n1 in range(1, 20):
            for n2 in range(1, 21 - n1):
                lo, hi = stability_interval(n1, n2)
                minimal = math.atan(math.sqrt(n2 / n1))
                assert lo < minimal < hi

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            stability_interval(0, 3)
        with pytest.raises(ValueError):
            stability_interval(2, 0)


class TestSignAgreement:
    def test_margin_sign_matches_interval(self):
        rs = np.linspace(0.01, HALF_PI - 0.01, 300)
        for n1, n2 in ((1, 1), (1, 3), (2, 2), (3, 2), (1, 4)):
            lo, hi = stability_interval(n1, n2)
            for r in rs:
                margin = stability_margin(CliffordShape(n1, n2, float(r)))
                if lo <= r <= hi:
                    assert margin >= -1e-9
                else:
                    assert margin < 0.0

    def test_endpoint_margins_vanish(self):
        for n1, n2 in ((1, 1), (2, 3), (4, 1), (3, 3)):
            lo, hi = stability_interval(n1, n2)
            for end in (lo, hi):
                margin = stability_margin(CliffordShape(n1, n2, end))
                assert abs(margin) <= 1e-9


class TestGeodesicSphereMargin:
    def test_cancellation_is_real(self):
        # Geodesic spheres are degenerate-stable at every radius: the
        # degree-1 eigenvalue n/sin^2 r equals the potential n + n cot^2 r.
        for n, r in ((2, 0.3), (5, 1.2), (7, 0.9)):
            lam = n / math.sin(r) ** 2
            potential = n + n / math.tan(r) ** 2
            assert lam == pytest.approx(potential, rel=1e-12)


class TestStabilityReport:
    def test_fields_are_consistent(self):
        shape = CliffordShape(2, 3, 0.8)
        report = stability_report(shape)
        assert report.shape is shape
        assert report.lambda1 == report.mode.value
        data = curvature(shape)
        assert report.margin == pytest.approx(
            report.lambda1 - shape.n - data.norm_sq, rel=1e-14
        )
        lo, hi = stability_interval(2, 3)
        assert (report.interval_lo, report.interval_hi) == (lo, hi)
        assert report.stable == (report.margin >= -1e-12)

    def test_array_reports_compare_and_hash_by_contents(self):
        rs = np.linspace(0.1, HALF_PI - 0.1, 50)
        report = stability_report(CliffordShape(2, 3, rs))
        same = stability_report(CliffordShape(2, 3, rs.copy()))
        assert report == same and hash(report) == hash(same)
        assert report != stability_report(CliffordShape(2, 3, rs[:-1]))

    @pytest.mark.parametrize("n1", range(1, 7))
    def test_equals_the_public_functions_it_replaces(self, n1):
        # The report runs the unchecked kernels; its doubles are those of the
        # minimum over laplace_eigenvalue, curvature's norm_sq and
        # stability_interval, at float and array latitudes.
        for n2 in range(1, 7):
            for r in (*LATITUDES[::8].tolist(), LATITUDES):
                shape = CliffordShape(n1, n2, r)
                report = stability_report(shape)
                values = [laplace_eigenvalue(shape, *mode) for mode in ((1, 1), (2, 0), (0, 2))]
                lambda1 = np.min(values, axis=0) if isinstance(r, np.ndarray) else min(values)
                margin = lambda1 - shape.n - curvature(shape).norm_sq
                pairs = (
                    (report.lambda1, lambda1),
                    (report.margin, margin),
                    (report.stable, margin >= -STABILITY_SLACK),
                )
                for got, want in pairs:
                    assert type(got) is type(want)
                    assert np.array_equal(got, want)
                assert (report.interval_lo, report.interval_hi) == stability_interval(n1, n2)

    def test_cached_interval_still_checks_its_arguments(self):
        # The interval is memoised per factor pair behind _check_int, so a
        # cached (1, 1) lets neither a zero, a float nor a bool through.
        stability_interval(1, 1)
        for bad in (0, 1.0, True):
            with pytest.raises(ValueError, match="n1 must be"):
                stability_interval(bad, 1)
            with pytest.raises(ValueError, match="n2 must be"):
                stability_interval(1, bad)

    def test_verdict_tracks_interval(self):
        lo, hi = stability_interval(1, 2)
        mid = 0.5 * (lo + hi)
        assert stability_report(CliffordShape(1, 2, mid)).stable
        assert not stability_report(CliffordShape(1, 2, hi + 0.1)).stable


def _float_neighbours(x: float, count: int = 300) -> np.ndarray:
    """x and the count nearest doubles on each side of it."""
    below = [x]
    above = [x]
    for _ in range(count):
        below.append(float(np.nextafter(below[-1], 0.0)))
        above.append(float(np.nextafter(above[-1], 2.0)))
    return np.array(sorted(below[1:] + above))


def _mode_fields(shape):
    mode = first_even_eigenvalue(shape)
    return mode.k1, mode.k2, mode.value


class TestArrayLatitudes:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 4), (3, 2), (5, 5)])
    def test_match_scalar_calls(self, n1, n2):
        def fields(shape):
            report = stability_report(shape)
            return (
                laplace_eigenvalue(shape, 2, 1),
                laplace_eigenvalue(shape, 0, 3),
                *_mode_fields(shape),
                stability_margin(shape),
                report.lambda1,
                report.margin,
                report.stable,
            )

        assert_elementwise(fields, n1, n2)

    def test_ties_resolve_in_candidate_order_per_element(self):
        # Doubles next to the interval endpoints include exact ties between
        # (1, 1) and (2, 0) or (0, 2); each element must pick (1, 1) there,
        # as the scalar call does.
        ties = 0
        for n1, n2 in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (4, 4)):
            lo, hi = stability_interval(n1, n2)
            rs = np.concatenate([_float_neighbours(lo), _float_neighbours(hi)])
            shape = CliffordShape(n1, n2, rs)
            values = np.array(
                [laplace_eigenvalue(shape, k1, k2) for k1, k2 in ((1, 1), (2, 0), (0, 2))]
            )
            tied = (values == values.min(axis=0)).sum(axis=0) > 1
            ties += int(tied.sum())
            mode = first_even_eigenvalue(shape)
            assert np.all(mode.k1[tied] == 1) and np.all(mode.k2[tied] == 1)
            assert_elementwise(_mode_fields, n1, n2, rs)
        assert ties > 0
