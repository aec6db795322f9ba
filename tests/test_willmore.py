"""Willmore tube energies, the area function, and its convexity."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from conftest import HALF_PI, assert_elementwise, random_shapes
from rpiso import willmore
from rpiso.clifford import CliffordShape, area_sphere, curvature
from rpiso.specfn import sphere_area, trigamma
from rpiso.willmore import (
    clifford_area_f,
    energy_minimum,
    logf_second_derivative,
    tube_willmore_energy,
    verify_area_chain,
    width_candidate,
    willmore_report,
)


class TestTubeWillmoreEnergy:
    @pytest.mark.parametrize("n1,n2", [(0, 2), (1, 1), (2, 2), (3, 6), (5, 0)])
    def test_array_matches_scalar_calls(self, n1, n2):
        assert_elementwise(lambda shape: (tube_willmore_energy(shape),), n1, n2)

    def test_minimal_shapes_energy_is_area(self):
        for p, n in ((1, 2), (1, 3), (2, 5), (4, 8)):
            r = math.atan(math.sqrt((n - p) / p))
            shape = CliffordShape(p, n - p, r)
            assert tube_willmore_energy(shape) == pytest.approx(
                area_sphere(shape), rel=1e-12
            )

    def test_square_torus(self):
        shape = CliffordShape(1, 1, math.pi / 4)
        assert tube_willmore_energy(shape) == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_degenerate_family_is_constant(self):
        for n in (2, 4, 7):
            expected = 2.0 * sphere_area(n)
            for r in np.linspace(0.05, HALF_PI - 0.05, 50):
                shape = CliffordShape(0, n, float(r))
                assert tube_willmore_energy(shape) == pytest.approx(
                    expected, rel=1e-10
                )

    def test_am_gm_chain(self):
        # With every factor cos t + kappa_i sin t positive, the geometric
        # mean is at most the arithmetic mean (cos t + H sin t), which the
        # Cauchy-Schwarz bound caps at sqrt(1 + H^2).
        rng = np.random.default_rng(53)
        for shape in random_shapes(1000, seed=59):
            data = curvature(shape)
            t = float(rng.uniform(0.0, HALF_PI - shape.r - 0.01))
            f1 = math.cos(t) + data.kappa1 * math.sin(t)
            f2 = math.cos(t) + data.kappa2 * math.sin(t)
            prod = f1**shape.n1 * f2**shape.n2
            arith = (math.cos(t) + data.mean * math.sin(t)) ** shape.n
            cap = (1.0 + data.mean**2) ** (shape.n / 2.0)
            assert prod <= arith * (1.0 + 1e-12)
            assert arith <= cap * (1.0 + 1e-12)

    def test_am_gm_equality_only_when_umbilic(self):
        t = 0.2
        shape = CliffordShape(0, 3, 0.6)
        data = curvature(shape)
        f2 = math.cos(t) + data.kappa2 * math.sin(t)
        prod = f2**3
        arith = (math.cos(t) + data.mean * math.sin(t)) ** 3
        assert prod == pytest.approx(arith, rel=1e-12)
        mixed = CliffordShape(1, 2, 0.6)
        mdata = curvature(mixed)
        mf1 = math.cos(t) + mdata.kappa1 * math.sin(t)
        mf2 = math.cos(t) + mdata.kappa2 * math.sin(t)
        assert mf1 * mf2**2 < (math.cos(t) + mdata.mean * math.sin(t)) ** 3 * (1 - 1e-9)


class TestCliffordAreaF:
    def test_n2_midpoint(self):
        assert clifford_area_f(2, 1.0) == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_symmetry(self):
        for n in (2, 3, 7, 15):
            for x in (0.3, 1.0, n / 3.0):
                assert clifford_area_f(n, x) == pytest.approx(
                    clifford_area_f(n, n - x), rel=1e-12
                )

    def test_edge_limit_is_doubled_sphere(self):
        for n in (2, 5, 9):
            bound = 2.0 * sphere_area(n)
            assert clifford_area_f(n, 1e-8) == pytest.approx(bound, rel=1e-5)

    def test_matches_minimal_clifford_area(self):
        for n in range(2, 21):
            for p in range(1, n):
                r = math.atan(math.sqrt((n - p) / p))
                shape = CliffordShape(p, n - p, r)
                assert clifford_area_f(n, float(p)) == pytest.approx(
                    area_sphere(shape), rel=1e-12
                )

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            clifford_area_f(3, 0.0)
        with pytest.raises(ValueError):
            clifford_area_f(3, 3.0)
        with pytest.raises(ValueError):
            clifford_area_f(1, 0.5)

    @pytest.mark.parametrize("n", [2, 3, 9, 50, 437])
    def test_array_equals_scalar_calls(self, n):
        xs = np.concatenate(
            [
                np.arange(1.0, n),
                np.random.default_rng(n).uniform(0.0, n, 100),
                [1e-300, n - 1e-13],
            ]
        )
        vals = clifford_area_f(n, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        singles = [clifford_area_f(n, x) for x in xs.tolist()]
        assert all(type(v) is float for v in singles)
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in singles]

    @pytest.mark.parametrize("n", [2, 3, 437])
    def test_subnormal_x_takes_the_edge_limit(self, n):
        # x / n underflows to 0 there, and x log(x / n) takes its limit 0
        # instead of 0 * -inf; the test configuration turns the divide
        # warning into an error.  The value is the one at x = 1e-300, where
        # nothing underflows; the log-space sum, of terms up to ~700 at
        # n = 437, is within 1e-13 relative of the closed form.
        edge = clifford_area_f(n, 1e-300)
        assert edge == pytest.approx(2.0 * sphere_area(n), rel=1e-13, abs=0.0)
        for x in (5e-324, 1e-323):
            assert clifford_area_f(n, x) == edge
            both = clifford_area_f(n, np.array([x, 1.0]))
            assert both.tolist() == [edge, clifford_area_f(n, 1.0)]

    @pytest.mark.parametrize(
        "xs",
        [[1.0, 0.0], [1.0, 3.0], [1.0, -0.5], [1.0, math.nan], [[1.0, 2.0]]],
        ids=["zero", "n", "negative", "nan", "2-D"],
    )
    def test_array_rejects_bad_element_or_shape(self, xs):
        with pytest.raises(ValueError, match=r"float or 1-D array in \(0, 3\)"):
            clifford_area_f(3, np.array(xs))


class TestLogfSecondDerivative:
    def test_positive_on_dense_grids(self):
        for n in (2, 3, 9, 25, 50):
            for x in np.linspace(0.01 * n, 0.99 * n, 500):
                assert logf_second_derivative(n, float(x)) > 0.0

    @pytest.mark.parametrize("n", [2, 3, 9, 25, 50])
    def test_array_equals_scalar_calls(self, n):
        xs = np.concatenate(
            [
                np.linspace(0.01 * n, 0.99 * n, 500),
                np.random.default_rng(n).uniform(0.0, n, 100),
                [1e-300, 5e-324, n - 1e-13],
            ]
        )
        vals = logf_second_derivative(n, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        singles = [logf_second_derivative(n, x) for x in xs.tolist()]
        assert all(type(v) is float for v in singles)
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in singles]

    @pytest.mark.parametrize(
        "xs",
        [[1.0, 0.0], [1.0, 3.0], [1.0, -0.5], [1.0, math.nan], [[1.0, 2.0]]],
        ids=["zero", "n", "negative", "nan", "2-D"],
    )
    def test_array_rejects_bad_element_or_shape(self, xs):
        with pytest.raises(ValueError, match=r"float or 1-D array in \(0, 3\)"):
            logf_second_derivative(3, np.array(xs))

    def test_symmetry_point(self):
        for n in (2, 4, 10):
            mid = n / 2.0
            value = logf_second_derivative(n, mid)
            assert value > 0.0
            assert value == pytest.approx(
                -0.5 * trigamma(0.5 * (mid + 1.0)) + 1.0 / mid, rel=1e-12
            )

    def test_stone_bound(self):
        for x in (0.5, 1.0, 2.0, 5.0, 20.0):
            assert trigamma(x + 0.5) < 1.0 / x

    def test_finite_difference_oracle(self):
        h = 1e-4
        for n, x in ((2, 1.3), (3, 0.7), (7, 0.3)):
            fd = (
                math.log(clifford_area_f(n, x + h))
                - 2.0 * math.log(clifford_area_f(n, x))
                + math.log(clifford_area_f(n, x - h))
            ) / (h * h)
            assert logf_second_derivative(n, x) == pytest.approx(fd, rel=1e-5)


class TestAreaChain:
    def test_small_dimensions(self):
        assert verify_area_chain(2)
        assert verify_area_chain(3)

    def test_n2_numbers(self):
        assert 2.0 * sphere_area(2) == pytest.approx(8.0 * math.pi, rel=1e-12)
        assert 8.0 * math.pi > 2.0 * math.pi**2

    def test_n3_candidates_tie(self):
        assert clifford_area_f(3, 1.0) == pytest.approx(clifford_area_f(3, 2.0), rel=1e-12)

    def test_through_n50(self):
        for n in range(2, 51):
            assert verify_area_chain(n)

    def test_array_equals_per_n_calls(self, monkeypatch):
        ns = np.arange(2, 51)
        verdicts = verify_area_chain(ns)
        assert isinstance(verdicts, np.ndarray) and verdicts.dtype == bool
        assert verdicts.tolist() == [verify_area_chain(n) for n in ns.tolist()]
        # A chain that fails at one n fails only that element.
        real = willmore._chain_holds
        monkeypatch.setattr(willmore, "_chain_holds", lambda ns: (ns != 7) & real(ns))
        assert verify_area_chain(ns).tolist() == [n != 7 for n in ns.tolist()]
        assert verify_area_chain(7) is False

    def test_every_dimension_equals_per_n_calls(self):
        # Up to n = 437, where sigma_n is close to subnormal.
        ns = np.arange(2, 438)
        assert verify_area_chain(ns).tolist() == [verify_area_chain(n) for n in ns.tolist()]

    def test_empty_array(self):
        verdicts = verify_area_chain(np.array([], dtype=int))
        assert isinstance(verdicts, np.ndarray) and verdicts.dtype == bool
        assert verdicts.shape == (0,)

    def test_one_pass_chain_equals_per_n_scalar_chain(self, monkeypatch):
        # The per-n chain of scalar calls, 2 |S^n| > f(p) >= sigma_n for
        # p = 1..n-1, against the one pass; then an area raised above the
        # bound at n = 9 only fails that n.
        def per_n(n):
            bound = 2.0 * sphere_area(n)
            lowest = width_candidate(n) * (1.0 - 1e-12)
            return all(lowest <= clifford_area_f(n, float(p)) < bound for p in range(1, n))

        ns = np.arange(2, 60)
        assert willmore._chain_holds(ns).tolist() == [per_n(n) for n in ns.tolist()]
        real = willmore._area_f
        monkeypatch.setattr(
            willmore, "_area_f", lambda n, x: real(n, x) * np.where((n == 9) & (x == 3.0), 1e3, 1.0)
        )
        assert willmore._chain_holds(ns).tolist() == [n != 9 for n in ns.tolist()]

    def test_one_pass_convexity_grids_equal_per_n_grids(self):
        # The grids of every n, in one pass of the formula, hold the doubles
        # of logf_second_derivative on each n's own grid.
        ns = np.arange(2, 51)
        xs = np.linspace(0.01 * ns, 0.99 * ns, 1000, axis=1)
        whole = willmore._logf_second_derivative(np.repeat(ns, 1000), xs.ravel()).reshape(xs.shape)
        for n, row in zip(ns.tolist(), whole):
            alone = logf_second_derivative(n, np.linspace(0.01 * n, 0.99 * n, 1000))
            assert row.tobytes() == alone.tobytes(), n

    @pytest.mark.parametrize(
        "ns,match",
        [
            (np.array([[2, 3]]), "1-D integer array"),
            (np.array([2.0, 3.0]), "^n must be an integer, got 2.0$"),
            (np.array([True, False]), "^n must be an integer, got True$"),
            (np.array([3, 438]), "^n must be <= 437, got 438$"),
            (np.array([3, 1]), "^n must be >= 2, got 1$"),
        ],
        ids=["2-D", "float", "bool", "438", "1"],
    )
    def test_array_rejects_bad_dimension(self, ns, match):
        with pytest.raises(ValueError, match=match):
            verify_area_chain(ns)


class TestWidthCandidate:
    def test_n2(self):
        assert width_candidate(2) == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_n3(self):
        expected = 16.0 * math.pi**2 / (3.0 * math.sqrt(3.0))
        assert width_candidate(3) == pytest.approx(expected, rel=1e-12)

    def test_n4_is_balanced_value(self):
        assert width_candidate(4) == clifford_area_f(4, 2.0)


class TestEnergyMinimum:
    def test_n2_clifford_torus(self):
        energy, k, r = energy_minimum(2, 4000)
        assert k == 1
        assert energy == pytest.approx(2.0 * math.pi**2, rel=1e-6)
        assert r == pytest.approx(math.pi / 4.0, abs=1e-3)

    def test_n3_balanced(self):
        energy, k, r = energy_minimum(3, 4000)
        assert k in (1, 2)
        assert energy == pytest.approx(clifford_area_f(3, 1.0), rel=1e-6)
        assert r == pytest.approx(math.atan(math.sqrt(2.0)), abs=1e-3)

    def test_minimum_in_r_at_balanced_latitude(self):
        n = 5
        for k in (1, 2, 3, 4):
            balanced = math.atan(math.sqrt((n - k) / k))
            base = tube_willmore_energy(CliffordShape(k, n - k, balanced))
            for dr in (-0.05, 0.05):
                shifted = tube_willmore_energy(CliffordShape(k, n - k, balanced + dr))
                assert shifted > base

    def test_no_tube_beats_balanced_area(self):
        for n in (2, 4, 7):
            target = width_candidate(n)
            for k in range(n + 1):
                for r in np.linspace(0.1, HALF_PI - 0.1, 60):
                    shape = CliffordShape(k, n - k, float(r))
                    assert tube_willmore_energy(shape) >= target * (1.0 - 1e-9)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            energy_minimum(3, 500)

    @staticmethod
    def _reference_loop(n, samples):
        # Best so far over the families, each at its first minimum in r; a
        # family whose first minimum is NaN never compares below the best.
        r = HALF_PI * (np.arange(1, samples + 1) / (samples + 1))
        best = (math.inf, -1, math.nan)
        for k in range(n + 1):
            energy = tube_willmore_energy(CliffordShape(k, n - k, r))
            j = int(np.argmin(energy))
            if energy[j] < best[0]:
                best = (float(energy[j]), k, float(r[j]))
        return best

    @pytest.mark.parametrize("samples", [1000, 10_000])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_per_family_reference_loop(self, n, samples):
        assert energy_minimum(n, samples) == self._reference_loop(n, samples)

    @pytest.mark.parametrize("n", [100, 150, 200])
    def test_large_n_matches_reference_loop_and_width(self, n):
        # Area underflow against (1 + H^2)^(n/2) overflow at the grid ends
        # once made families NaN (n >= 82) or every family NaN (n >= 147).
        got = energy_minimum(n)
        assert got == self._reference_loop(n, 10_000)
        # pi/4 falls between grid points, so the balanced family's grid
        # minimum can lose to a neighbour's by the grid error.
        assert abs(got[1] - n / 2) <= 1
        assert got[0] == pytest.approx(width_candidate(n), rel=2e-6)
        # On an odd grid pi/4 is a grid point and the balanced family wins.
        energy, k, r = energy_minimum(n, 10_001)
        assert (k, r) == (n // 2, math.pi / 4)
        assert energy == pytest.approx(width_candidate(n), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 50, 146, 150, 200])
    def test_degenerate_families_stay_constant_at_the_grid_ends(self, n):
        # There the area underflows to 0 and (1 + H^2)^(n/2) overflows.
        r = np.array([HALF_PI / 10_001, HALF_PI * 10_000 / 10_001])
        bound = 2.0 * sphere_area(n)
        for k in (0, n):
            energy = tube_willmore_energy(CliffordShape(k, n - k, r))
            np.testing.assert_allclose(energy, bound, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 10, 50])
    def test_mirror_families_tie_exactly(self, n):
        # E(k, r) = E(n - k, pi/2 - r), given the cos and sin of the one
        # latitude swapped, so the smaller k wins the tie.
        r = np.linspace(0.05, HALF_PI - 0.05, 41)
        for k in range(n + 1):
            shape = CliffordShape(k, n - k, r)
            mirror = CliffordShape(n - k, k, HALF_PI - r)
            object.__setattr__(mirror, "cos_r", shape.sin_r)
            object.__setattr__(mirror, "sin_r", shape.cos_r)
            assert np.array_equal(tube_willmore_energy(shape), tube_willmore_energy(mirror))


class TestWillmoreReport:
    def test_fields(self):
        report = willmore_report(4, 2000)
        assert report.n == 4
        assert report.sigma_n == width_candidate(4)
        assert report.chain_ok and report.convexity_ok
        assert report.min_energy == pytest.approx(report.sigma_n, rel=1e-5)
        assert report.argmin_k == 2


class TestLargestDimension:
    """Areas and energies of dimension n are normal doubles up to n = 437;
    beyond it they would be subnormal, so n = 438 is rejected."""

    def test_n437_answers_normal_doubles(self):
        n = 437
        values = [
            width_candidate(n),
            2.0 * sphere_area(n),
            energy_minimum(n, 1000)[0],
            min(clifford_area_f(n, float(p)) for p in range(1, n)),
        ]
        assert all(v >= sys.float_info.min for v in values), values
        assert verify_area_chain(n)

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: clifford_area_f(n, 1.0),
            width_candidate,
            verify_area_chain,
            energy_minimum,
            willmore_report,
        ],
        ids=["clifford_area_f", "width_candidate", "verify_area_chain", "energy_minimum", "report"],
    )
    def test_n438_rejected(self, call):
        with pytest.raises(ValueError, match=r"^n must be <= 437, got 438$"):
            call(438)
