"""Tube volumes and perimeters, the profile envelope, and transitions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import HALF_PI, assert_elementwise
from rpiso import profile
from rpiso.profile import (
    CrossingNotFound,
    ProfilePoint,
    Space,
    TubeFamily,
    _solve_handoff,
    _tube_table,
    _volume_grid,
    profile_at,
    profile_curve,
    radius_for_volume,
    successive_check,
    total_volume,
    transition_volumes,
    tube_perimeter,
    tube_volume,
)
from rpiso.spectrum import stability_interval


def rp3_ball_volume(r: float) -> float:
    """Elementary antiderivative of the RP^3 geodesic ball volume."""
    return 2.0 * math.pi * r - math.pi * math.sin(2.0 * r)


def s3_ball_pair_volume(r: float) -> float:
    """Volume of the two antipodal geodesic balls of radius r in S^3."""
    return 4.0 * math.pi * r - 2.0 * math.pi * math.sin(2.0 * r)


class TestTotalVolume:
    def test_rp3_is_half_of_s3(self):
        assert total_volume(3) == pytest.approx(math.pi**2, rel=1e-12)
        assert total_volume(3, Space.SPHERE_ANTIPODAL) == pytest.approx(
            2.0 * math.pi**2, rel=1e-12
        )

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            total_volume(1)


class TestTubeFamily:
    def test_core_dimension_bounds(self):
        TubeFamily(5, 0)
        TubeFamily(5, 4)
        with pytest.raises(ValueError):
            TubeFamily(5, 5)
        with pytest.raises(ValueError):
            TubeFamily(5, -1)
        with pytest.raises(ValueError):
            TubeFamily(1, 0)


class TestTubeVolume:
    def test_rp3_ball_closed_form(self):
        fam = TubeFamily(3, 0)
        for r in (0.2, 0.7, 1.1, 1.5):
            assert tube_volume(fam, r) == pytest.approx(rp3_ball_volume(r), rel=1e-12)

    def test_s3_ball_pair_closed_form(self):
        fam = TubeFamily(3, 0, Space.SPHERE_ANTIPODAL)
        for r in (0.2, 0.7, 1.1, 1.5):
            assert tube_volume(fam, r) == pytest.approx(s3_ball_pair_volume(r), rel=1e-12)

    def test_empty_at_zero(self):
        for k in range(4):
            assert tube_volume(TubeFamily(5, k), 0.0) == 0.0

    def test_full_at_half_pi(self):
        for dim in (3, 5, 8):
            total = total_volume(dim)
            for k in range(dim):
                assert tube_volume(TubeFamily(dim, k), HALF_PI) == pytest.approx(
                    total, rel=1e-10
                )

    def test_strictly_increasing(self):
        fam = TubeFamily(6, 2)
        rs = np.linspace(0.0, HALF_PI, 60)
        vals = [tube_volume(fam, float(r)) for r in rs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_complementation(self):
        for dim, k in ((3, 0), (5, 2), (8, 3), (10, 7)):
            total = total_volume(dim)
            fam = TubeFamily(dim, k)
            opp = TubeFamily(dim, dim - 1 - k)
            for r in (0.3, 0.8, 1.2):
                v = tube_volume(fam, r) + tube_volume(opp, HALF_PI - r)
                assert v == pytest.approx(total, rel=1e-10)

    def test_sphere_mode_doubles_exactly(self):
        fam_rp = TubeFamily(7, 3)
        fam_sp = TubeFamily(7, 3, Space.SPHERE_ANTIPODAL)
        for r in (0.2, 0.9, 1.4):
            assert tube_volume(fam_sp, r) == 2.0 * tube_volume(fam_rp, r)

    def test_rejects_out_of_range_radius(self):
        with pytest.raises(ValueError):
            tube_volume(TubeFamily(3, 0), -0.1)
        with pytest.raises(ValueError):
            tube_volume(TubeFamily(3, 0), HALF_PI + 0.1)


class TestTubePerimeter:
    def test_rp3_sphere_family(self):
        fam = TubeFamily(3, 0)
        for r in (0.3, 0.9, 1.4):
            assert tube_perimeter(fam, r) == pytest.approx(
                4.0 * math.pi * math.sin(r) ** 2, rel=1e-12
            )

    def test_rp3_torus_at_quarter_pi(self):
        assert tube_perimeter(TubeFamily(3, 1), math.pi / 4) == pytest.approx(
            math.pi**2, rel=1e-12
        )

    def test_duality(self):
        for dim, k in ((4, 1), (7, 2), (9, 5)):
            fam = TubeFamily(dim, k)
            dual = TubeFamily(dim, dim - 1 - k)
            for r in (0.4, 1.0):
                assert tube_perimeter(fam, r) == pytest.approx(
                    tube_perimeter(dual, HALF_PI - r), rel=1e-12
                )

    def test_sphere_mode_doubles_exactly(self):
        fam_rp = TubeFamily(6, 2)
        fam_sp = TubeFamily(6, 2, Space.SPHERE_ANTIPODAL)
        for r in (0.5, 1.2):
            assert tube_perimeter(fam_sp, r) == 2.0 * tube_perimeter(fam_rp, r)

    @pytest.mark.parametrize("dim,k", [(3, 0), (5, 2), (8, 7)])
    def test_array_matches_scalar_calls(self, dim, k):
        families = [TubeFamily(dim, k, space) for space in Space]
        assert_elementwise(
            lambda shape: tuple(tube_perimeter(fam, shape.r) for fam in families),
            k,
            dim - 1 - k,
        )


class TestRadiusForVolume:
    def test_round_trip(self):
        for dim in (3, 5, 8):
            total = total_volume(dim)
            for k in range(dim):
                fam = TubeFamily(dim, k)
                for frac in (0.01, 0.2, 0.5, 0.8, 0.99):
                    v = frac * total
                    r = radius_for_volume(fam, v)
                    assert abs(tube_volume(fam, r) - v) <= 1e-12 * total

    def test_balanced_family_splits_at_quarter_pi(self):
        # Odd ambient dimension: the middle k pairs factors of equal
        # dimension, so half volume sits exactly at the square latitude.
        for dim, k in ((3, 1), (5, 2), (7, 3), (9, 4)):
            total = total_volume(dim)
            r = radius_for_volume(TubeFamily(dim, k), total / 2.0)
            assert r == pytest.approx(math.pi / 4.0, abs=1e-11)

    def test_rp3_half_volume_oracle(self):
        # Elementary oracle: bisect 2r - sin 2r = pi/2 directly.
        lo, hi = 0.0, HALF_PI
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 2.0 * mid - math.sin(2.0 * mid) < HALF_PI:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        r = radius_for_volume(TubeFamily(3, 0), math.pi**2 / 2.0)
        assert r == pytest.approx(oracle, abs=1e-10)

    def test_rejects_out_of_range_volume(self):
        fam = TubeFamily(4, 1)
        total = total_volume(4)
        with pytest.raises(ValueError):
            radius_for_volume(fam, 0.0)
        with pytest.raises(ValueError):
            radius_for_volume(fam, total)
        with pytest.raises(ValueError):
            radius_for_volume(fam, -1.0)


def _mp_radius(n: int, k: int, frac: float, r_start: float):
    """40-digit latitude r with I_{sin^2 r}((n-k+1)/2, (k+1)/2) = frac.

    Newton on the log of the fraction (its complement above one half) from
    r_start, run until the 40-digit residual vanishes: the fraction is
    strictly increasing in r, so that root is the only one, wherever the
    start came from.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(n - k + 1) / 2
        b = mpmath.mpf(k + 1) / 2
        y = mpmath.mpf(frac)
        t = mpmath.mpf(r_start)
        upper = y > 0.5
        if upper:
            a, b, y, t = b, a, 1 - y, mpmath.pi / 2 - t
        beta = mpmath.beta(a, b)
        for _ in range(50):
            f = mpmath.betainc(a, b, 0, mpmath.sin(t) ** 2, regularized=True)
            if abs(f - y) <= mpmath.mpf(10) ** -36 * y:
                return float(mpmath.pi / 2 - t if upper else t)
            slope = 2 * mpmath.sin(t) ** (2 * a - 1) * mpmath.cos(t) ** (2 * b - 1) / beta
            t += (mpmath.log(y) - mpmath.log(f)) * f / slope
    raise AssertionError(f"mpmath oracle did not converge for n={n}, k={k}, frac={frac}")


# Volume fractions from deep in the empty tail to within 1e-15 of full:
# both halves of the solve, and the small-radius asymptote below 1e-100.
TAIL_FRACTIONS = np.array(
    [1e-300, 1e-100, 1e-15, 1e-12, 1e-8, 1e-4, 0.5]
    + [1.0 - f for f in (1e-4, 1e-8, 1e-12, 1e-15)]
)


class TestRadiusTails:
    @pytest.mark.parametrize("dim", range(3, 31))
    def test_radius_against_mpmath(self, dim):
        for k in range(dim):
            radii = profile._radii_for_fractions(dim - 1, k, TAIL_FRACTIONS)
            for f, r in zip(TAIL_FRACTIONS.tolist(), radii.tolist()):
                ref = _mp_radius(dim - 1, k, f, r)
                assert abs(r - ref) <= 1e-12 * ref, (k, f, r, ref)

    @pytest.mark.parametrize("dim", range(3, 31))
    def test_best_family_at_both_ends(self, dim):
        total = total_volume(dim)
        assert profile_at(dim, 1e-15 * total).best_k == 0
        assert profile_at(dim, (1.0 - 1e-15) * total).best_k == dim - 1

    def test_raises_when_budget_runs_out(self, monkeypatch):
        fam = TubeFamily(6, 2)
        v = 0.3 * total_volume(6)
        radius_for_volume(fam, v)
        monkeypatch.setattr(profile, "_MAX_RADIUS_STEPS", 1)
        with pytest.raises(RuntimeError, match="steps"):
            radius_for_volume(fam, v)
        with pytest.raises(RuntimeError, match="steps"):
            profile_curve(6, 50)


class TestProfileAt:
    def test_small_volume_selects_sphere(self):
        total = total_volume(3)
        for frac in (0.005, 0.02, 0.1):
            assert profile_at(3, frac * total).best_k == 0

    def test_rp3_half_volume_is_clifford_torus(self):
        point = profile_at(3, math.pi**2 / 2.0)
        assert point.best_k == 1
        assert point.perimeter == pytest.approx(math.pi**2, abs=1e-9)
        assert point.best_r == pytest.approx(math.pi / 4.0, abs=1e-11)

    def test_s3_half_volume_is_clifford_torus(self):
        point = profile_at(3, math.pi**2, Space.SPHERE_ANTIPODAL)
        assert point.best_k == 1
        assert point.perimeter == pytest.approx(2.0 * math.pi**2, rel=1e-12)
        assert point.best_r == pytest.approx(math.pi / 4.0, abs=1e-11)

    def test_beats_every_other_family(self):
        for dim in (4, 6, 9):
            total = total_volume(dim)
            for frac in (0.15, 0.5, 0.85):
                point = profile_at(dim, frac * total)
                for k in range(dim):
                    fam = TubeFamily(dim, k)
                    r = radius_for_volume(fam, frac * total)
                    assert point.perimeter <= tube_perimeter(fam, r) * (1.0 + 1e-12)

    def test_symmetry(self):
        for dim in (3, 5, 7):
            total = total_volume(dim)
            for frac in (0.1, 0.25, 0.4):
                left = profile_at(dim, frac * total).perimeter
                right = profile_at(dim, (1.0 - frac) * total).perimeter
                assert left == pytest.approx(right, rel=1e-8)

    def test_matches_curve_batch_exactly(self):
        # Scalar queries and batched curve evaluation share one solver
        # path, so the doubles must coincide bit for bit.
        points = profile_curve(5, 17)
        for i in (0, 7, 16):
            single = profile_at(5, points[i].volume)
            assert single.perimeter == points[i].perimeter
            assert single.best_r == points[i].best_r
            assert single.best_k == points[i].best_k
        # Elements freeze one by one, so an element solved alone equals the
        # same element of a batch large enough to take the continued
        # fraction's vectorised path, whichever half it falls in.
        fracs = np.concatenate([np.geomspace(1e-15, 0.5, 40), 1.0 - np.geomspace(1e-15, 0.5, 40)])
        for dim, k in ((5, 0), (5, 2), (10, 9)):
            batch = profile._radii_for_fractions(dim - 1, k, fracs)
            for f, r in zip(fracs, batch):
                assert profile._radii_for_fractions(dim - 1, k, np.array([f]))[0] == r

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            profile_at(3, 0.0)
        with pytest.raises(ValueError):
            profile_at(3, total_volume(3))


class TestProfileCurve:
    def test_ordering_and_length(self):
        points = profile_curve(4, 101)
        assert len(points) == 101
        vols = [p.volume for p in points]
        assert vols == sorted(vols)

    def test_extremes_are_cheap(self):
        points = profile_curve(5, 201)
        perims = [p.perimeter for p in points]
        mid = perims[len(perims) // 2]
        assert perims[0] < 0.25 * mid
        assert perims[-1] < 0.25 * mid

    def test_peak_at_half_volume(self):
        points = profile_curve(6, 201)
        perims = np.array([p.perimeter for p in points])
        peak = int(np.argmax(perims))
        assert abs(peak - 100) <= 1

    def test_symmetric_grid(self):
        samples = 500
        points = profile_curve(7, samples)
        worst = 0.0
        for i in range(samples // 2):
            a = points[i].perimeter
            b = points[samples - 1 - i].perimeter
            worst = max(worst, abs(a - b) / max(a, b))
        assert worst <= 1e-8

    def test_points_satisfy_their_own_contract(self):
        total = total_volume(4)
        for p in profile_curve(4, 41):
            fam = TubeFamily(4, p.best_k)
            assert abs(tube_volume(fam, p.best_r) - p.volume) <= 1e-11 * total
            assert tube_perimeter(fam, p.best_r) == pytest.approx(
                p.perimeter, rel=1e-12
            )

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            profile_curve(4, 1)


class TestTransitions:
    def test_rp3_pair_is_complementary(self):
        crossings = transition_volumes(3)
        assert [(k, k2) for k, k2, _ in crossings] == [(0, 1), (1, 2)]
        total = total_volume(3)
        assert crossings[0][2] + crossings[1][2] == pytest.approx(total, rel=1e-9)
        assert 0.0 < crossings[0][2] < total / 2.0

    def test_s3_pair_sums_to_total(self):
        crossings = transition_volumes(3, Space.SPHERE_ANTIPODAL)
        assert crossings[0][2] + crossings[1][2] == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    @pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
    @pytest.mark.parametrize("dim", range(3, 13))
    def test_handoffs_increase_in_k(self, dim, space):
        crossings = transition_volumes(dim, space)
        assert [(k, k2) for k, k2, _ in crossings] == [(k, k + 1) for k in range(dim - 1)]
        vols = [v for _, _, v in crossings]
        assert all(v2 > v1 for v1, v2 in zip(vols, vols[1:]))

    @pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
    @pytest.mark.parametrize("dim", range(3, 13))
    def test_envelope_consistency(self, dim, space):
        for k, k2, v in transition_volumes(dim, space):
            fam_a = TubeFamily(dim, k, space)
            fam_b = TubeFamily(dim, k2, space)
            pa = tube_perimeter(fam_a, radius_for_volume(fam_a, v))
            pb = tube_perimeter(fam_b, radius_for_volume(fam_b, v))
            assert pa == pytest.approx(pb, rel=1e-11)

    def test_complement_pairing(self):
        dim = 6
        total = total_volume(dim)
        crossings = transition_volumes(dim)
        n = dim - 1
        by_pair = {(k, k2): v for k, k2, v in crossings}
        for (k, k2), v in by_pair.items():
            mirror = by_pair[(n - k2, n - k)]
            assert v == pytest.approx(total - mirror, rel=1e-12)

    @staticmethod
    def _scan(dim, k):
        """Scan grid and radii table of RP^dim, and the index of the first
        sign change of the perimeter gap between families k and k + 1."""
        grid = _volume_grid(total_volume(dim), profile._SCAN_POINTS)
        perims, radii = _tube_table(dim, grid)
        gap = perims[k] - perims[k + 1]
        i = int(np.nonzero(np.signbit(gap[:-1]) != np.signbit(gap[1:]))[0][0])
        return grid, radii, i

    def test_crossing_finder_raises_when_budget_runs_out(self, monkeypatch):
        grid, radii, i = self._scan(4, 0)
        bracket = (grid[i], grid[i + 1])
        v = _solve_handoff(4, 0, (radii[0, i], radii[1, i]), bracket)
        assert bracket[0] <= v <= bracket[1]
        # Started near empty volume, Newton wanders without converging.
        with pytest.raises(CrossingNotFound, match="steps"):
            _solve_handoff(4, 0, (radii[0, 0], radii[1, 0]), bracket)
        # From the scan start it needs more than one step.
        monkeypatch.setattr(profile, "_MAX_NEWTON", 1)
        with pytest.raises(CrossingNotFound, match="steps"):
            transition_volumes(4)

    def test_crossing_finder_raises_outside_scan_bracket(self):
        grid, radii, i = self._scan(3, 0)
        start = (radii[0, i], radii[1, i])
        with pytest.raises(CrossingNotFound, match="bracket"):
            _solve_handoff(3, 0, start, (grid[i + 1], grid[i + 2]))
        # Started near empty volume, an iterate leaves (0, pi/2).
        far = (radii[0, 0], radii[1, 0])
        with pytest.raises(CrossingNotFound, match="left"):
            _solve_handoff(3, 0, far, (grid[i], grid[i + 1]))


class TestSuccessive:
    def test_small_dimensions(self):
        for dim in (3, 4, 5):
            assert successive_check(dim, 300)

    def test_sphere_mode_matches(self):
        assert successive_check(4, 300, Space.SPHERE_ANTIPODAL)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            successive_check(4, 50)


class TestStabilityCrossCheck:
    def test_interior_arcs_are_stable(self):
        for dim in (4, 6, 8):
            n = dim - 1
            for p in profile_curve(dim, 120):
                if 1 <= p.best_k <= n - 1:
                    lo, hi = stability_interval(p.best_k, n - p.best_k)
                    assert lo - 1e-9 <= p.best_r <= hi + 1e-9
