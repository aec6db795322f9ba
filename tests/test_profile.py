"""Tube volumes and perimeters, the profile envelope, and transitions."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from conftest import HALF_PI, assert_elementwise
from rpiso import profile
from rpiso.profile import (
    CrossingNotFound,
    ProfilePoint,
    Space,
    TubeFamily,
    profile_at,
    profile_curve,
    radius_for_volume,
    successive_check,
    total_volume,
    transition_volumes,
    tube_perimeter,
    tube_volume,
)
from rpiso.specfn import sphere_area
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

    def test_rejects_a_space_that_is_not_a_space(self):
        with pytest.raises(ValueError, match="space must be a Space, got 'rp'"):
            total_volume(3, "rp")

    def test_last_dimension_with_a_normal_total(self):
        assert total_volume(436) >= sys.float_info.min
        for space in Space:
            with pytest.raises(ValueError, match="ambient_dim must be <= 436"):
                total_volume(437, space)
        with pytest.raises(ValueError, match="ambient_dim must be <= 436"):
            TubeFamily(437, 0)

    def test_cached_total_still_checks_its_argument(self):
        # The RP total is memoised per dimension behind _check_int, so a
        # cached d lets neither a float nor a bool through.
        total_volume(3)
        for bad in (3.0, True):
            with pytest.raises(ValueError, match="ambient_dim must be an integer"):
                total_volume(bad)

    def test_cached_total_is_half_the_sphere(self):
        for _ in range(2):  # cold, then cached
            for dim in range(2, 437):
                assert total_volume(dim) == 0.5 * sphere_area(dim)
                assert total_volume(dim, Space.SPHERE_ANTIPODAL) == 2.0 * (0.5 * sphere_area(dim))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [2, 3, 10, 57, 100, 200, 300, 400, 434, 435, 436])
    def test_profile_answers_up_to_the_last_dimension(self, dim):
        # Perimeters are normal at half volume only: at 1e-300 of the total
        # they are subnormal from dim 57, and near the total from dim 423.
        # 1e-300 * total itself underflows to 0 from about dim 74.
        total = total_volume(dim)
        half = profile_at(dim, 0.5 * total)
        assert sys.float_info.min <= half.perimeter < math.inf
        assert profile_at(dim, math.nextafter(total, 0.0)).best_k == dim - 1
        if 1e-300 * total > 0.0:
            assert profile_at(dim, 1e-300 * total).best_k == 0


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


def _mp_handoff_fraction(n: int, k: int, f_start: float) -> float:
    """40-digit volume fraction at which tube families k and k + 1 have
    equal perimeter, by mpmath's secant search from f_start; each radius is
    an mpmath root of the volume fraction, started from rpiso's radius."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):

        def perimeter(j, y):
            a = mpmath.mpf(n - j + 1) / 2
            b = mpmath.mpf(j + 1) / 2
            start = float(profile._radii_for_fractions(n, j, np.array([float(y)]))[0])
            r = mpmath.findroot(
                lambda t: mpmath.betainc(a, b, 0, mpmath.sin(t) ** 2, regularized=True) - y,
                start,
            )
            # |S^j| |S^(n-j)| / 2 = 2 pi^(a + b) / (Gamma(a) Gamma(b))
            area = 2 * mpmath.pi ** (a + b) / (mpmath.gamma(a) * mpmath.gamma(b))
            return area * mpmath.cos(r) ** j * mpmath.sin(r) ** (n - j)

        y = mpmath.findroot(lambda y: perimeter(k, y) - perimeter(k + 1, y), mpmath.mpf(f_start))
        return float(y)


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

    @pytest.mark.parametrize("dim", [3, 10, 30, 60])
    def test_bulk_radius_against_mpmath(self, dim):
        # Seeded interior fractions: most elements stop on the Halley error
        # estimate, without the evaluation that would confirm the step.
        pytest.importorskip("mpmath")
        fracs = np.random.default_rng(dim).uniform(1e-3, 1.0 - 1e-3, 20)
        for k in range(dim):
            radii = profile._radii_for_fractions(dim - 1, k, fracs)
            for f, r in zip(fracs.tolist(), radii.tolist()):
                ref = _mp_radius(dim - 1, k, f, r)
                assert abs(r - ref) <= 1e-13 * ref, (k, f, r, ref)

    def test_radius_at_dimension_300(self):
        # From dimension 236 on, the start-table slopes of the high mirror
        # families overflow; those starts fall back to the asymptote, with
        # no RuntimeWarning, which the test configuration turns into an error.
        n = 299
        fracs = np.array([1e-100, 1e-8, 0.3, 0.5, 0.7, 1.0 - 1e-8])
        radii = profile._radii_for_fractions(n, n, fracs)
        for f, r in zip(fracs.tolist(), radii.tolist()):
            ref = _mp_radius(n, n, f, r)
            assert abs(r - ref) <= 1e-13 * ref, (f, r, ref)

    @pytest.mark.parametrize(
        "dim, bound", [(10, 4.3e-15), (60, 4.9e-14), (150, 1.4e-13), (300, 3.5e-13), (436, 4.0e-13)]
    )
    def test_start_table_normaliser_against_mpmath(self, dim, bound):
        # The one normaliser of every row, log(1 / B(p, q)), which the
        # fractions, the slopes and the start scale all take, against 40
        # digits: each bound is about 1.5 times the worst error measured.
        mpmath = pytest.importorskip("mpmath")
        n = dim - 1
        ln_norm = profile._start_table(n)[1]
        assert ln_norm.shape == (n + 1,)
        with mpmath.workdps(40):
            for j, value in enumerate(ln_norm.tolist()):
                ref = -mpmath.log(mpmath.beta(mpmath.mpf(n - j + 1) / 2, mpmath.mpf(j + 1) / 2))
                assert abs(value - ref) <= bound, (j, value, ref)

    def test_few_incomplete_beta_evaluations_per_solve(self, monkeypatch):
        # Table starts, Halley steps and the error-estimate stop: under one
        # and a half evaluated elements per (volume, family) radius solve on
        # the profile grids, counting the solves the envelope actually runs
        # and, from a cold cache, the elements that build the start tables.
        # Batches under _FLOAT_BELOW elements evaluate one float at a time.
        profile._start_table.cache_clear()
        evaluated = solved = 0
        solve = profile._invert_lower_fraction

        def counting(betainc):
            def count(x, *args):
                nonlocal evaluated
                evaluated += np.size(x)
                return betainc(x, *args)

            return count

        def counting_solve(n, row, y):
            nonlocal solved
            solved += np.size(y)
            return solve(n, row, y)

        for name in ("_betainc_xc_vec", "_betainc_xc"):
            monkeypatch.setattr(profile, name, counting(getattr(profile, name)))
        monkeypatch.setattr(profile, "_invert_lower_fraction", counting_solve)
        for dim in range(3, 17):
            profile_curve(dim, 2000)
        assert solved > 0
        assert evaluated <= 1.5 * solved

    @pytest.mark.parametrize("size", [1, 31, 32, 33])
    def test_float_and_array_drivers_agree(self, size, monkeypatch):
        # Batches under _FLOAT_BELOW elements solve on floats, larger ones
        # on arrays.  Batches of `size` with mixed rows equal the array
        # driver's, run with _FLOAT_BELOW set to 0, and each element's own
        # float solve bit for bit, for every row of n = 1..40 over y
        # log-uniform in [1e-300, 1/2]: answers that are the asymptote,
        # starts below a row's first positive node, and table starts.  Upper
        # tails up to nextafter(1, 0) go through _radii_for_fractions.  With
        # a one-step budget both drivers raise the same error, or return the
        # same doubles.
        assert profile._FLOAT_BELOW == 32
        rng = np.random.default_rng(size)
        invert = profile._invert_lower_fraction

        def batch(n, row, y):
            with monkeypatch.context() as patch:
                patch.setattr(profile, "_FLOAT_BELOW", 0)
                return invert(n, row, y)

        def outcome(solve, n, row, y):
            try:
                return solve(n, row, y).tolist()
            except RuntimeError as exc:
                return str(exc)

        kinds = np.zeros(3, dtype=int)
        for n in range(1, 41):
            row = rng.permutation(np.tile(np.arange(n + 1), 4))
            y = np.exp(rng.uniform(math.log(1e-300), math.log(0.5), row.size))
            _, _, *start_table = profile._start_table(n)
            with np.errstate(all="ignore"):
                _, exact, table = profile._start(n, row, y, *start_table)
            kinds += exact.sum(), (~exact & ~table).sum(), (~exact & table).sum()
            each = [invert(n, row[i : i + 1], y[i : i + 1])[0] for i in range(row.size)]
            assert batch(n, row, y).tolist() == each
            parts = [slice(i, i + size) for i in range(0, row.size, size)]
            for part in parts:
                assert invert(n, row[part], y[part]).tolist() == each[part]
                assert batch(n, row[part], y[part]).tolist() == each[part]
            upper = np.append(1.0 - np.geomspace(1e-15, 0.5, 39), np.nextafter(1.0, 0.0))
            k = rng.integers(0, n + 1, upper.size)
            radii = profile._radii_for_fractions(n, k, upper).tolist()
            assert radii == [
                profile._radii_for_fractions(n, j, upper[i : i + 1])[0] for i, j in enumerate(k)
            ]
            with monkeypatch.context() as patch:
                patch.setattr(profile, "_MAX_RADIUS_STEPS", 1)
                for part in parts:
                    args = n, row[part], y[part]
                    assert outcome(invert, *args) == outcome(batch, *args)
        assert kinds.min() > 0, kinds

    @pytest.mark.parametrize("dim", range(3, 31))
    def test_best_family_at_both_ends(self, dim):
        total = total_volume(dim)
        assert profile_at(dim, 1e-15 * total).best_k == 0
        assert profile_at(dim, (1.0 - 1e-15) * total).best_k == dim - 1

    def test_float_entry_equals_the_one_element_batch(self, monkeypatch):
        # A float fraction goes straight to the float element and comes back
        # a float, the double of the one-element array call, for every
        # family below, at and above half volume.  With a one-step budget,
        # radius_for_volume raises the array call's error on its element.
        fracs = [1e-300, 1e-9, 0.3, 0.5, 0.7, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]
        for n in (1, 9, 40):
            for k in range(n + 1):
                for f in fracs:
                    r = profile._radii_for_fractions(n, k, f)
                    assert isinstance(r, float) and np.ndim(r) == 0
                    assert r == profile._radii_for_fractions(n, k, np.array([f]))[0]

        def outcome(solve, *args):
            try:
                return float(np.reshape(solve(*args), ()))
            except RuntimeError as exc:
                return str(exc)

        monkeypatch.setattr(profile, "_MAX_RADIUS_STEPS", 1)
        raised = 0
        for n in (1, 9, 40):
            total = total_volume(n + 1)
            volumes = [f * total for f in fracs[1:-1]] + [math.nextafter(total, 0.0)]
            for k in range(n + 1):
                for v in volumes:
                    got = outcome(radius_for_volume, TubeFamily(n + 1, k), v)
                    assert got == outcome(profile._radii_for_fractions, n, k, np.array([v]), total)
                    raised += isinstance(got, str)
        assert raised > 0

    def test_raises_when_budget_runs_out(self, monkeypatch):
        # With one step allowed, solves that finish on it answer, and those
        # that need a second raise and name their mirror families: on floats
        # for one element, on arrays for a profile's 48 node solves.
        fam = TubeFamily(6, 0)
        total = total_volume(6)
        one = radius_for_volume(fam, 0.3 * total)
        batch = profile._radii_for_fractions(5, 2, np.full(40, 0.3))
        monkeypatch.setattr(profile, "_MAX_RADIUS_STEPS", 1)
        assert radius_for_volume(fam, 0.3 * total) == one
        assert np.array_equal(profile._radii_for_fractions(5, 2, np.full(40, 0.3)), batch)
        with pytest.raises(RuntimeError, match=r"after 1 steps .* families j=\[5\]$"):
            radius_for_volume(fam, 0.8 * total)
        with pytest.raises(RuntimeError, match=r"after 1 steps .* families j=\[4, 5\]$"):
            profile_curve(6, 100)


def _rp3_ball_radius(fraction: float) -> float:
    """Radius rho of the RP^3 ball with volume fraction
    (2 rho - sin 2 rho) / pi = fraction, for fractions up to 1e-6 (rho below
    0.02): bisection on the Taylor series of 2 rho - sin 2 rho, whose
    alternating terms shrink fast enough there to sum without cancellation."""

    def ball_fraction(rho):
        x = 2.0 * rho
        odd = range(3, 17, 2)
        return math.fsum((-1) ** (j // 2 + 1) * x**j / math.factorial(j) for j in odd) / math.pi

    lo, hi = 0.0, 0.05
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ball_fraction(mid) < fraction:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mp_top_family_perimeter(n: int, complement: float):
    """40-digit RP^(n+1) area of the tube about RP^n that leaves the volume
    fraction complement outside: its complement is the ball about a point of
    radius s with I_{sin^2 s}((n + 1)/2, 1/2) = complement, and its boundary
    area is |S^n| sin^n s.  Newton on the log of the fraction from the
    small-radius asymptote."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = mpmath.mpf(n + 1) / 2
        q = mpmath.mpf(1) / 2
        y = mpmath.mpf(complement)
        beta = mpmath.beta(p, q)
        s = (y * p * beta) ** (1 / (2 * p))
        for _ in range(60):
            f = mpmath.betainc(p, q, 0, mpmath.sin(s) ** 2, regularized=True)
            if abs(f - y) <= mpmath.mpf(10) ** -36 * y:
                area = 2 * mpmath.pi ** p / mpmath.gamma(p)
                return float(area * mpmath.sin(s) ** n)
            slope = 2 * mpmath.sin(s) ** (2 * p - 1) * mpmath.cos(s) ** (2 * q - 1) / beta
            s += (mpmath.log(y) - mpmath.log(f)) * f / slope
    raise AssertionError(f"mpmath oracle did not converge for n={n}, complement={complement}")


def _upper_tail_volumes(total: float) -> list[float]:
    """(1 - f) total for f = 1e-8, 1e-12, 1e-15, and the last double below
    the total."""
    return [(1.0 - f) * total for f in (1e-8, 1e-12, 1e-15)] + [float(np.nextafter(total, 0.0))]


class TestUpperTail:
    """Just below the total volume the tubes are evaluated through their
    complements, so perimeters keep their relative accuracy up to the last
    double.  The oracles are independent of the package; none of them is
    P(total - v) = P(v), which the mirror evaluation would make true by
    construction."""

    @pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
    def test_rp3_against_closed_form(self, space):
        # Near the total the best tube in RP^3 is the one about RP^2, whose
        # complement is a ball of radius rho: perimeter 4 pi sin^2 rho.
        total = total_volume(3, space)
        cover = total / total_volume(3)
        for v in _upper_tail_volumes(total):
            rho = _rp3_ball_radius((total - v) / total)
            point = profile_at(3, v, space)
            assert point.best_k == 2
            ref = cover * 4.0 * math.pi * math.sin(rho) ** 2
            assert abs(point.perimeter - ref) <= 1e-14 * ref, (v, point.perimeter, ref)
            assert abs(point.best_r - (HALF_PI - rho)) <= 1e-15

    @pytest.mark.parametrize("dim", [10, 30])
    def test_top_family_against_mpmath(self, dim):
        n = dim - 1
        total = total_volume(dim)
        volumes = np.array(_upper_tail_volumes(total))
        perims, _ = _tube_table(dim, volumes)
        for v, perim in zip(volumes.tolist(), perims[n].tolist()):
            ref = _mp_top_family_perimeter(n, (total - v) / total)
            assert abs(perim - ref) <= 1e-13 * ref, (v, perim, ref)

    @pytest.mark.parametrize("space", list(Space), ids=lambda s: s.value)
    @pytest.mark.parametrize("dim", [2, 3, 4, 7, 10, 30, 100])
    def test_last_double_below_total_answers(self, dim, space):
        total = total_volume(dim, space)
        point = profile_at(dim, float(np.nextafter(total, 0.0)), space)
        assert point.best_k == dim - 1
        assert 0.0 < point.perimeter < profile_at(dim, (1.0 - 1e-9) * total, space).perimeter
        assert point.best_r <= HALF_PI


def _tube_table(dim: int, volumes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perimeter, radius) arrays of shape (n + 1, volumes.size) for volumes
    in RP^dim: row k holds tube family k at each volume, every family solved
    at every volume."""
    n = dim - 1
    y, upper = profile._split(np.asarray(volumes, dtype=float), total_volume(dim))
    k = np.repeat(np.arange(n + 1), y.size)
    perims, radii, _ = profile._tubes(n, k, np.tile(y, n + 1), np.tile(upper, n + 1))
    return perims.reshape(n + 1, y.size), radii.reshape(n + 1, y.size)


def _full_argmin(dim: int, volumes: np.ndarray):
    """(best_k, perimeter, radius) from every family solved at every volume."""
    perims, radii = _tube_table(dim, volumes)
    best = np.argmin(perims, axis=0)
    cols = np.arange(volumes.size)
    return best, perims[best, cols], radii[best, cols]


class TestPrunedEnvelope:
    """_envelope solves only the families that can be lowest, yet answers
    exactly as the argmin over the full table."""

    @pytest.mark.parametrize("dim", [3, 5, 10, 40])
    def test_mixed_family_batch_equals_each_familys_own_call(self, dim):
        # Every family at the tail fractions, at fractions small enough that
        # the start is the answer, and at seeded bulk fractions, in one batch.
        n = dim - 1
        fracs = np.concatenate(
            [
                TAIL_FRACTIONS,
                np.geomspace(1e-300, 1e-17, 64),
                np.random.default_rng(dim).uniform(1e-3, 1.0 - 1e-3, 24),
            ]
        )
        k = np.repeat(np.arange(n + 1), fracs.size)
        batch = profile._radii_for_fractions(n, k, np.tile(fracs, n + 1)).reshape(n + 1, -1)
        upper = fracs > 0.5
        for j in range(n + 1):
            # One family over both halves, then over each half on its own,
            # where its parameters are floats rather than arrays.
            assert np.array_equal(profile._radii_for_fractions(n, j, fracs), batch[j])
            for half in (upper, ~upper):
                assert np.array_equal(
                    profile._radii_for_fractions(n, j, fracs[half]), batch[j][half]
                )

    @pytest.mark.parametrize("dim", [3, 10, 40, 150])
    def test_start_table_cache_changes_no_result(self, dim):
        # Every call answers the same from a cold start-table cache and a
        # warm one, bit for bit, and each batch element equals its own call.
        n = dim - 1
        total = total_volume(dim)
        fracs = np.array([1e-300, 1e-13, 0.3, 0.5, 1.0 - 1e-15])
        # 1e-300 of the total underflows at dim 150, so there it is 1e-300.
        volumes = np.append(np.maximum(fracs * total, 1e-300), np.nextafter(total, 0.0))
        k = np.repeat(np.arange(n + 1), volumes.size)
        vols = np.tile(volumes, n + 1)

        def answers():
            fams = [TubeFamily(dim, j) for j in range(n + 1)]
            return (
                [radius_for_volume(fam, v) for fam in fams for v in volumes.tolist()],
                [profile_at(dim, v) for v in volumes.tolist()],
                profile._radii_for_fractions(n, k, vols, total),
                transition_volumes(dim) if dim == 150 else None,
            )

        profile._start_table.cache_clear()
        cold = answers()
        assert profile._start_table.cache_info().currsize > 0
        warm = answers()
        assert cold[:2] == warm[:2] and cold[3] == warm[3]
        assert np.array_equal(cold[2], warm[2])
        # The batch holds both halves of every family, one solve each.
        assert cold[2].tolist() == cold[0]

    @pytest.mark.parametrize(
        "dim,samples",
        [(3, 8000), (5, 6000), (7, 4000), (10, 2500), (13, 2000), (16, 1500)],
    )
    def test_tabulate_grids_in_both_spaces(self, dim, samples):
        best, perim, radius = _full_argmin(dim, profile._volume_grid(total_volume(dim), samples))
        for space in Space:
            points = profile_curve(dim, samples, space)
            cover = total_volume(dim, space) / total_volume(dim)
            assert [p.best_k for p in points] == best.tolist()
            assert [p.perimeter for p in points] == (cover * perim).tolist()
            assert [p.best_r for p in points] == radius.tolist()

    @pytest.mark.parametrize(
        "dim,samples",
        [(d, 2000) for d in range(3, 11)] + [(d, s) for d in (20, 30, 40) for s in (500, 2501)],
    )
    def test_grids_equal_full_argmin(self, dim, samples):
        volumes = profile._volume_grid(total_volume(dim), samples)
        envelope = profile._envelope(dim, volumes, total_volume(dim))
        for got, want in zip(envelope, _full_argmin(dim, volumes)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim,samples", [(100, 300), (436, 100)])
    def test_intervals_holding_several_handoffs_equal_full_argmin(self, dim, samples):
        # On these grids one interval between nodes holds several handoffs,
        # so the family lowest at either end is not the one lowest inside.
        volumes = profile._volume_grid(total_volume(dim), samples)
        envelope = profile._envelope(dim, volumes, total_volume(dim))
        assert np.max(np.diff(envelope[0][:: profile._NODE_STRIDE])) > 1
        for got, want in zip(envelope, _full_argmin(dim, volumes)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("level,certified", [(1.5, False), (2.5, True)])
    def test_certificate_checks_where_the_tangents_cross(self, level, certified):
        # Family 0 runs from 1 to 1 on [0, 1] with end slopes 2 and -2, so
        # its tangents cross at 1/2, at height 2.  A flat family 1 at 1.5
        # clears them at both ends but not at the crossing.
        p = np.array([[1.0, 1.0], [level, level]])
        slope = np.array([[2.0, -2.0], [0.0, 0.0]])
        above = profile._above_lowest(p, slope, np.array([1.0]))
        assert above.tolist() == [[False], [certified]]

    def test_infinite_slope_solves_both_intervals_next_to_its_node(self, monkeypatch):
        # An infinite mean curvature of one family at one node certifies
        # nothing: every family is solved at every volume of the intervals on
        # both sides.  The node lies above half volume, where the tube's
        # slope is the negated curvature of its mirror shape: -inf keeps the
        # slopes decreasing, so the concavity test passes.
        dim, samples, k, node = 10, 200, 4, 9
        n = dim - 1
        total = total_volume(dim)
        volumes = profile._volume_grid(total, samples)
        y, upper = profile._split(volumes, total)
        column = {(a, b): i for i, (a, b) in enumerate(zip(y.tolist(), upper.tolist()))}
        stride = profile._NODE_STRIDE
        assert upper[node * stride]
        inner = [i for i in range((node - 1) * stride, (node + 1) * stride + 1) if i % stride]
        solved = set()
        tubes = profile._tubes

        def spy(n, fam, y, upper):
            solved.update(
                (j, column[a, b]) for j, a, b in zip(fam.tolist(), y.tolist(), upper.tolist())
            )
            return tubes(n, fam, y, upper)

        monkeypatch.setattr(profile, "_tubes", spy)
        want = profile._envelope(dim, volumes, total)
        everything = {(j, i) for j in range(n + 1) for i in inner}
        assert not everything <= solved  # the certificate skips some there
        mean = profile._mean_curvature
        nodes = np.union1d(np.arange(0, samples, stride), samples - 1).size

        def infinite_at_node(*args):
            out = mean(*args)
            out[k * nodes + node] = math.inf
            return out

        monkeypatch.setattr(profile, "_mean_curvature", infinite_at_node)
        solved.clear()
        got = profile._envelope(dim, volumes, total)
        assert everything <= solved
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [3, 10, 40])
    @pytest.mark.parametrize("size", [1, 2, 17, 18])
    def test_small_batches_equal_full_argmin(self, dim, size):
        # One or two volumes are all nodes, so _envelope skips the slope
        # test and the bounds; 17 and 18 put one and two volumes past a
        # stride, with the bounds in use.  Seeded fractions in both tails.
        rng = np.random.default_rng(100 * dim + size)
        tail = np.exp(rng.uniform(math.log(1e-12), math.log(0.5), size))
        fracs = np.sort(np.where(rng.random(size) < 0.5, tail, 1.0 - tail))
        volumes = fracs * total_volume(dim)
        envelope = profile._envelope(dim, volumes, total_volume(dim))
        for got, want in zip(envelope, _full_argmin(dim, volumes)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [3, 10, 40])
    def test_profile_at_equals_full_argmin(self, dim):
        # profile_at's one volume takes the envelope with no bounds at all.
        rng = np.random.default_rng(dim)
        total = total_volume(dim)
        tail = np.exp(rng.uniform(math.log(1e-12), math.log(0.5), 24))
        volumes = np.where(rng.random(24) < 0.5, tail, 1.0 - tail) * total
        best, perim, radius = (a.tolist() for a in _full_argmin(dim, volumes))
        for space in Space:
            cover = total_volume(dim, space) / total
            for i, v in enumerate((cover * volumes).tolist()):
                point = ProfilePoint(v, cover * perim[i], best[i], radius[i])
                assert profile_at(dim, v, space) == point

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 40])
    def test_handoff_volumes_equal_full_argmin(self, dim):
        # At a handoff two families tie to rounding: both must be solved.
        volumes = np.array([v for _, _, v in transition_volumes(dim)])
        envelope = profile._envelope(dim, volumes, total_volume(dim))
        for got, want in zip(envelope, _full_argmin(dim, volumes)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim,samples", [(10, 2000), (40, 2501)])
    def test_solves_a_fraction_of_the_table(self, dim, samples, monkeypatch):
        solved = 0
        solve = profile._invert_lower_fraction

        def counting_solve(n, row, y):
            nonlocal solved
            solved += np.size(y)
            return solve(n, row, y)

        monkeypatch.setattr(profile, "_invert_lower_fraction", counting_solve)
        profile_curve(dim, samples)
        assert solved <= 0.25 * dim * samples

    def test_refuses_perimeters_that_are_not_concave(self, monkeypatch):
        # Negated mean curvatures make every slope increase with volume: the
        # chord and tangent bounds would no longer hold.
        mean = profile._mean_curvature
        monkeypatch.setattr(profile, "_mean_curvature", lambda *args: -mean(*args))
        with pytest.raises(RuntimeError, match="not concave"):
            profile_curve(5, 200)


class TestSmallestVolume:
    """Volume fractions v / total below sys.float_info.min are rejected up
    front: at a subnormal fraction the radius solve's asymptotic start
    underflows.  Accepted volumes sit at twice the bound, clear of the
    rounding of min * total / total; at dim 30 the total is below 1, so in
    the sphere the accepted volume is itself subnormal."""

    REJECTED = f"at least {sys.float_info.min} of "

    @pytest.mark.parametrize("space", list(Space))
    @pytest.mark.parametrize("dim", [3, 8, 30])
    def test_profile_at_rejects_subnormal_fraction(self, dim, space):
        total = total_volume(dim, space)
        for v in (5e-324, 0.5 * sys.float_info.min * total):
            with pytest.raises(ValueError, match=self.REJECTED):
                profile_at(dim, v, space)
        assert profile_at(dim, 2.0 * sys.float_info.min * total, space).best_k == 0

    @pytest.mark.parametrize("space", list(Space))
    @pytest.mark.parametrize("k", [0, 2])
    def test_radius_for_volume_rejects_subnormal_fraction(self, k, space):
        fam = TubeFamily(3, k, space)
        total = total_volume(3, space)
        for v in (5e-324, 0.5 * sys.float_info.min * total):
            with pytest.raises(ValueError, match=self.REJECTED):
                radius_for_volume(fam, v)
        assert radius_for_volume(fam, 2.0 * sys.float_info.min * total) > 0.0

    def test_tiny_normal_fraction_still_answers(self):
        point = profile_at(3, 1e-300)
        assert point.best_k == 0 and 0.0 < point.best_r < 1e-100


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
        # Below half volume the perimeter is the winning tube's at its own
        # radius, bit for bit; above it the mirror shape's, to rounding.
        for dim in (4, 7, 10, 16, 40):
            total = total_volume(dim)
            for p in profile_curve(dim, 3000):
                fam = TubeFamily(dim, p.best_k)
                assert abs(tube_volume(fam, p.best_r) - p.volume) <= 1e-11 * total
                if p.volume / total <= 0.5:
                    assert tube_perimeter(fam, p.best_r) == p.perimeter, (dim, p)
                else:
                    assert tube_perimeter(fam, p.best_r) == pytest.approx(p.perimeter, rel=1e-12)

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

    @pytest.mark.parametrize("dim", [40, 60, 100])
    def test_high_dimensions(self, dim):
        total = total_volume(dim)
        crossings = transition_volumes(dim)
        assert [(k, k2) for k, k2, _ in crossings] == [(k, k + 1) for k in range(dim - 1)]
        vols = [v for _, _, v in crossings]
        assert all(v2 > v1 for v1, v2 in zip(vols, vols[1:]))
        for v, mirror in zip(vols, reversed(vols)):
            assert v == pytest.approx(total - mirror, rel=1e-11)

    @pytest.mark.parametrize("dim", [402, 436])
    def test_bisection_fallback_settles_every_pair(self, dim, monkeypatch):
        # Near the root, rounding noise in the gap sends some handoff steps
        # outside their bracket at these dimensions, and those pairs bisect.
        bracket = profile._bracket
        bisected = []

        def counted(x, step, below, lo, hi):
            new, inside, nxt, lo, hi = bracket(x, step, below, lo, hi)
            if sys._getframe(1).f_code.co_name == "transition_volumes":
                bisected.append(np.sum(~inside & (np.abs(step) > profile._HANDOFF_TOL)))
            return new, inside, nxt, lo, hi

        monkeypatch.setattr(profile, "_bracket", counted)
        total = total_volume(dim)
        crossings = transition_volumes(dim)
        assert sum(bisected) > 0
        assert [(k, k2) for k, k2, _ in crossings] == [(k, k + 1) for k in range(dim - 1)]
        vols = [v for _, _, v in crossings]
        for v, mirror in zip(vols, reversed(vols)):
            assert abs(v + mirror - total) <= 1e-9 * total

    @pytest.mark.parametrize("dim", [20, 60])
    def test_handoffs_against_mpmath(self, dim):
        n = dim - 1
        total = total_volume(dim)
        crossings = transition_volumes(dim)
        for k in (0, n // 2, n - 1):
            ref = _mp_handoff_fraction(n, k, crossings[k][2] / total)
            assert abs(crossings[k][2] - ref * total) <= 1e-12 * total, (k, crossings[k], ref)

    def test_crossing_finder_raises_when_budget_runs_out(self, monkeypatch):
        transition_volumes(4)
        monkeypatch.setattr(profile, "_MAX_HANDOFF_STEPS", 1)
        with pytest.raises(CrossingNotFound, match="steps"):
            transition_volumes(4)

    def test_pair_that_never_crosses_raises(self, monkeypatch):
        # Family n = 3 made dearer at every radius: P_2 < P_3 on all of
        # (0, 1), so the last pair bisects toward f = 1 until the budget ends.
        tubes = profile._tubes

        def dearer(n, k, y, upper):
            perim, radius, mean = tubes(n, k, y, upper)
            return perim + 1e3 * (k == 3), radius, mean

        monkeypatch.setattr(profile, "_tubes", dearer)
        with pytest.raises(CrossingNotFound, match=r"k=\[2\].*steps"):
            transition_volumes(4)

    def test_raises_when_a_third_family_lies_below_a_handoff(self, monkeypatch):
        envelope = profile._envelope

        def lowered(dim, volumes, total):
            best, perims, radii = envelope(dim, volumes, total)
            best[-1] = 0  # family 0 below the last handoff, k = n - 1
            return best, perims, radii

        monkeypatch.setattr(profile, "_envelope", lowered)
        with pytest.raises(CrossingNotFound, match="family 0 lies below"):
            transition_volumes(4)

    def test_raises_when_handoffs_do_not_increase(self, monkeypatch):
        # A stand-in for the tubes whose pair k has the gap f - (1/2 - k/100)
        # over the fraction f, with the slope that makes each Newton step
        # exact: the pairs converge to handoffs that fall with k.
        total = total_volume(4)

        def falling(n, k, y, upper):
            f = np.where(upper, 1.0 - y, y)
            pairs = k[: k.size // 2]
            zeros = np.zeros(pairs.size)
            slope = np.concatenate([np.full(pairs.size, 1.0 / (total * n)), zeros])
            return np.concatenate([f[: pairs.size] - 0.5 + 0.01 * pairs, zeros]), None, lambda: slope

        monkeypatch.setattr(profile, "_tubes", falling)
        with pytest.raises(CrossingNotFound, match="do not increase in k"):
            transition_volumes(4)

    def test_space_is_checked_before_any_solve(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("_tubes called before the space was checked")

        monkeypatch.setattr(profile, "_tubes", unreached)
        with pytest.raises(ValueError, match="space must be a Space, got 'rp'"):
            transition_volumes(10, "rp")


class TestSuccessive:
    def test_small_dimensions(self):
        for dim in (3, 4, 5):
            assert successive_check(dim, 300)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            successive_check(4, 50)

    def test_fails_when_the_best_family_decreases(self, monkeypatch):
        # Every family still wins somewhere, but in reverse order.
        envelope = profile._envelope

        def reversed_order(dim, volumes, total):
            best, perims, radii = envelope(dim, volumes, total)
            return best[::-1], perims, radii

        monkeypatch.setattr(profile, "_envelope", reversed_order)
        assert not successive_check(4, 300)


class TestStabilityCrossCheck:
    def test_interior_arcs_are_stable(self):
        for dim in (4, 6, 8):
            n = dim - 1
            for p in profile_curve(dim, 120):
                if 1 <= p.best_k <= n - 1:
                    lo, hi = stability_interval(p.best_k, n - p.best_k)
                    assert lo - 1e-9 <= p.best_r <= hi + 1e-9
