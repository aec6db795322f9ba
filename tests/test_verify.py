"""Verification battery: check naming, dispatch, and override plumbing."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from rpiso import cli, clifford, profile, spectrum, specfn, verify, willmore
from rpiso.verify import (
    DEFAULT_TOLERANCES,
    CheckResult,
    check_area_chain,
    check_identities,
    check_profile_arcs,
    check_rp3,
    check_specfn,
    check_stability,
    check_successive,
    check_willmore_minimum,
    run_all,
)

EXPECTED_ORDER = [
    "successive_profiles",
    "profile_arcs",
    "stability_equivalence",
    "algebraic_identities",
    "special_functions",
    "willmore_minimum",
    "area_chain",
    "rp3_crosscheck",
]


def test_run_all_names_and_order():
    results = run_all(max_dim=3, samples=200)
    assert [r.name for r in results] == EXPECTED_ORDER


def test_run_all_passes_at_reduced_size():
    results = run_all(max_dim=4, samples=300)
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    assert all(type(r.passed) is bool for r in results)


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown tolerance"):
        run_all(max_dim=3, samples=200, overrides={"nope": 1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_override_must_be_positive_and_finite(value):
    # The CLI's --tol refuses these too: NaN fails every comparison and an
    # infinite tolerance passes its check vacuously.
    with pytest.raises(ValueError, match="must be positive and finite"):
        run_all(max_dim=3, samples=200, overrides={"identity": value})


# Every check that reads tolerance overrides, with a tolerance it reads.
OVERRIDE_CHECKS = {
    check_profile_arcs: "profile_symmetry",
    check_stability: "endpoint_margin",
    check_identities: "identity",
    check_specfn: "specfn_agree",
    check_willmore_minimum: "willmore_min",
    check_area_chain: "logf_fd",
    check_rp3: "rp3_perimeter",
}


def test_override_checks_are_every_check_with_overrides():
    checks = [getattr(verify, name) for name in dir(verify) if name.startswith("check_")]
    takes = {c for c in checks if "overrides" in inspect.signature(c).parameters}
    assert takes == set(OVERRIDE_CHECKS)


@pytest.mark.parametrize("check", OVERRIDE_CHECKS, ids=lambda check: check.__name__)
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_each_check_refuses_a_bad_override(check, value):
    # Called on its own, a check applies run_all's rule, so NaN cannot
    # fail it quietly nor inf pass it vacuously.
    with pytest.raises(ValueError, match="must be positive and finite"):
        check(overrides={OVERRIDE_CHECKS[check]: value})


@pytest.mark.parametrize("check", OVERRIDE_CHECKS, ids=lambda check: check.__name__)
def test_each_check_refuses_an_unknown_override(check):
    with pytest.raises(ValueError, match="unknown tolerance 'nope'"):
        check(overrides={"nope": 1.0})


def test_override_flips_only_its_check():
    results = run_all(
        max_dim=3, samples=200, overrides={"rp3_perimeter": 1e-18}
    )
    verdicts = {r.name: r.passed for r in results}
    assert verdicts["rp3_crosscheck"] is False
    del verdicts["rp3_crosscheck"]
    assert all(verdicts.values())


def test_every_default_tolerance_is_used():
    # Loosening everything at once must still pass and exercise each key.
    loose = {name: value * 10.0 for name, value in DEFAULT_TOLERANCES.items()}
    results = run_all(max_dim=3, samples=200, overrides=loose)
    assert all(r.passed for r in results)


def test_checks_keep_their_function_names():
    # Tracers name spans by __module__ and __name__, through the decorator.
    for check in (check_successive, check_stability, check_identities, check_rp3):
        assert check.__module__ == "rpiso.verify"
        assert getattr(verify, check.__name__) is check


def test_identities_deterministic():
    first = check_identities()
    second = check_identities()
    assert first == second
    assert first.passed


def test_rp3_detail_reports_competitor():
    result = check_rp3()
    assert result.passed
    assert "10.51" in result.detail


def test_successive_detail_lists_dims():
    result = check_successive(max_dim=4, samples=200)
    assert result.passed
    assert "3..4" in result.detail


@pytest.mark.parametrize("max_dim", [2, 0, 10.0, True])
def test_successive_refuses_a_size_that_checks_nothing(max_dim):
    # Below 3 the dims 3..max_dim are empty, and a PASS would check nothing.
    with pytest.raises(ValueError, match="max_dim must be"):
        check_successive(max_dim)
    with pytest.raises(ValueError, match="max_dim must be"):
        run_all(max_dim=max_dim)


def test_successive_refuses_a_dimension_beyond_the_profile_bound(monkeypatch):
    # 437 would solve every dim 3..436 before total_volume refused the last.
    def unreached(*args):
        raise AssertionError("successive_check called before max_dim was checked")

    monkeypatch.setattr(profile, "successive_check", unreached)
    with pytest.raises(ValueError, match="max_dim must be <= 436, got 437"):
        check_successive(437)
    with pytest.raises(ValueError, match="max_dim must be <= 436, got 437"):
        run_all(max_dim=437)


HALF_PI = 0.5 * math.pi


def reference_identities() -> tuple[CheckResult, float]:
    """check_identities as one scalar shape per draw: the result and the
    worst residual."""
    tol = DEFAULT_TOLERANCES["identity"]
    count = 1000
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(count):
        n1 = int(rng.integers(0, 7))
        n2 = int(rng.integers(0 if n1 > 0 else 1, 7))
        r = float(rng.uniform(0.05, HALF_PI - 0.05))
        shape = clifford.CliffordShape(n1, n2, r)
        data = clifford.curvature(shape)
        n = shape.n
        trace = data.norm_sq - n + data.beta * n * data.mean
        worst = max(worst, abs(trace))
        for kappa in (data.kappa1, data.kappa2):
            worst = max(worst, abs(kappa * kappa + data.beta * kappa - 1.0))
        t = float(rng.uniform(0.0, HALF_PI - r - 0.01))
        moved = clifford.CliffordShape(n1, n2, r + t)
        lhs = clifford.parallel_jacobian(shape, t) * clifford.area_sphere(shape)
        rhs = clifford.area_sphere(moved)
        worst = max(worst, abs(lhs - rhs) / rhs)
    detail = f"worst identity residual {worst:.2e} over {count} random shapes (tol {tol:.0e})"
    return CheckResult("algebraic_identities", worst <= tol, detail), worst


def reference_specfn() -> tuple[CheckResult, float]:
    """check_specfn with one scalar quadrature and one scalar closed-form
    call per point: the result and the quadrature agreement."""
    area_tol = DEFAULT_TOLERANCES["sphere_area"]
    worst = 0.0
    for n1 in range(11):
        for n2 in range(11):
            for r in (0.1, 0.5, 1.0, 1.5):
                quad = specfn.cossin_integral(n1, n2, r)
                closed = specfn.cossin_integral_closed(n1, n2, r)
                worst = max(worst, abs(quad - closed) / max(abs(closed), 1e-300))
    known = [(1, 2.0 * math.pi), (2, 4.0 * math.pi), (3, 2.0 * math.pi**2)]
    known_ok = all(abs(specfn.sphere_area(d) - area) / area <= area_tol for d, area in known)
    rec_worst = 0.0
    for d in range(2, 61):
        lhs = specfn.sphere_area(d)
        rhs = 2.0 * math.pi * specfn.sphere_area(d - 2) / (d - 1)
        rec_worst = max(rec_worst, abs(lhs - rhs) / rhs)
    detail = f"quadrature agreement {worst:.2e}, recurrence defect {rec_worst:.2e}"
    ok = worst <= DEFAULT_TOLERANCES["specfn_agree"] and known_ok and rec_worst <= area_tol
    return CheckResult("special_functions", ok, detail), worst


def reference_area_chain() -> tuple[CheckResult, float]:
    """check_area_chain with one verify_area_chain call per n: the result
    and the finite-difference defect."""
    fd_tol = DEFAULT_TOLERANCES["logf_fd"]
    max_n = 50
    for n in range(2, max_n + 1):
        if not willmore.verify_area_chain(n):
            return CheckResult("area_chain", False, f"chain fails at n={n}"), math.nan
    worst = 0.0
    for n in (2, 3, 7):
        for x in (0.3, 0.7, 1.3):
            h = 1e-4
            fd = (
                math.log(willmore.clifford_area_f(n, x + h))
                - 2.0 * math.log(willmore.clifford_area_f(n, x))
                + math.log(willmore.clifford_area_f(n, x - h))
            ) / (h * h)
            exact = willmore.logf_second_derivative(n, x)
            worst = max(worst, abs(fd - exact) / abs(exact))
    detail = (
        f"chain and convexity hold for n=2..{max_n}; fd defect {worst:.2e} (tol {fd_tol:.0e})"
    )
    return CheckResult("area_chain", worst <= fd_tol, detail), worst


@pytest.mark.parametrize(
    "check,reference,tolerance",
    [
        (check_identities, reference_identities, "identity"),
        (check_specfn, reference_specfn, "specfn_agree"),
        (check_area_chain, reference_area_chain, "logf_fd"),
    ],
    ids=["identities", "specfn", "area_chain"],
)
def test_batched_check_matches_scalar_reference(check, reference, tolerance):
    # Same verdict and detail as the scalar loop; the tolerance bracket puts
    # the residual the check compares within 1e-15 of the reference's.
    expected, residual = reference()
    assert expected.passed
    assert check() == expected
    assert check(overrides={tolerance: residual + 1e-15}).passed
    assert not check(overrides={tolerance: residual - 1e-15}).passed


class TestFailurePaths:
    """Each check driven to FAIL, through a tolerance override or a
    monkeypatched input, reports what failed."""

    def test_successive_names_the_failing_dimension(self, monkeypatch):
        real = profile.successive_check
        monkeypatch.setattr(
            profile, "successive_check", lambda dim, samples: dim != 4 and real(dim, samples)
        )
        result = check_successive(max_dim=5, samples=200)
        assert not result.passed
        assert result.detail == "failed for ambient dims [4]"

    def test_profile_arcs_on_a_grid_too_coarse(self):
        # Two samples at dim 4 see two of its four arcs; the verdict is a
        # bool, so the JSON report can hold it.
        result = check_profile_arcs(4, 2)
        assert result.passed is False
        assert result.detail.startswith("dim 4: 2 arcs (want 4), 3 transitions (want 3), ")

    def test_stability_endpoint_margin(self, monkeypatch):
        # An interval shifted off the closed form: its ends are no longer
        # where the margin vanishes.
        real = spectrum.stability_interval
        monkeypatch.setattr(
            spectrum, "stability_interval", lambda n1, n2: tuple(r + 0.1 for r in real(n1, n2))
        )
        result = check_stability()
        assert not result.passed
        assert result.detail.startswith("(1,1) endpoint r=")
        assert "margin" in result.detail

    def test_stability_interior_sign(self, monkeypatch):
        # Margins lowered by 1 on the scan grid, left alone at the two ends:
        # the zero margins inside the interval turn negative.
        real = spectrum.stability_margin
        monkeypatch.setattr(
            spectrum,
            "stability_margin",
            lambda shape: real(shape) if shape.r.size == 2 else real(shape) - 1.0,
        )
        result = check_stability()
        assert not result.passed
        assert result.detail.startswith("(1,1) r=")
        assert result.detail.endswith(": negative margin -1.00e+00 inside interval")

    def test_stability_brute_force(self, monkeypatch):
        # A (2, 2) mode below the three candidates.
        real = spectrum.laplace_eigenvalue
        monkeypatch.setattr(
            spectrum,
            "laplace_eigenvalue",
            lambda shape, k1, k2: real(shape, k1, k2) * (0.0 if (k1, k2) == (2, 2) else 1.0),
        )
        result = check_stability()
        assert not result.passed
        assert result.detail.startswith("(1,1) r=")
        assert "brute force 0.0 beats candidates" in result.detail

    def test_specfn_quadrature_mismatch(self):
        result = check_specfn(overrides={"specfn_agree": 1e-300})
        assert not result.passed
        assert result.detail.startswith("quadrature mismatch ")

    def test_specfn_known_sphere_area(self, monkeypatch):
        real = specfn.sphere_area
        monkeypatch.setattr(specfn, "sphere_area", lambda d: real(d) * (1.0 + 1e-9 * (d == 2)))
        result = check_specfn()
        assert not result.passed
        assert result.detail.startswith("sphere_area(2) off by 1.0")

    def test_specfn_area_recurrence(self, monkeypatch):
        real = specfn.sphere_area
        monkeypatch.setattr(specfn, "sphere_area", lambda d: real(d) * (1.0 + 1e-9 * (d == 10)))
        result = check_specfn()
        assert not result.passed
        assert "recurrence defect 1.0" in result.detail

    def test_willmore_minimum_off_target(self):
        result = check_willmore_minimum(overrides={"willmore_min": 1e-300})
        assert not result.passed
        assert result.detail.startswith("n=2: min ")
        assert "near balanced k" in result.detail

    def test_willmore_degenerate_family_drifts(self, monkeypatch):
        real = willmore.tube_willmore_energy
        monkeypatch.setattr(
            willmore,
            "tube_willmore_energy",
            lambda shape: real(shape) * (1.0 + 1e-6 * (shape.n1 == 0)),
        )
        result = check_willmore_minimum()
        assert not result.passed
        assert result.detail.startswith("n=2: k=0 family drifts from 2|S^n| by 1.0")

    def test_area_chain_fails_at_n(self, monkeypatch):
        monkeypatch.setattr(willmore, "verify_area_chain", lambda n: n != 7)
        result = check_area_chain()
        assert not result.passed
        assert result.detail == "chain fails at n=7"

    def test_area_chain_finite_difference(self):
        result = check_area_chain(overrides={"logf_fd": 1e-300})
        assert not result.passed
        assert "fd defect" in result.detail and "(tol 1e-300)" in result.detail

    def test_rpiso_verify_exits_1(self, capsys):
        argv = ["verify", "--max-dim", "3", "--samples", "200", "--tol", "specfn_agree=1e-300"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "FAIL special_functions: quadrature mismatch" in err
        assert "PASS successive_profiles" in err
