"""Verification battery: check naming, dispatch, and override plumbing."""

from __future__ import annotations

import pytest

from rpiso.verify import (
    DEFAULT_TOLERANCES,
    check_identities,
    check_rp3,
    check_successive,
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


def test_identities_deterministic():
    first = check_identities(count=200, seed=7)
    second = check_identities(count=200, seed=7)
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
