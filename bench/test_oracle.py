"""Tests of the benchmark's own checker and worker.

    python3 -m pytest bench -q

The checker must accept what rpiso computes today and reject each kind of
wrong answer a change could introduce.  rpiso's outputs are computed
fresh here, never read from a stored copy.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from rpiso import clifford, profile, spectrum  # noqa: E402
from rpiso.profile import Space  # noqa: E402

SPACES = {"rp": Space.PROJECTIVE, "sphere": Space.SPHERE_ANTIPODAL}


def _table(dim, samples, space):
    pts = profile.profile_curve(dim, samples, SPACES[space])
    return [np.array([getattr(p, a) for p in pts]) for a in ("volume", "perimeter", "best_k", "best_r")]


def _stability(n1, n2, r):
    rep = spectrum.stability_report(clifford.CliffordShape(n1, n2, r))
    return [rep.lambda1, rep.margin, rep.stable, rep.interval_lo, rep.interval_hi]


@pytest.mark.parametrize("dim,samples,space", [(3, 800, "rp"), (6, 600, "sphere"), (9, 500, "rp")])
def test_accepts_profile_tables(dim, samples, space):
    problems, err = oracle.check_profile_table(dim, space, samples, _table(dim, samples, space))
    assert problems == []
    assert 0.0 < err <= oracle.PERIMETER_RTOL


def test_rejects_perimeter_off_by_1e_7():
    table = _table(5, 400, "rp")
    table[1][123] *= 1.0 + 1e-7
    problems, _ = oracle.check_profile_table(5, "rp", 400, table)
    assert problems and "perimeter" in problems[0]


def test_rejects_swapped_best_k():
    dim, space = 5, "rp"
    total = oracle.total_volume(dim, space)
    p = profile.profile_at(dim, 0.3 * total)
    _, ok = oracle.profile_point_errors(dim, space, [0.3 * total], [p.perimeter], [p.best_k], [p.best_r])
    assert ok == [[]]
    swapped = p.best_k + 1
    _, bad = oracle.profile_point_errors(dim, space, [0.3 * total], [p.perimeter], [swapped], [p.best_r])
    assert any("best_k" in msg for msg in bad[0])
    table = _table(dim, 400, space)
    table[2][200] = table[2][200] + 1
    problems, _ = oracle.check_profile_table(dim, space, 400, table)
    assert any("best_k" in msg for msg in problems)


def test_half_volume_tie_accepts_either_family():
    # Families k and n - k tie at half volume by symmetry; in RP^4 the two
    # middle families 1 and 2 are both optimal there.
    dim, space = 4, "rp"
    half = 0.5 * oracle.total_volume(dim, space)
    perims, radii = oracle.families(dim, space, [half])
    for k in (1, 2):
        _, probs = oracle.profile_point_errors(dim, space, [half], [perims[k, 0]], [k], [radii[k, 0]])
        assert probs == [[]]


@pytest.mark.parametrize("dim,space", [(3, "rp"), (6, "sphere")])
def test_accepts_transitions(dim, space):
    problems, err = oracle.check_transitions(dim, space, profile.transition_volumes(dim, SPACES[space]))
    assert problems == []
    assert err <= oracle.TRANSITION_TOL


def test_rejects_shifted_handoff():
    dim = 5
    total = oracle.total_volume(dim, "rp")
    handoffs = [list(h) for h in profile.transition_volumes(dim)]
    handoffs[1][2] += 1e-8 * total
    problems, _ = oracle.check_transitions(dim, "rp", handoffs)
    assert any("off by" in msg for msg in problems)


def test_rejects_out_of_order_handoffs():
    dim = 5
    handoffs = list(profile.transition_volumes(dim))
    handoffs[0], handoffs[1] = handoffs[1], handoffs[0]
    problems, _ = oracle.check_transitions(dim, "rp", handoffs)
    assert any("k order" in msg for msg in problems)


def test_accepts_stability_reports():
    rng = np.random.default_rng(7)
    for n1, n2 in [(1, 1), (2, 3), (5, 2)]:
        for r in rng.uniform(*workloads.STABILITY_RADII, 200):
            assert oracle.check_stability(n1, n2, float(r), *_stability(n1, n2, float(r))) == []


@pytest.mark.parametrize("inside", [True, False])
def test_rejects_flipped_stability_verdict(inside):
    n1, n2 = 2, 3
    lo, hi = oracle.stability_interval(n1, n2)
    r = 0.5 * (lo + hi) if inside else 0.5 * lo
    lam, margin, stable, ilo, ihi = _stability(n1, n2, r)
    assert stable == inside
    problems = oracle.check_stability(n1, n2, r, lam, margin, not stable, ilo, ihi)
    assert any("verdict" in msg for msg in problems)


def test_radius_bulk_passes_and_tail_fails():
    dim, k = 3, 1
    total = oracle.total_volume(dim, "rp")
    fam = profile.TubeFamily(dim, k)
    for f in (1e-3, 0.4, 1 - 1e-3):
        v = f * total
        assert oracle.check_radius(dim, k, "rp", v, profile.radius_for_volume(fam, v)) == []
    v = 1e-13 * total
    assert oracle.check_radius(dim, k, "rp", v, profile.radius_for_volume(fam, v))


def test_requests_follow_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        return [workloads.request(u, rng, Path("t"), 0) for u in workloads.build("queries")]

    assert draw(1) == draw(1)
    first, other = draw(1), draw(2)
    for unit, a, b in zip(workloads.build("queries"), first, other):
        if unit.kind == "transitions":
            continue
        assert (a == b) == unit.known_fault, unit.name


def test_transition_inputs_are_distinct():
    unit = next(u for u in workloads.build("queries") if u.kind == "transitions")
    rng = np.random.default_rng(0)
    reqs = [workloads.request(unit, rng, Path("t"), rep) for rep in range(unit.distinct)]
    assert len({(r["dim"], r["space"]) for r in reqs}) == unit.distinct


def test_tracer_restores_original_functions():
    import rpiso
    from tracer import Tracer

    original = profile.profile_at
    tracer = Tracer()
    tracer.prepare(rpiso)
    tracer.enable()
    try:
        assert profile.profile_at is not original
        profile.profile_at(4, 0.1 * math.pi ** 2)
    finally:
        tracer.disable()
    assert profile.profile_at is original
    assert tracer.summary(0)["spans"]["profile.profile_at"][0] == 1


def test_verify_report_check(tmp_path):
    report = {"checks": [{"name": n, "passed": True} for n in workloads.CHECKS.values()],
              "all_passed": True}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    assert workloads.check_verify_report(path, 0) == []
    report["checks"][2]["passed"] = False
    report["all_passed"] = False
    path.write_text(json.dumps(report))
    assert workloads.check_verify_report(path, 1)
    assert workloads.check_verify_report(tmp_path / "missing.json", 1)


def test_traced_worker_records_layer_spans(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), "1"],
        input="\n".join(json.dumps(r) for r in [
            {"op": "unit", "trace": True, "kind": "profile_at", "dim": 4, "space": "rp",
             "volumes": [0.1 * math.pi ** 2]},
            {"op": "finish", "trace_out": str(tmp_path / "spans.npz")},
        ]) + "\n",
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    unit, finish = (json.loads(line) for line in proc.stdout.splitlines())
    spans = unit["trace"]["spans"]
    assert spans["profile.profile_at"][0] == 1
    assert spans["specfn._betainc_xc_vec"][3] >= 4  # one element per family
    assert 0.0 < unit["trace"]["betainc_in_profile_s"] <= unit["trace"]["profile_s"]
    count, total, self_s, _ = spans["profile.profile_at"]
    assert 0.0 < self_s < total
    assert "profile.radius_for_volume" in finish["wrapped"]
    assert np.load(tmp_path / "spans.npz")["name_id"].size == sum(row[0] for row in spans.values())
