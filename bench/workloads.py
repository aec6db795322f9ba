"""The benchmark's workloads: fixed lists of short units, their seeded
inputs, and the checks on their outputs.

A unit is one request to the worker: a fixed kind of call at a fixed size
(dimension, family, grid), repeated with fresh inputs drawn from the
unit's own seeded stream, so its cost stays constant across repetitions
while no repetition asks the same question twice.  Each call into rpiso
whose output is checked is one operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# Bulk query volumes are drawn as fractions of the total in this range.
BULK_FRACTIONS = (1e-3, 1.0 - 1e-3)
# Tail slice: fractions at or below 1e-6 and complements at or below
# 1e-6.  rpiso's volume solve stops on |v(r) - v| <= 1e-12 * total, an
# absolute test, so every one of these answers misses the oracle by far
# more than its tolerance.  Fixed, not seeded, so the same operations
# fail in every round.
TAIL_LOW = (1e-13, 1e-9, 1e-6)
TAIL_HIGH = (1e-6,)
STABILITY_RADII = (0.01, 0.5 * math.pi - 0.01)
# transition_volumes takes nothing but (dim, space), so its unit asks each
# of these once per run, in this order, and is timed per handoff pair,
# scaled to the three pairs of dimension 4.
TRANSITION_POOL = (
    (4, "rp"), (7, "sphere"), (5, "rp"), (8, "sphere"), (3, "rp"), (6, "sphere"),
    (4, "sphere"), (7, "rp"), (5, "sphere"), (8, "rp"), (3, "sphere"), (6, "rp"),
)
TRANSITION_REF_PAIRS = 3
CHECKS = {
    "check_successive": "successive_profiles",
    "check_profile_arcs": "profile_arcs",
    "check_stability": "stability_equivalence",
    "check_identities": "algebraic_identities",
    "check_specfn": "special_functions",
    "check_willmore_minimum": "willmore_minimum",
    "check_area_chain": "area_chain",
    "check_rp3": "rp3_crosscheck",
}


@dataclass(frozen=True)
class Unit:
    """kind names the worker entry point; params fix its size; calls is
    the number of operations per repetition.  known_fault marks the tail
    slice, whose failures are expected and do not make a run incorrect.
    distinct, when nonzero, is the number of distinct inputs the unit has:
    it runs at most that many repetitions, spread evenly over the run."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    calls: int = 1
    known_fault: bool = False
    distinct: int = 0


@dataclass
class Outcome:
    """Checked result of one repetition.  solves is the number of
    (volume, family) radius solves the caller asked for."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)
    perimeter_err: float = 0.0
    transition_err: float = 0.0
    solves: int = 0


def _tabulate() -> list[Unit]:
    """Dense profile tables through the CLI, both spaces, dims 3..16: the
    batched radius solve, the vectorised incomplete beta and CSV output,
    with no scalar path, spectrum or willmore call."""
    sizes = [
        (3, "rp", 8000),
        (3, "sphere", 8000),
        (5, "sphere", 6000),
        (7, "rp", 4000),
        (10, "sphere", 2500),
        (13, "rp", 2000),
        (16, "sphere", 1500),
    ]
    return [
        Unit(f"profile_d{d}_{space}", "cli_profile", {"dim": d, "space": space, "samples": s})
        for d, space, s in sizes
    ]


def _queries() -> list[Unit]:
    """Single scalar calls, one kind and dimension per unit: per-call
    overhead, the scalar incomplete-beta twin and the nested handoff
    bisections, plus the fixed tail slice."""
    units = [
        Unit(f"profile_at_d{d}_{space}", "profile_at", {"dim": d, "space": space}, calls)
        for d, space, calls in [(3, "rp", 4), (6, "rp", 2), (10, "rp", 1), (5, "sphere", 2)]
    ]
    units += [
        Unit(f"radius_d{d}_k{k}_{space}", "radius", {"dim": d, "k": k, "space": space}, 40)
        for d, k, space in [(3, 0, "rp"), (3, 1, "rp"), (8, 4, "rp"), (12, 0, "rp"), (6, 2, "sphere")]
    ]
    units.append(Unit("transitions", "transitions", distinct=len(TRANSITION_POOL)))
    units += [
        Unit(f"stability_{n1}_{n2}", "stability", {"n1": n1, "n2": n2}, 150)
        for n1, n2 in [(1, 1), (2, 3), (4, 4), (1, 7)]
    ]
    tail = len(TAIL_LOW) + len(TAIL_HIGH)
    units.append(
        Unit("tail_profile_at_d6", "profile_at", {"dim": 6, "space": "rp", "tail": True}, tail, True)
    )
    units += [
        Unit(f"tail_radius_d{d}_k{k}", "radius", {"dim": d, "k": k, "space": "rp", "tail": True}, tail, True)
        for d, k in [(3, 1), (8, 7)]
    ]
    return units


def _verify() -> list[Unit]:
    """The eight checks behind `rpiso verify`, with run_all's defaults."""
    return [Unit(name.removeprefix("check_"), "check", {"name": name}) for name in CHECKS]


WORKLOADS = {"tabulate": _tabulate, "queries": _queries, "verify": _verify}


def build(workload: str) -> list[Unit]:
    return WORKLOADS[workload]()


def _volumes(unit: Unit, rng: np.random.Generator) -> list[float]:
    p = unit.params
    total = oracle.total_volume(p["dim"], p["space"])
    if p.get("tail"):
        return [f * total for f in TAIL_LOW] + [total - c * total for c in TAIL_HIGH]
    return [float(f) * total for f in rng.uniform(*BULK_FRACTIONS, unit.calls)]


def request(unit: Unit, rng: np.random.Generator, out_dir: Path, rep: int) -> dict:
    """The worker request for repetition rep (from 0) of unit."""
    p = unit.params
    if unit.kind == "cli_profile":
        samples = p["samples"] + int(rng.integers(0, 64))
        argv = ["profile", "--dim", str(p["dim"]), "--samples", str(samples),
                "--space", p["space"], "--out", str(out_dir / f"{unit.name}.csv")]
        return {"kind": "cli", "argv": argv}
    if unit.kind == "profile_at":
        return {"kind": "profile_at", "dim": p["dim"], "space": p["space"],
                "volumes": _volumes(unit, rng)}
    if unit.kind == "radius":
        return {"kind": "radius", "dim": p["dim"], "k": p["k"], "space": p["space"],
                "volumes": _volumes(unit, rng)}
    if unit.kind == "transitions":
        dim, space = TRANSITION_POOL[rep]
        return {"kind": "transitions", "dim": dim, "space": space}
    if unit.kind == "stability":
        radii = rng.uniform(*STABILITY_RADII, unit.calls)
        return {"kind": "stability", "n1": p["n1"], "n2": p["n2"], "radii": radii.tolist()}
    if unit.kind == "check":
        return {"kind": "check", "name": p["name"]}
    raise ValueError(f"unknown unit kind {unit.kind!r}")


def time_scale(unit: Unit, req: dict) -> float:
    """Factor from a repetition's time to the unit's share of solve_s."""
    if unit.kind == "transitions":
        return TRANSITION_REF_PAIRS / (req["dim"] - 1)
    return 1.0


def _flag(arg: str, argv: list[str]) -> str:
    return argv[argv.index(arg) + 1]


def read_profile_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    return [lines[0], lines[-1]], rows.reshape(-1, 4)


class Checker:
    """Checks worker replies against the oracle.  Oracle handoff volumes
    are cached per (dim, space): they depend on nothing else."""

    def __init__(self) -> None:
        self._transitions: dict[tuple[int, str], list[float]] = {}

    def check(self, unit: Unit, req: dict, reply: dict) -> Outcome:
        results = reply["result"]
        kind = unit.kind
        if kind == "cli_profile":
            return self._cli_profile(unit, req, results[0])
        out = Outcome()
        if kind == "profile_at":
            out.solves = len(req["volumes"]) * req["dim"]
        elif kind == "radius":
            out.solves = len(req["volumes"])
        per_op = []
        for i, res in enumerate(results):
            if isinstance(res, dict):
                per_op.append([f"raised {res['error']}"])
            elif kind == "profile_at":
                v = req["volumes"][i]
                err, probs = oracle.profile_point_errors(
                    req["dim"], req["space"], [v], [res[0]], [res[1]], [res[2]]
                )
                per_op.append(probs[0])
                if not probs[0]:
                    out.perimeter_err = max(out.perimeter_err, float(err[0]))
            elif kind == "radius":
                per_op.append(
                    oracle.check_radius(req["dim"], req["k"], req["space"], req["volumes"][i], res)
                )
            elif kind == "transitions":
                key = (req["dim"], req["space"])
                if key not in self._transitions:
                    self._transitions[key] = oracle.transitions(*key)
                probs, err = oracle.check_transitions(*key, res, self._transitions[key])
                per_op.append(probs)
                if not probs:
                    out.transition_err = max(out.transition_err, err)
            elif kind == "stability":
                per_op.append(oracle.check_stability(req["n1"], req["n2"], req["radii"][i], *res))
            elif kind == "check":
                name, passed, detail = res
                want = CHECKS[req["name"]]
                probs = [] if passed and name == want else [f"{name} passed={passed}: {detail}"]
                per_op.append(probs)
        for i, probs in enumerate(per_op):
            if probs:
                out.failed += 1
                out.problems.append(f"{unit.name} op {i}: {'; '.join(probs)}")
        return out

    def _cli_profile(self, unit: Unit, req: dict, code) -> Outcome:
        argv = req["argv"]
        dim, space, samples = int(_flag("--dim", argv)), _flag("--space", argv), int(_flag("--samples", argv))
        if code != 0:
            return Outcome(1, [f"{unit.name}: exit code {code}"])
        try:
            (header, tail), rows = read_profile_csv(Path(_flag("--out", argv)))
        except (OSError, ValueError) as exc:
            return Outcome(1, [f"{unit.name}: unreadable CSV: {exc}"])
        problems = []
        if header != "volume,perimeter,best_k,best_r" or tail != "":
            problems.append(f"CSV layout: header {header!r}, last line {tail!r}")
        checked, err = oracle.check_profile_table(dim, space, samples, rows.T)
        problems += checked
        out = Outcome(solves=samples * dim)
        if problems:
            out.failed = 1
            out.problems = [f"{unit.name} ({samples} samples): {'; '.join(problems)}"]
        else:
            out.perimeter_err = err
        return out


def check_verify_report(path: Path, code) -> list[str]:
    """`rpiso verify --format json`: exit 0, every check present and
    passing, and all_passed set."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"exit code {code}, no readable report: {exc}"]
    names = [c["name"] for c in report.get("checks", [])]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if sorted(names) != sorted(CHECKS.values()):
        problems.append(f"checks {names}")
    failing = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if failing or report.get("all_passed") is not True:
        problems.append(f"failing {failing}, all_passed={report.get('all_passed')}")
    return problems
