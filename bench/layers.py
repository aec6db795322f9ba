"""Per-layer metrics of a traced run, derived from the worker's span
summaries.

Timings follow the same rule as the end-to-end figures: for each unit,
the repetition with the median time per base (call, point, handoff
pair) counts, and the figure is the sum of those times over the sum of
their bases.  A metric is 0 when the workload makes no such call, and is
left out (absent) when a span it needs is no longer wrapped, because the
function it names has gone from rpiso.
"""

from __future__ import annotations

import fnmatch
import statistics
from dataclasses import dataclass, field

import tracer
from workloads import CHECKS, Unit


@dataclass
class Rep:
    """One traced repetition of a unit."""

    seconds: float
    trace: dict
    req: dict
    solves: int


@dataclass
class UnitRecord:
    unit: Unit
    untraced: list[float] = field(default_factory=list)
    traced: list[Rep] = field(default_factory=list)


def _span(rep: Rep, name: str, col: int = 1) -> float:
    row = rep.trace["spans"].get(name)
    return row[col] if row else 0


def _betainc_elems(rep: Rep) -> int:
    return sum(
        row[3] for name, row in rep.trace["spans"].items()
        if name.startswith("specfn.") and tracer.BETAINC in name
    )


def _typical(records, value, base=lambda rep: 1, kinds=None) -> float:
    """Sum over units of value at the repetition with the median value per
    base, divided by the sum of those bases."""
    num = den = 0.0
    for rec in records:
        if kinds and rec.unit.kind not in kinds:
            continue
        reps = [(value(rep), base(rep)) for rep in rec.traced]
        reps = [(v, b) for v, b in reps if v > 0 and b > 0]
        if reps:
            v, b = sorted(reps, key=lambda vb: vb[0] / vb[1])[(len(reps) - 1) // 2]
            num += v
            den += b
    return num / den if den else 0.0


def _per_call(span: str, scale: float, kinds=None):
    def metric(records, _run):
        return scale * _typical(
            records, lambda rep: _span(rep, span), lambda rep: _span(rep, span, 0), kinds
        )
    return metric


_SOLVE_KINDS = {"cli_profile", "profile_at", "radius"}


def _betainc_per_solve(records, _run):
    elems = solves = 0
    for rec in records:
        if rec.unit.kind in _SOLVE_KINDS:
            elems += sum(_betainc_elems(rep) for rep in rec.traced)
            solves += sum(rep.solves for rep in rec.traced)
    return elems / solves if solves else 0.0


def _per_round(fn):
    def metric(records, run):
        return sum(fn(rep) for rec in records for rep in rec.traced) / run["traced_rounds"]
    return metric


def _betainc_share(records, _run):
    reps = [rep for rec in records for rep in rec.traced]
    profile_s = sum(rep.trace["profile_s"] for rep in reps)
    inside = sum(rep.trace["betainc_in_profile_s"] for rep in reps)
    return 100.0 * inside / profile_s if profile_s else 0.0


def _cli_format_ms(records, _run):
    def cli_self(rep):
        return sum(row[2] for name, row in rep.trace["spans"].items() if name.startswith("cli."))
    return 1e3 * _typical(records, cli_self, kinds={"cli_profile"})


def _check_s(fn_name: str):
    return lambda records, _run: _typical(
        records, lambda rep: _span(rep, f"verify.{fn_name}"), kinds={"check"}
    )


def _overhead(records, _run):
    traced = untraced = 0.0
    for rec in records:
        if rec.traced and rec.untraced:
            traced += statistics.median(rep.seconds for rep in rec.traced)
            untraced += statistics.median(rec.untraced)
    return traced / untraced


# name -> (unit, spans that must be wrapped, function of (records, run)).
# Required span names are fnmatch patterns.
METRICS = {
    "profile.curve_ns_per_point": (
        "ns", ["profile.profile_curve"],
        lambda records, _run: 1e9 * _typical(
            records, lambda rep: _span(rep, "profile.profile_curve"), lambda rep: rep.solves,
            {"cli_profile"},
        ),
    ),
    "profile.profile_at_ms": ("ms", ["profile.profile_at"], _per_call("profile.profile_at", 1e3, {"profile_at"})),
    "profile.radius_for_volume_us": (
        "us", ["profile.radius_for_volume"], _per_call("profile.radius_for_volume", 1e6, {"radius"}),
    ),
    "profile.transition_ms_per_pair": (
        "ms", ["profile.transition_volumes"],
        lambda records, _run: 1e3 * _typical(
            records, lambda rep: _span(rep, "profile.transition_volumes"),
            lambda rep: rep.req["dim"] - 1, {"transitions"},
        ),
    ),
    "profile.betainc_per_solve": ("count", ["specfn.*betainc*"], _betainc_per_solve),
    "profile.max_perimeter_rel_err": ("ratio", [], lambda _records, run: run["perimeter_err"]),
    "profile.max_transition_err": ("ratio", [], lambda _records, run: run["transition_err"]),
    "specfn.betainc_elems": ("count", ["specfn.*betainc*"], _per_round(_betainc_elems)),
    "specfn.betainc_share": ("%", ["specfn.*betainc*", "profile.*"], _betainc_share),
    "specfn.cossin_integral_us": ("us", ["specfn.cossin_integral"], _per_call("specfn.cossin_integral", 1e6)),
    "spectrum.stability_report_us": (
        "us", ["spectrum.stability_report"], _per_call("spectrum.stability_report", 1e6, {"stability"}),
    ),
    "spectrum.laplace_eigenvalue_calls": (
        "count", ["spectrum.laplace_eigenvalue"],
        _per_round(lambda rep: _span(rep, "spectrum.laplace_eigenvalue", 0)),
    ),
    "willmore.verify_area_chain_ms": (
        "ms", ["willmore.verify_area_chain"], _per_call("willmore.verify_area_chain", 1e3),
    ),
    "willmore.energy_minimum_ms": ("ms", ["willmore.energy_minimum"], _per_call("willmore.energy_minimum", 1e3)),
    **{
        f"verify.{result}_s": ("s", [f"verify.{fn}"], _check_s(fn))
        for fn, result in CHECKS.items()
    },
    "cli.format_ms": ("ms", ["cli.main"], _cli_format_ms),
    "machine.calib_ms": ("ms", [], lambda _records, run: 1e3 * run["calib_s"]),
    "trace.overhead_ratio": ("ratio", [], _overhead),
    "src.lines": ("count", [], lambda _records, run: run["src_lines"]),
}


def per_layer(records: list[UnitRecord], run: dict) -> tuple[dict, list[str]]:
    """(metrics, names of absent metrics).  run carries traced_rounds,
    calib_s, perimeter_err, transition_err, src_lines and the wrapped
    span names."""
    metrics, absent = {}, []
    for name, (unit, needs, fn) in METRICS.items():
        if all(fnmatch.filter(run["wrapped"], p) for p in needs):
            metrics[name] = {"value": fn(records, run), "unit": unit}
        else:
            absent.append(name)
    return metrics, absent
