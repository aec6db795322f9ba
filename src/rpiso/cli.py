"""Command-line front end: profiles, transitions, stability scans,
Willmore tables, Clifford areas, and the verification suite.

Reports are CSV (17-significant-digit floats, LF endings) or JSON
(schema_version "1", echoing the resolved configuration).  Exit status is
0 on success, 1 when a verification check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import verify as verify_mod
from .clifford import CliffordShape
from .profile import (
    CrossingNotFound,
    Space,
    profile_curve,
    total_volume,
    transition_volumes,
)
from .spectrum import stability_report
from .specfn import QuadratureError, sphere_area
from .willmore import clifford_area_f, width_candidate, willmore_report

__all__ = ["RunConfig", "build_parser", "run", "main"]

_SCHEMA_VERSION = "1"

# Whether the min-max width of the projective space carries an extra
# antipodal factor 1/2 is a normalization choice; reports quote the
# product-sphere area and flag the ambiguity.
_WIDTH_NOTE = (
    "width_candidate is the full product-sphere area; whether the projective "
    "min-max width carries an additional factor 1/2 from the antipodal "
    "quotient is left open, so compare accordingly"
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: one command plus its knobs.

    ambient_dim doubles as the hypersurface dimension n for the willmore
    and areas commands; extras carries command-specific integers such as
    the stability factor dimensions.
    """

    command: str
    ambient_dim: int | None
    samples: int | None
    space: str
    output_format: str
    output_path: str | None
    tolerance_overrides: dict[str, float] = field(default_factory=dict)
    extras: dict[str, int] = field(default_factory=dict)


def _space_of(config: RunConfig) -> Space:
    return Space.PROJECTIVE if config.space == "rp" else Space.SPHERE_ANTIPODAL


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _config_echo(config: RunConfig) -> dict:
    echo = dataclasses.asdict(config)
    return echo


def _json_report(config: RunConfig, payload: dict) -> str:
    obj = {"schema_version": _SCHEMA_VERSION, "config": _config_echo(config)}
    obj.update(payload)
    return json.dumps(obj, indent=2) + "\n"


def _emit(config: RunConfig, text: str, stdout) -> None:
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _cmd_profile(config: RunConfig, stdout) -> int:
    points = profile_curve(config.ambient_dim, config.samples, _space_of(config))
    if config.output_format == "csv":
        rows = [[p.volume, p.perimeter, p.best_k, p.best_r] for p in points]
        text = _csv(["volume", "perimeter", "best_k", "best_r"], rows)
    else:
        text = _json_report(
            config,
            {
                "total_volume": total_volume(config.ambient_dim, _space_of(config)),
                "points": [dataclasses.asdict(p) for p in points],
            },
        )
    _emit(config, text, stdout)
    return 0


def _cmd_transitions(config: RunConfig, stdout) -> int:
    crossings = transition_volumes(config.ambient_dim, _space_of(config))
    if config.output_format == "csv":
        text = _csv(["k", "k_next", "volume"], [list(c) for c in crossings])
    else:
        text = _json_report(
            config,
            {
                "total_volume": total_volume(config.ambient_dim, _space_of(config)),
                "transitions": [
                    {"k": k, "k_next": k2, "volume": v} for k, k2, v in crossings
                ],
            },
        )
    _emit(config, text, stdout)
    return 0


def _cmd_stability(config: RunConfig, stdout) -> int:
    n1 = config.extras["n1"]
    n2 = config.extras["n2"]
    scan = config.samples
    rs = 0.5 * math.pi * np.arange(1, scan + 1) / (scan + 1)
    report = stability_report(CliffordShape(n1, n2, rs))
    inside = (report.interval_lo <= rs) & (rs <= report.interval_hi)
    rows = list(
        zip(rs.tolist(), report.lambda1.tolist(), report.margin.tolist(), inside.tolist())
    )
    if config.output_format == "csv":
        text = _csv(["r", "lambda1", "margin", "in_interval"], rows)
    else:
        text = _json_report(
            config,
            {
                "interval_lo": report.interval_lo,
                "interval_hi": report.interval_hi,
                "points": [
                    {
                        "r": r,
                        "lambda1": lam,
                        "margin": margin,
                        "in_interval": inside,
                    }
                    for r, lam, margin, inside in rows
                ],
            },
        )
    _emit(config, text, stdout)
    return 0


def _cmd_willmore(config: RunConfig, stdout) -> int:
    n = config.ambient_dim
    report = willmore_report(n, config.samples)
    if config.output_format == "csv":
        text = _csv(
            [
                "n",
                "sigma_n",
                "min_energy",
                "argmin_k",
                "argmin_r",
                "chain_ok",
                "convexity_ok",
            ],
            [
                [
                    report.n,
                    report.sigma_n,
                    report.min_energy,
                    report.argmin_k,
                    report.argmin_r,
                    report.chain_ok,
                    report.convexity_ok,
                ]
            ],
        )
    else:
        text = _json_report(
            config,
            {
                "report": dataclasses.asdict(report),
                "note": _WIDTH_NOTE,
            },
        )
    _emit(config, text, stdout)
    return 0


def _cmd_areas(config: RunConfig, stdout) -> int:
    n = config.ambient_dim
    rows = [[p, clifford_area_f(n, float(p))] for p in range(1, n)]
    if config.output_format == "csv":
        text = _csv(["p", "area"], rows)
    else:
        text = _json_report(
            config,
            {
                "two_sphere_bound": 2.0 * sphere_area(n),
                "balanced_minimum": width_candidate(n),
                "areas": [{"p": p, "area": a} for p, a in rows],
                "note": _WIDTH_NOTE,
            },
        )
    _emit(config, text, stdout)
    return 0


def _cmd_verify(config: RunConfig, stdout, stderr) -> int:
    results = verify_mod.run_all(
        max_dim=config.extras["max_dim"],
        samples=config.samples,
        overrides=config.tolerance_overrides or None,
    )
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        stderr.write(f"{status} {res.name}: {res.detail}\n")
    if config.output_format == "csv":
        text = _csv(
            ["name", "passed", "detail"],
            [[r.name, r.passed, r.detail.replace(",", ";")] for r in results],
        )
    else:
        text = _json_report(
            config,
            {
                "checks": [dataclasses.asdict(r) for r in results],
                "all_passed": all(r.passed for r in results),
            },
        )
    _emit(config, text, stdout)
    return 0 if all(r.passed for r in results) else 1


def _parse_tolerance(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}"
        )
    try:
        value = float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value in {text!r}") from exc
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite: {text!r}")
    if name not in verify_mod.DEFAULT_TOLERANCES:
        known = ", ".join(sorted(verify_mod.DEFAULT_TOLERANCES))
        raise argparse.ArgumentTypeError(
            f"unknown tolerance {name!r}; known names: {known}"
        )
    return name, value


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    sub.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpiso",
        description=(
            "Isoperimetric profiles of real projective spaces from Clifford "
            "tube envelopes, with stability and Willmore-energy reports."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="perimeter-volume envelope over tube families")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension (>= 2)")
    p.add_argument("--samples", type=int, default=2000, help="interior volume samples")
    p.add_argument("--space", choices=("rp", "sphere"), default="rp")
    _add_output_flags(p)

    p = subs.add_parser("transitions", help="envelope handoff volumes between families")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension (>= 3)")
    p.add_argument("--space", choices=("rp", "sphere"), default="rp")
    _add_output_flags(p)

    p = subs.add_parser("stability", help="stability margin scan for one factor pair")
    p.add_argument("--n1", type=int, required=True, help="first factor dimension (>= 1)")
    p.add_argument("--n2", type=int, required=True, help="second factor dimension (>= 1)")
    p.add_argument("--scan", type=int, default=100, help="number of latitudes")
    _add_output_flags(p)

    p = subs.add_parser("willmore", help="tube Willmore minimum and width candidate")
    p.add_argument("--dim", type=int, required=True, help="hypersurface dimension n (>= 2)")
    p.add_argument("--samples", type=int, default=10_000, help="latitude grid size")
    _add_output_flags(p)

    p = subs.add_parser("areas", help="minimal Clifford areas f(p) for p = 1..n-1")
    p.add_argument("--dim", type=int, required=True, help="hypersurface dimension n (>= 2)")
    _add_output_flags(p)

    p = subs.add_parser("verify", help="run the full verification suite")
    p.add_argument("--max-dim", type=int, default=10, help="largest ambient dimension")
    p.add_argument("--samples", type=int, default=2000, help="profile grid size")
    p.add_argument(
        "--tol",
        type=_parse_tolerance,
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named verification tolerance (repeatable)",
    )
    _add_output_flags(p)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    command = args.command
    extras: dict[str, int] = {}
    ambient_dim = getattr(args, "dim", None)
    samples = getattr(args, "samples", None)
    overrides: dict[str, float] = {}
    if command == "stability":
        extras = {"n1": args.n1, "n2": args.n2}
        samples = args.scan
    elif command == "verify":
        extras = {"max_dim": args.max_dim}
        overrides = dict(args.tol)
    return RunConfig(
        command=command,
        ambient_dim=ambient_dim,
        samples=samples,
        space=getattr(args, "space", "rp"),
        output_format=args.format,
        output_path=args.out,
        tolerance_overrides=overrides,
        extras=extras,
    )


def _validate(config: RunConfig, parser: argparse.ArgumentParser) -> None:
    if config.output_path and not os.path.isdir(os.path.dirname(config.output_path) or "."):
        parser.error(f"--out directory does not exist: {config.output_path}")
    if config.command in ("profile", "transitions"):
        minimum = 2 if config.command == "profile" else 3
        if config.ambient_dim is None or config.ambient_dim < minimum:
            parser.error(f"--dim must be >= {minimum} for {config.command}")
    if config.command in ("willmore", "areas") and config.ambient_dim < 2:
        parser.error("--dim must be >= 2")
    if config.command == "profile" and config.samples < 2:
        parser.error("--samples must be >= 2")
    if config.command == "willmore" and config.samples < 1000:
        parser.error("--samples must be >= 1000")
    if config.command == "stability":
        if config.extras["n1"] < 1 or config.extras["n2"] < 1:
            parser.error("--n1 and --n2 must be >= 1")
        if config.samples < 2:
            parser.error("--scan must be >= 2")
    if config.command == "verify":
        if config.extras["max_dim"] < 3:
            parser.error("--max-dim must be >= 3")
        if config.samples < 100:
            parser.error("--samples must be >= 100")


def run(config: RunConfig, stdout=None, stderr=None) -> int:
    """Execute one resolved configuration and write its report."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        if config.command == "profile":
            return _cmd_profile(config, stdout)
        if config.command == "transitions":
            return _cmd_transitions(config, stdout)
        if config.command == "stability":
            return _cmd_stability(config, stdout)
        if config.command == "willmore":
            return _cmd_willmore(config, stdout)
        if config.command == "areas":
            return _cmd_areas(config, stdout)
        if config.command == "verify":
            return _cmd_verify(config, stdout, stderr)
    except (CrossingNotFound, QuadratureError) as exc:
        stderr.write(f"verification failure: {exc}\n")
        return 1
    raise AssertionError(f"unhandled command {config.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    config = _config_from(args)
    try:
        _validate(config, parser)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
