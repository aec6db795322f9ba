"""Command-line front end: profiles, transitions, stability scans,
Willmore tables, Clifford areas, and the verification suite.

Each subcommand is declared once, by ``_command`` on its handler: help,
flags (their argparse types enforce every bound) and the flags echoed
under "extras".  Reports are CSV (LF endings; the whole table is one
%-format over its columns, with a row template taken from each column's
first cell, since a column holds one type in every row: %s for a str
cell, %d for an int or a bool, which prints as 1 or 0, and %.17g for a
float, so floats keep 17 significant digits) or JSON (schema_version "1",
echoing the resolved configuration).  The parser is built once per
process.  Exit status is 0 on success, 1 when a verification
check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import verify as verify_mod
from .clifford import CliffordShape
from .profile import _MAX_DIM, CrossingNotFound, Space, _profile_columns, total_volume
from .profile import transition_volumes
from .spectrum import stability_report
from .specfn import QuadratureError, sphere_area
from .willmore import _MAX_N, clifford_area_f, width_candidate, willmore_report

__all__ = ["build_parser", "main"]

_SCHEMA_VERSION = "1"

# Whether the min-max width of the projective space carries an extra
# antipodal factor 1/2 is a normalization choice; reports quote the
# product-sphere area and flag the ambiguity.
_WIDTH_NOTE = (
    "width_candidate is the full product-sphere area; whether the projective "
    "min-max width carries an additional factor 1/2 from the antipodal "
    "quotient is left open, so compare accordingly"
)


class _Report(NamedTuple):
    """CSV header and columns, JSON payload (built on demand), exit status.
    One column per header name, all of one length; a column holds one type
    in every row: str, int, bool or float."""

    header: list[str]
    columns: Sequence[Sequence]
    payload: Callable[[], dict]
    status: int = 0


def _records(header: list[str], columns: Sequence[Sequence]) -> list[dict]:
    """One dict per row, keyed by the header: a report's rows for JSON."""
    return [dict(zip(header, row)) for row in zip(*columns)]


def _int_range(minimum: int, maximum: int | None = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _out_path(text: str) -> str:
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"is a directory, not a file: {text}")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"directory does not exist: {text}")
    return text


def _parse_tolerance(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        value = float(raw)
        verify_mod._check_tolerance(name, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}: {exc}") from None
    return name, value


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return names, kwargs


def _dim(minimum: int, what: str = "ambient dimension", maximum: int | None = None, **kwargs):
    text = f"{what} (>= {minimum})" if maximum is None else f"{what} ({minimum} to {maximum})"
    return _flag("--dim", type=_int_range(minimum, maximum), required=True, help=text, **kwargs)


_SPACE = _flag("--space", choices=("rp", "sphere"), default="rp")

# name -> (summary, handler, flags, names of the flags echoed under "extras")
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, summary: str, *flags, extras: tuple[str, ...] = ()):
    def register(handler: Callable[[argparse.Namespace], _Report]):
        _COMMANDS[name] = (summary, handler, flags, extras)
        return handler

    return register


@_command(
    "profile",
    "perimeter-volume envelope over tube families",
    _dim(2, maximum=_MAX_DIM),
    _flag("--samples", type=_int_range(2), default=2000, help="interior volume samples"),
    _SPACE,
)
def _profile(args: argparse.Namespace) -> _Report:
    space = Space(args.space)
    header = ["volume", "perimeter", "best_k", "best_r"]
    columns = _profile_columns(args.dim, args.samples, space)
    return _Report(
        header,
        columns,
        lambda: {
            "total_volume": total_volume(args.dim, space),
            "points": _records(header, columns),
        },
    )


@_command(
    "transitions", "envelope handoff volumes between families", _dim(3, maximum=_MAX_DIM), _SPACE
)
def _transitions(args: argparse.Namespace) -> _Report:
    space = Space(args.space)
    header = ["k", "k_next", "volume"]
    columns = list(zip(*transition_volumes(args.dim, space)))
    return _Report(
        header,
        columns,
        lambda: {
            "total_volume": total_volume(args.dim, space),
            "transitions": _records(header, columns),
        },
    )


@_command(
    "stability",
    "stability margin scan for one factor pair",
    _flag("--n1", type=_int_range(1), required=True, help="first factor dimension (>= 1)"),
    _flag("--n2", type=_int_range(1), required=True, help="second factor dimension (>= 1)"),
    _flag("--scan", dest="samples", metavar="SCAN", type=_int_range(2), default=100,
          help="number of latitudes"),
    extras=("n1", "n2"),
)
def _stability(args: argparse.Namespace) -> _Report:
    rs = 0.5 * math.pi * np.arange(1, args.samples + 1) / (args.samples + 1)
    report = stability_report(CliffordShape(args.n1, args.n2, rs))
    inside = (report.interval_lo <= rs) & (rs <= report.interval_hi)
    header = ["r", "lambda1", "margin", "in_interval"]
    columns = rs.tolist(), report.lambda1.tolist(), report.margin.tolist(), inside.tolist()
    return _Report(
        header,
        columns,
        lambda: {
            "interval_lo": report.interval_lo,
            "interval_hi": report.interval_hi,
            "points": _records(header, columns),
        },
    )


@_command(
    "willmore",
    "tube Willmore minimum and width candidate",
    _dim(2, "hypersurface dimension n", _MAX_N, dest="n"),
    _flag("--samples", type=_int_range(1000), default=10_000, help="latitude grid size"),
    extras=("n",),
)
def _willmore(args: argparse.Namespace) -> _Report:
    report = willmore_report(args.n, args.samples)
    header = ["n", "sigma_n", "min_energy", "argmin_k", "argmin_r", "chain_ok", "convexity_ok"]
    return _Report(
        header,
        [[getattr(report, name)] for name in header],
        lambda: {"report": dataclasses.asdict(report), "note": _WIDTH_NOTE},
    )


@_command(
    "areas",
    "minimal Clifford areas f(p) for p = 1..n-1",
    _dim(2, "hypersurface dimension n", _MAX_N, dest="n"),
    extras=("n",),
)
def _areas(args: argparse.Namespace) -> _Report:
    n = args.n
    header = ["p", "area"]
    columns = list(range(1, n)), clifford_area_f(n, np.arange(1.0, n)).tolist()
    return _Report(
        header,
        columns,
        lambda: {
            "two_sphere_bound": 2.0 * sphere_area(n),
            "balanced_minimum": width_candidate(n),
            "areas": _records(header, columns),
            "note": _WIDTH_NOTE,
        },
    )


@_command(
    "verify",
    "run the full verification suite",
    _flag("--max-dim", type=_int_range(3, _MAX_DIM), default=10, help="largest ambient dimension"),
    _flag("--samples", type=_int_range(100), default=2000, help="profile grid size"),
    _flag("--tol", type=_parse_tolerance, action="append", default=[], metavar="NAME=VALUE",
          help="override a named verification tolerance (repeatable)"),
    extras=("max_dim",),
)
def _verify(args: argparse.Namespace) -> _Report:
    overrides = dict(args.tol) or None
    results = verify_mod.run_all(max_dim=args.max_dim, samples=args.samples, overrides=overrides)
    for res in results:
        sys.stderr.write(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}\n")
    all_passed = all(r.passed for r in results)
    return _Report(
        ["name", "passed", "detail"],
        [
            [r.name for r in results],
            [r.passed for r in results],
            [r.detail.replace(",", ";") for r in results],
        ],
        lambda: {"checks": [dataclasses.asdict(r) for r in results], "all_passed": all_passed},
        0 if all_passed else 1,
    )


def _write_report(args: argparse.Namespace, report: _Report) -> None:
    """Render the report in --format and write it to --out or stdout."""
    if args.format == "csv":
        columns = report.columns
        # A bool is an int, and '%d' % True is "1".
        row = ",".join(
            "%s" if isinstance(c[0], str) else "%d" if isinstance(c[0], int) else "%.17g"
            for c in columns
        )
        # Row-major cells, the columns interleaved.
        cells = [None] * (len(columns) * len(columns[0]))
        for i, column in enumerate(columns):
            cells[i :: len(columns)] = column
        text = ",".join(report.header) + "\n" + (row + "\n") * len(columns[0]) % tuple(cells)
    else:
        config = {
            "command": args.command,
            "ambient_dim": getattr(args, "dim", None),
            "samples": getattr(args, "samples", None),
            "space": getattr(args, "space", "rp"),
            "output_format": args.format,
            "output_path": args.out,
            "tolerance_overrides": dict(getattr(args, "tol", [])),
            "extras": {name: getattr(args, name) for name in args.extra_flags},
        }
        obj = {"schema_version": _SCHEMA_VERSION, "config": config, **report.payload()}
        text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpiso",
        description=(
            "Isoperimetric profiles of real projective spaces from Clifford "
            "tube envelopes, with stability and Willmore-energy reports."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, flags, extras) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for names, kwargs in flags:
            sub.add_argument(*names, **kwargs)
        sub.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
        sub.add_argument("--out", type=_out_path, help="write the report to this path")
        sub.set_defaults(handler=handler, extra_flags=extras)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process, since a build costs
    about ten parses.  Parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        report = args.handler(args)
        _write_report(args, report)
    except (CrossingNotFound, QuadratureError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    return report.status


if __name__ == "__main__":
    sys.exit(main())
