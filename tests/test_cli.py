"""Command-line interface: formats, determinism, and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpiso import cli
from rpiso.cli import _Report, _write_report, build_parser, main
from rpiso.profile import CrossingNotFound, Space, profile_curve


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _in_tmp(argv, tmp_path):
    """Point MISSING at a directory that does not exist under tmp_path,
    and EXISTING_DIR at tmp_path itself."""
    return [
        a.replace("MISSING", str(tmp_path / "missing")).replace("EXISTING_DIR", str(tmp_path))
        for a in argv
    ]


class TestProfileCommand:
    def test_csv_shape(self):
        code, out, _ = run_cli(["profile", "--dim", "3", "--samples", "20"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "volume,perimeter,best_k,best_r"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[0]) > 0.0

    def test_uses_lf_endings_and_17_digits(self):
        code, out, _ = run_cli(["profile", "--dim", "3", "--samples", "5"])
        assert code == 0
        assert "\r" not in out
        # Round-trip safety: parse a float field back and reformat it.
        value = out.splitlines()[1].split(",")[0]
        assert format(float(value), ".17g") == value

    def test_deterministic(self):
        argv = ["profile", "--dim", "4", "--samples", "50"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_sphere_space_doubles_volumes(self):
        _, rp, _ = run_cli(["profile", "--dim", "3", "--samples", "10"])
        _, sp, _ = run_cli(["profile", "--dim", "3", "--samples", "10", "--space", "sphere"])
        v_rp = float(rp.splitlines()[1].split(",")[0])
        v_sp = float(sp.splitlines()[1].split(",")[0])
        assert v_sp == pytest.approx(2.0 * v_rp, rel=1e-12)

    def test_json_schema(self):
        code, out, _ = run_cli(
            ["profile", "--dim", "3", "--samples", "10", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["config"]["command"] == "profile"
        assert doc["config"]["ambient_dim"] == 3
        assert doc["config"]["samples"] == 10
        assert len(doc["points"]) == 10
        assert doc["total_volume"] == pytest.approx(math.pi**2, rel=1e-12)

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            ["profile", "--dim", "3", "--samples", "5", "--out", str(path)]
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("volume,perimeter")
        assert text.endswith("\n")

    # 37 is not a multiple of the envelope's node stride, so the last
    # volumes fall between nodes.
    @pytest.mark.parametrize("samples", [37, 2000])
    @pytest.mark.parametrize("space", ["rp", "sphere"])
    @pytest.mark.parametrize("dim", [3, 10])
    def test_rows_equal_profile_curve(self, dim, space, samples):
        points = profile_curve(dim, samples, Space(space))
        argv = ["profile", "--dim", str(dim), "--samples", str(samples), "--space", space]
        code, out, _ = run_cli(argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "volume,perimeter,best_k,best_r"
        assert len(lines) == samples + 1
        for line, p in zip(lines[1:], points):
            volume, perimeter, best_k, best_r = line.split(",")
            assert float(volume) == p.volume
            assert float(perimeter) == p.perimeter
            assert int(best_k) == p.best_k
            assert float(best_r) == p.best_r
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["points"] == [dataclasses.asdict(p) for p in points]


class TestWriteReport:
    def test_csv_cells(self):
        """Every non-str cell prints with 17 significant digits, a bool as
        1 or 0 and an int as its digits; a str cell prints as it is."""
        columns = [
            [True, False, True],
            [0, -3, 123456789],
            [0.1, -0.0, 1.0],
            [1e-300, 5e-324, 2.5],
            [math.inf, math.nan, -math.inf],
            [np.float64(2.0 / 3.0), np.float64(1e300), np.float64(-0.0)],
            ["first row", "second", "x%sy"],
        ]
        args = argparse.Namespace(format="csv", out=None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_report(args, _Report(list("abcdefg"), columns, dict))
        assert out.getvalue() == (
            "a,b,c,d,e,f,g\n"
            "1,0,0.10000000000000001,1e-300,inf,0.66666666666666663,first row\n"
            "0,-3,-0,4.9406564584124654e-324,nan,1.0000000000000001e+300,second\n"
            "1,123456789,1,2.5,-inf,-0,x%sy\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_csv_equals_row_by_row_rendering(self, data):
        """The one-format table equals the row-by-row rendering: a
        %-template from the first row's cells, applied to each row, the rows
        joined by newlines."""
        cell = {
            float: st.floats(allow_subnormal=True)
            | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308]),
            int: st.integers(-(10**20), 10**20),
            bool: st.booleans(),
            str: st.text(st.sampled_from("ab,%s %d\\"), max_size=8)
            | st.sampled_from(["%", "%s", ",", "%%", "a,b%s"]),
        }
        kinds = data.draw(st.lists(st.sampled_from(list(cell)), min_size=1, max_size=6))
        nrows = data.draw(st.integers(1, 12))
        columns = [
            data.draw(st.lists(cell[kind], min_size=nrows, max_size=nrows)) for kind in kinds
        ]
        header = [f"c{i}" for i in range(len(columns))]
        rows = list(zip(*columns))
        row = ",".join(
            "%s" if isinstance(x, str) else "%d" if isinstance(x, int) else "%.17g"
            for x in rows[0]
        )
        want = "\n".join([",".join(header), *map(row.__mod__, rows)]) + "\n"
        args = argparse.Namespace(format="csv", out=None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _write_report(args, _Report(header, columns, dict))
        assert out.getvalue() == want


class TestParser:
    def test_build_parser_returns_a_new_parser_each_call(self):
        assert build_parser() is not build_parser()

    def test_main_parses_with_one_cached_parser(self):
        assert cli._parser() is cli._parser()

    def test_parsing_leaves_no_state_behind(self, tmp_path):
        out = str(tmp_path / "report.csv")
        first = cli._parser().parse_args(["verify", "--tol", "profile_symmetry=1e-3", "--out", out])
        assert first.tol == [("profile_symmetry", 1e-3)] and first.out == out
        second = cli._parser().parse_args(["verify"])
        assert second.tol == [] and second.out is None
        assert first.tol == [("profile_symmetry", 1e-3)]


class TestTransitionsCommand:
    def test_csv(self):
        code, out, _ = run_cli(["transitions", "--dim", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,k_next,volume"
        assert len(lines) == 3

    def test_json(self):
        code, out, _ = run_cli(["transitions", "--dim", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["transitions"]) == 3
        vols = [t["volume"] for t in doc["transitions"]]
        assert vols == sorted(vols)


class TestStabilityCommand:
    def test_scan_table(self):
        code, out, _ = run_cli(["stability", "--n1", "1", "--n2", "1", "--scan", "100"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,lambda1,margin,in_interval"
        assert len(lines) == 101
        rows = [line.split(",") for line in lines[1:]]
        flags = [int(row[3]) for row in rows]
        # One contiguous stable block strictly inside the scan.
        assert flags[0] == 0 and flags[-1] == 0
        assert sum(flags) > 0
        first = flags.index(1)
        last = len(flags) - 1 - flags[::-1].index(1)
        assert all(f == 1 for f in flags[first : last + 1])
        inside = [float(rows[i][2]) for i in range(first, last + 1)]
        outside = [float(rows[i][2]) for i in range(first)] + [
            float(rows[i][2]) for i in range(last + 1, len(rows))
        ]
        assert all(abs(m) <= 1e-9 for m in inside)
        assert all(m < 0.0 for m in outside)

    def test_json_carries_interval(self):
        code, out, _ = run_cli(
            ["stability", "--n1", "2", "--n2", "3", "--scan", "10", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["interval_lo"] == pytest.approx(math.atan(math.sqrt(3.0 / 4.0)), rel=1e-12)
        assert doc["interval_hi"] == pytest.approx(math.atan(math.sqrt(5.0 / 2.0)), rel=1e-12)
        assert len(doc["points"]) == 10


class TestWillmoreCommand:
    def test_csv_row(self):
        code, out, _ = run_cli(["willmore", "--dim", "2", "--samples", "2000"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,sigma_n,min_energy,argmin_k,argmin_r,chain_ok,convexity_ok"
        row = lines[1].split(",")
        assert int(row[0]) == 2
        assert float(row[1]) == pytest.approx(2.0 * math.pi**2, rel=1e-12)
        assert row[5] == "1" and row[6] == "1"

    def test_json_flags_width_convention(self):
        code, out, _ = run_cli(
            ["willmore", "--dim", "3", "--samples", "2000", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert "note" in doc
        assert "factor 1/2" in doc["note"]
        assert doc["report"]["chain_ok"] is True


class TestAreasCommand:
    def test_table(self):
        code, out, _ = run_cli(["areas", "--dim", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,area"
        assert len(lines) == 4
        areas = [float(line.split(",")[1]) for line in lines[1:]]
        assert areas[0] == pytest.approx(areas[2], rel=1e-12)
        assert areas[1] < areas[0]

    def test_json_bounds(self):
        code, out, _ = run_cli(["areas", "--dim", "5", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["two_sphere_bound"] > max(a["area"] for a in doc["areas"])
        assert doc["balanced_minimum"] == pytest.approx(
            min(a["area"] for a in doc["areas"]), rel=1e-12
        )

    def test_largest_dimension(self):
        # n = 437 is the largest --dim that willmore and areas accept.
        code, out, _ = run_cli(["areas", "--dim", "437", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert min(a["area"] for a in doc["areas"]) >= sys.float_info.min
        assert doc["balanced_minimum"] >= sys.float_info.min
        code, out, _ = run_cli(["willmore", "--dim", "437", "--samples", "1000"])
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) >= sys.float_info.min and row[5:] == ["1", "1"]


class TestVerifyCommand:
    def test_reduced_suite_passes(self):
        code, out, err = run_cli(
            ["verify", "--max-dim", "4", "--samples", "300", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) == 8
        assert "PASS" in err

    def test_tolerance_override_can_fail(self):
        # An absurdly tight symmetry tolerance must flip the profile check.
        code, out, _ = run_cli(
            [
                "verify",
                "--max-dim",
                "3",
                "--samples",
                "300",
                "--tol",
                "profile_symmetry=1e-18",
                "--format",
                "json",
            ]
        )
        assert code == 1
        doc = json.loads(out)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert "profile_arcs" in failed

    def test_unknown_tolerance_rejected(self):
        code, _, _ = run_cli(["verify", "--tol", "bogus=1"])
        assert code == 2

    def test_tolerance_without_a_value_rejected(self):
        code, out, err = run_cli(["verify", "--tol", "foo"])
        assert code == 2
        assert out == ""
        assert "expected NAME=VALUE, got 'foo'" in err.splitlines()[-1]

    def test_missing_crossing_is_a_verification_failure(self, monkeypatch):
        def no_crossing(dim, space):
            raise CrossingNotFound(f"no handoff in ambient dimension {dim}")

        monkeypatch.setattr(cli, "transition_volumes", no_crossing)
        code, out, err = run_cli(["transitions", "--dim", "4"])
        assert code == 1
        assert out == ""
        assert err == "verification failure: no handoff in ambient dimension 4\n"


class TestHelp:
    COMMON = {"--help", "--format", "--out"}
    FLAGS = {
        "profile": {"--dim", "--samples", "--space"},
        "transitions": {"--dim", "--space"},
        "stability": {"--n1", "--n2", "--scan"},
        "willmore": {"--dim", "--samples"},
        "areas": {"--dim"},
        "verify": {"--max-dim", "--samples", "--tol"},
    }

    def test_top_level_help_names_every_command(self):
        code, out, err = run_cli(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: rpiso ")
        for name in self.FLAGS:
            assert f"\n    {name} " in out, name

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_command_help_names_its_flags(self, command):
        code, out, err = run_cli([command, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: rpiso {command} ")
        assert set(re.findall(r"--[a-z][a-z0-9-]*", out)) == self.FLAGS[command] | self.COMMON


class TestUsageErrors:
    def test_unknown_flag(self):
        code, _, _ = run_cli(["profile", "--dim", "3", "--bogus"])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_missing_required(self):
        code, _, _ = run_cli(["profile"])
        assert code == 2

    def test_bad_dimension(self):
        code, _, _ = run_cli(["profile", "--dim", "1"])
        assert code == 2

    def test_bad_samples(self):
        code, _, _ = run_cli(["profile", "--dim", "3", "--samples", "1"])
        assert code == 2

    def test_stability_requires_positive_factors(self):
        code, _, _ = run_cli(["stability", "--n1", "0", "--n2", "2"])
        assert code == 2

    def test_no_command(self):
        code, _, _ = run_cli([])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["areas", "--dim", "4", "--out", "MISSING/areas.csv"],
            ["profile", "--dim", "3", "--out", "MISSING/deeper/p.csv"],
            ["verify", "--tol", "identity=nan"],
            ["verify", "--tol", "identity=inf"],
            ["verify", "--tol", "identity=0"],
            ["verify", "--tol", "identity=nan", "--tol", "rp3_perimeter=-1"],
            ["areas", "--dim", "4", "--out", "EXISTING_DIR"],
        ],
    )
    def test_bad_out_directory_and_tolerance_values(self, argv, tmp_path):
        argv = _in_tmp(argv, tmp_path)
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert "error:" in err.splitlines()[-1]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["profile", "--dim", "3", "--bogus"], "--bogus"),
            (["profile"], "--dim"),
            (["profile", "--dim", "1"], "--dim"),
            (["profile", "--dim", "x"], "--dim"),
            (["profile", "--dim", "3", "--samples", "1"], "--samples"),
            (["profile", "--dim", "3", "--space", "hyper"], "--space"),
            (["transitions", "--dim", "2"], "--dim"),
            (["stability", "--n1", "0", "--n2", "2"], "--n1"),
            (["stability", "--n1", "2", "--n2", "0"], "--n2"),
            (["stability", "--n1", "1", "--n2", "1", "--scan", "1"], "--scan"),
            (["willmore", "--dim", "1"], "--dim"),
            (["willmore", "--dim", "3", "--samples", "999"], "--samples"),
            (["areas", "--dim", "1"], "--dim"),
            (["areas", "--dim", "4", "--format", "xml"], "--format"),
            (["verify", "--max-dim", "2"], "--max-dim"),
            (["verify", "--samples", "99"], "--samples"),
            (["verify", "--tol", "bogus=1"], "--tol"),
            (["areas", "--dim", "4", "--out", "MISSING/areas.csv"], "--out"),
            (["areas", "--dim", "4", "--out", "EXISTING_DIR"], "--out"),
            (["willmore", "--dim", "438"], "--dim"),
            (["areas", "--dim", "438"], "--dim"),
            (["profile", "--dim", "437"], "--dim"),
            (["transitions", "--dim", "437"], "--dim"),
            (["verify", "--max-dim", "437"], "--max-dim"),
        ],
    )
    def test_error_names_the_flag(self, argv, flag, tmp_path):
        argv = _in_tmp(argv, tmp_path)
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert "error:" in last
        assert flag in last


def _echo(
    command,
    ambient_dim=None,
    samples=None,
    space="rp",
    output_path=None,
    tolerance_overrides=None,
    extras=None,
):
    """The expected config block of a --format json report."""
    return {
        "command": command,
        "ambient_dim": ambient_dim,
        "samples": samples,
        "space": space,
        "output_format": "json",
        "output_path": output_path,
        "tolerance_overrides": tolerance_overrides or {},
        "extras": extras or {},
    }


class TestConfigEcho:
    """The JSON report's config block, key for key and in order."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["profile", "--dim", "3", "--samples", "10", "--space", "sphere"],
                _echo("profile", ambient_dim=3, samples=10, space="sphere"),
            ),
            (["profile", "--dim", "3"], _echo("profile", ambient_dim=3, samples=2000)),
            (["transitions", "--dim", "4"], _echo("transitions", ambient_dim=4)),
            (
                ["stability", "--n1", "2", "--n2", "3", "--scan", "10"],
                _echo("stability", samples=10, extras={"n1": 2, "n2": 3}),
            ),
            (
                ["stability", "--n1", "1", "--n2", "4"],
                _echo("stability", samples=100, extras={"n1": 1, "n2": 4}),
            ),
            (
                ["willmore", "--dim", "3", "--samples", "2000"],
                _echo("willmore", samples=2000, extras={"n": 3}),
            ),
            (["areas", "--dim", "5"], _echo("areas", extras={"n": 5})),
        ],
    )
    def test_report_commands(self, argv, expected):
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config.items()) == list(expected.items())

    def test_verify_with_overrides_and_out(self, tmp_path):
        path = tmp_path / "verify.json"
        argv = [
            "verify", "--max-dim", "3", "--samples", "200",
            "--tol", "profile_symmetry=1e-3", "--tol", "identity=1e-9",
            "--format", "json", "--out", str(path),
        ]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out == ""
        config = json.loads(path.read_text())["config"]
        expected = _echo(
            "verify",
            samples=200,
            output_path=str(path),
            tolerance_overrides={"profile_symmetry": 1e-3, "identity": 1e-9},
            extras={"max_dim": 3},
        )
        assert list(config.items()) == list(expected.items())
        assert list(config["tolerance_overrides"]) == ["profile_symmetry", "identity"]
