"""rpiso benchmark: one command, three workloads, timed by the median of
interleaved repetitions.

    python3 bench/run.py --workload tabulate|queries|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; rpiso is imported from ./src.
The runner draws every input from --seed, hands it to a worker process
that calls into rpiso (bench/worker.py), and checks every output against
the independent oracle in bench/oracle.py.  It cycles through the
workload's units in whole rounds, each round in a seeded order, until
--seconds have passed, and reports each unit's median repetition.
attempted and failed count the operations of the first round, one pass
over the workload's questions, so both are the same in every run; every
later repetition is checked too, and a wrong answer outside the
known-fault tail slice makes the run incorrect.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
setup_s, solve_s and peak_rss_mb; with --trace 1 alternate rounds run
under the span tracer and the metrics are the per-layer figures of
bench/layers.py.  Tables, the verify report, spans and results are
written under .bench_out/.  Exit code 2 means the checkout or the
arguments are unusable; 1 means the run itself broke.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SRC = ROOT / "src"

# Fresh-interpreter imports of rpiso per run, spread over the run; setup_s
# is their median.
SETUP_STARTS = 10
# Longest a single worker request may take before the run is abandoned.
REPLY_TIMEOUT_S = 90
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rpiso; print(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    pass


class WorkerProcess:
    """The worker, driven one JSON line at a time."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def send(self, req: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError("the worker has exited") from exc
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"worker gave no reply to {req.get('op')} {req.get('kind', '')}")
        return json.loads(line)

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def import_seconds() -> float:
    """Time of `import rpiso` inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchError(f"import rpiso failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "rpiso").rglob("*.py")))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import layers
    import workloads

    units = workloads.build(workload)
    streams = np.random.SeedSequence(seed).spawn(len(units) + 1)
    order_rng = np.random.default_rng(streams[0])
    unit_rngs = [np.random.default_rng(s) for s in streams[1:]]
    records = [layers.UnitRecord(u) for u in units]
    checker = workloads.Checker()
    tables = OUT_DIR / "tables"
    tables.mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    unexpected: list[str] = []
    setup: list[float] = []
    calib = []
    perimeter_err = transition_err = 0.0
    rounds = traced_rounds = 0
    worker = WorkerProcess(trace)
    try:
        starts = 0 if trace else SETUP_STARTS
        t0 = perf_counter()
        while rounds < (2 if trace else 1) or perf_counter() - t0 < seconds:
            traced = trace and rounds % 2 == 0
            for i in order_rng.permutation(len(units)):
                if len(setup) < starts and perf_counter() - t0 >= len(setup) * seconds / starts:
                    setup.append(import_seconds())
                unit, rec = units[i], records[i]
                reps = len(rec.traced) + len(rec.untraced)
                if unit.distinct and (
                    reps == unit.distinct or perf_counter() - t0 < reps * seconds / unit.distinct
                ):
                    continue
                req = workloads.request(unit, unit_rngs[i], tables, reps)
                reply = worker.send({"op": "unit", "trace": traced, **req})
                out = checker.check(unit, req, reply)
                if rounds == 0:
                    attempted += unit.calls
                    failed += out.failed
                if not unit.known_fault:
                    unexpected += out.problems
                    perimeter_err = max(perimeter_err, out.perimeter_err)
                    transition_err = max(transition_err, out.transition_err)
                calib.append(reply["calib_s"])
                seconds_scaled = reply["seconds"] * workloads.time_scale(unit, req)
                if traced:
                    rec.traced.append(layers.Rep(seconds_scaled, reply["trace"], req, out.solves))
                else:
                    rec.untraced.append(seconds_scaled)
            rounds += 1
            traced_rounds += traced
        while len(setup) < starts:
            setup.append(import_seconds())
        if workload == "verify":
            report = OUT_DIR / "verify-report.json"
            reply = worker.send({"op": "verify_cli", "out": str(report)})
            problems = workloads.check_verify_report(report, reply["result"])
            attempted += 1
            failed += bool(problems)
            unexpected += [f"rpiso verify --format json: {p}" for p in problems]
        done = worker.send({"op": "finish", "trace_out": str(OUT_DIR / f"trace-{workload}.npz")})
    finally:
        worker.close()

    for line in unexpected[:20]:
        print(f"unexpected: {line}", file=sys.stderr)
    print(f"{workload}: {rounds} rounds, {attempted} operations, {failed} failed, "
          f"calibration loop {1e3 * statistics.median(calib):.3f} ms median, "
          f"worker peak RSS {done['maxrss_kb'] / 1024.0:.1f} MB", file=sys.stderr)
    if trace:
        metrics, absent = layers.per_layer(records, {
            "traced_rounds": traced_rounds,
            "calib_s": statistics.median(calib),
            "perimeter_err": perimeter_err,
            "transition_err": transition_err,
            "src_lines": src_lines(),
            "wrapped": done["wrapped"],
        })
        for name in absent:
            print(f"absent: {name}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_s": {"value": sum(statistics.median(rec.untraced) for rec in records), "unit": "s"},
            "peak_rss_mb": {"value": done["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tabulate", "queries", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rpiso" / "__init__.py").is_file():
        print(f"no rpiso sources under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
    except ImportError as exc:
        print(f"the benchmark needs numpy and scipy: {exc}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    line = json.dumps(result)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
