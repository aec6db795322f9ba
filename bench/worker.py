"""Benchmark worker: the workload process that calls into rpiso.

Started by run.py as ``python3 worker.py ROOT TRACE``.  It imports
rpiso from ROOT/src, then answers one JSON request per line on stdin with
one JSON reply per line on its original stdout (rpiso's own writes to
stdout go to stderr instead).  Only rpiso and numpy are imported here, so
the peak resident memory this process reports is the workload's own.

Each unit request first times a fixed reference loop that calls nothing
in rpiso (machine calibration), then times the unit's calls as one block.
Outputs are converted to plain lists after the timed block.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer


def _calibrate() -> float:
    data = np.arange(50_000, dtype=float)
    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i % 7
    float(np.sqrt(data).sum())
    return perf_counter() - t0


class _Raised:
    def __init__(self, exc: Exception) -> None:
        self.error = f"{type(exc).__name__}: {exc}"


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # one failed operation; the run continues
        return _Raised(exc)


class Worker:
    def __init__(self, root: Path, trace: bool) -> None:
        sys.path.insert(0, str(root / "src"))
        import rpiso
        import rpiso.cli

        self.rpiso = rpiso
        self.tracer = Tracer()
        self.trace = trace
        if trace:
            self.tracer.prepare(rpiso)

    def _calls(self, req: dict) -> list:
        r = self.rpiso
        kind = req["kind"]
        if kind == "cli":
            return [_call(r.cli.main, req["argv"])]
        if kind == "check":
            return [_call(getattr(r.verify, req["name"]))]
        if kind == "transitions":
            return [_call(r.profile.transition_volumes, req["dim"], r.profile.Space(req["space"]))]
        if kind == "profile_at":
            space = r.profile.Space(req["space"])
            return [_call(r.profile.profile_at, req["dim"], v, space) for v in req["volumes"]]
        if kind == "radius":
            fam = r.profile.TubeFamily(req["dim"], req["k"], r.profile.Space(req["space"]))
            return [_call(r.profile.radius_for_volume, fam, v) for v in req["volumes"]]
        if kind == "stability":
            n1, n2 = req["n1"], req["n2"]
            shape = r.clifford.CliffordShape
            return [_call(r.spectrum.stability_report, shape(n1, n2, x)) for x in req["radii"]]
        raise ValueError(f"unknown request kind {kind!r}")

    def _plain(self, kind: str, res):
        if isinstance(res, _Raised):
            return {"error": res.error}
        if kind == "profile_at":
            return [res.perimeter, res.best_k, res.best_r]
        if kind == "stability":
            return [res.lambda1, res.margin, res.stable, res.interval_lo, res.interval_hi]
        if kind == "check":
            return [res.name, res.passed, res.detail]
        if kind == "transitions":
            return [list(t) for t in res]
        return res

    def unit(self, req: dict) -> dict:
        calib = _calibrate()
        traced = req.get("trace", False)
        first = self.tracer.mark()
        if traced:
            self.tracer.enable()
        try:
            t0 = perf_counter()
            results = self._calls(req)
            seconds = perf_counter() - t0
        finally:
            self.tracer.disable()
        reply = {
            "seconds": seconds,
            "calib_s": calib,
            "result": [self._plain(req["kind"], x) for x in results],
        }
        if traced:
            reply["trace"] = self.tracer.summary(first)
        return reply

    def verify_cli(self, req: dict) -> dict:
        with contextlib.redirect_stderr(io.StringIO()):
            code = self.rpiso.cli.main(["verify", "--format", "json", "--out", req["out"]])
        return {"result": code}

    def finish(self, req: dict) -> dict:
        if self.trace:
            self.tracer.dump(req["trace_out"])
        return {
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "wrapped": self.tracer.names,
        }


def main(argv: list[str]) -> int:
    root, trace = Path(argv[0]), argv[1] == "1"
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    worker = Worker(root, trace)
    handlers = {"unit": worker.unit, "verify_cli": worker.verify_cli, "finish": worker.finish}
    for line in sys.stdin:
        req = json.loads(line)
        proto.write(json.dumps(handlers[req["op"]](req)) + "\n")
        proto.flush()
        if req["op"] == "finish":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
