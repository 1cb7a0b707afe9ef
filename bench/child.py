"""One benchmark round in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>' where the spec holds workload,
seed, round, size, trace (0/1), trace_run (part of a traced run: no
host-speed sampling), setup_only and oracle (a path or null).
Set-up runs first (imports, named sets, seeded inputs, re-posed files);
then each query runs under its own timer and is judged after it stops.
The last stdout line is one JSON object with the round's results;
``setup_end`` is a CLOCK_MONOTONIC reading, so the parent can time set-up
from the moment it started this interpreter.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

# The host is shared: its speed for this interpreter swings by 20-30 % over
# a few seconds. A fixed kernel is timed every REF_PERIOD_S while queries
# run, and each query's time is scaled by REF_NOMINAL_S over the kernel's
# mean time within REF_WINDOW_S of the query: the time the query would
# have taken at the host speed where the kernel takes REF_NOMINAL_S.
REF_PERIOD_S = 0.2
REF_WINDOW_S = 0.5
REF_NOMINAL_S = 0.0022   # about the kernel's median on a 2-vCPU Xeon at 2.1 GHz
SETUP_PROBES = 5         # kernel samples right after set-up, which scale its time


def _kernel() -> None:
    """Fixed plain-Fraction work that does not use lpcckit, so a change to
    lpcckit cannot change its time; only the host's speed does."""
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)


class HostSpeed:
    """Times ``_kernel`` from a SIGALRM handler, during queries too."""

    def __init__(self) -> None:
        self.at: list[float] = []      # perf_counter midpoint of each sample
        self.took: list[float] = []    # the kernel's seconds in that sample
        self.spent = 0.0               # seconds spent sampling so far

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        _kernel()
        took = time.perf_counter() - t0
        self.at.append(t0 + took / 2)
        self.took.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the kernel's mean time near [t0, t1]; the
        samples nearest to it when none fell within REF_WINDOW_S."""
        lo = bisect.bisect_left(self.at, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + REF_WINDOW_S)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return REF_NOMINAL_S / statistics.mean(self.took[lo:hi])


def main() -> int:
    spec = json.loads(sys.argv[1])
    import lpcckit
    import lpcckit.cli  # noqa: F401  (loads every layer module: set-up cost)
    if Path(lpcckit.__file__).resolve().parent != ROOT / "src" / "lpcckit":
        print(f"lpcckit imported from {lpcckit.__file__}, not from src/", file=sys.stderr)
        return 2

    from checks import load_oracle
    from tracer import Tracer, layer_metrics
    from workloads import build_round

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    work_dir = BENCH / ".work" / str(os.getpid())
    try:
        queries = build_round(spec["workload"], spec["seed"], spec["round"],
                              spec["size"], load_oracle(spec["oracle"]), work_dir)
        setup_end = time.monotonic()
        # set-up is short, so the host's speed just after it scales it
        speed = HostSpeed()
        for _ in range(SETUP_PROBES):
            speed.sample()
        setup_scale = REF_NOMINAL_S / statistics.median(speed.took)
        if spec["setup_only"]:
            print(json.dumps({"setup_end": setup_end, "setup_scale": setup_scale}))
            return 0
        if spec["trace_run"]:
            # traced rounds and their untraced twins measure layers, and a
            # sampler would add its time to the spans
            speed = None
        else:
            speed.start()
        times, spans, verdicts, failures, unknown = [], [], [], {}, 0
        for k, q in enumerate(queries):
            error = None
            # the previous query's garbage is collected before the timer
            # starts, so no query pays for another's
            gc.collect()
            spent0 = speed.spent if speed else 0.0
            t0 = time.perf_counter()
            try:
                result = tracer.run_query(k, q.call) if tracer else q.call()
            except Exception as exc:  # a failed query is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            times.append(t1 - t0 - ((speed.spent if speed else 0.0) - spent0))
            spans.append((t0, t1))
            if tracer:
                tracer.finish_query()
            if error is None:
                try:
                    j = q.judge(result)
                except Exception as exc:  # a judge that cannot read the result fails the query
                    error = f"judge raised {type(exc).__name__}: {exc}"
            if error is not None:
                verdicts.append([q.qid, {"error": error.split(":")[0]}])
                failures[q.qid] = [error]
                continue
            verdicts.append([q.qid, j.verdict])
            unknown += j.unknown
            if j.problems:
                failures[q.qid] = j.problems
        if speed:
            speed.stop()
        out = {
            "setup_end": setup_end,
            "setup_scale": setup_scale,
            "qids": [q.qid for q in queries],
            "times": times,
            "scaled": ([t * speed.scale(*span) for t, span in zip(times, spans)]
                       if speed else times),
            "kernel_s": statistics.median(speed.took) if speed else None,
            "failures": failures,
            "unknown": unknown,
            "verdicts": verdicts,
            "digest": hashlib.sha256(
                json.dumps(verdicts, sort_keys=True).encode()).hexdigest(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer:
            tracer.uninstall()
            summary = tracer.summary()
            out["trace"] = {**summary, "layers": layer_metrics(summary)}
            if spec.get("spans_path"):
                tracer.dump(Path(spec["spans_path"]))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
