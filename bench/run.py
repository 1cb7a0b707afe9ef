"""lpcckit verdict benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve-named --seed 1 --seconds 30 --trace 0

Each round runs in a fresh interpreter (``child.py``), so caches start cold
as they do for a CLI user: one client, one thread, a closed loop in which a
query starts when the previous one has finished. Rounds repeat until
``--seconds`` have passed; the round in progress always completes, so every
round contributes its whole query list, and a round starts only if it
should end by ``OVERSHOOT`` times ``--seconds``. With ``--trace 0`` the
last stdout line holds the end-to-end metrics. With ``--trace 1`` every round runs
twice at the same time, untraced and traced, so that both see the same host
speed, and the last line holds the per-layer metrics.
The line before it carries the run's metadata and verdict digest, and the
full record is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import ROUND_VARIES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9        # set-up is timed this many times per run at least
OVERSHOOT = 1.25         # a round starts only if it should end by this share of --seconds
DEADLINE_S = 170         # every run ends well inside the 180 s limit
TAIL_BEYOND = 10         # the tail percentile leaves this many queries per round beyond it


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the run prints exactly these."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class RoundError(RuntimeError):
    pass


def run_children(specs: list[dict], deadline: float) -> list[tuple[dict, float]]:
    """Run rounds at the same time, each in a fresh interpreter. Returns,
    per spec, the round's result and its set-up seconds from interpreter
    start to the first timed query, scaled by the host's speed just after
    set-up (child.HostSpeed)."""
    if deadline <= time.monotonic():
        raise RoundError("run deadline passed")
    procs = []
    try:
        for spec in specs:
            t_spawn = time.monotonic()
            procs.append((spec, t_spawn, subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)], cwd=ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
        results = []
        for spec, t_spawn, proc in procs:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise RoundError(f"round {spec['round']} did not finish in time") from exc
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RoundError(f"round {spec['round']} exited with {proc.returncode}: "
                                 f"{stderr.strip()[-2000:]}")
            out = json.loads(lines[-1])
            results.append((out, (out["setup_end"] - t_spawn) * out["setup_scale"]))
        return results
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def tail(times: list[float], per_round: int) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves TAIL_BEYOND
    queries per round beyond it. The percentile depends only on the round's
    size, so runs with more rounds report the same quantile."""
    beyond = min(TAIL_BEYOND, per_round - 1)
    rounds = len(times) // per_round
    ordered = sorted(times)
    return (100.0 * (per_round - beyond) / per_round,
            ordered[rounds * (per_round - beyond) - 1])


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the benchmark's self-tests: a small query list, another oracle file
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--oracle", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lpcckit" / "__init__.py").is_file():
        print(f"error: no lpcckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "oracle": args.oracle, "setup_only": False, "trace_run": bool(args.trace)}
    plain, traced, setups = [], [], []
    t_start = time.monotonic()
    try:
        while True:
            r = len(plain)
            specs = [{**base, "round": r, "trace": 0}]
            if args.trace:
                specs.append({**base, "round": r, "trace": 1,
                              "spans_path": str(results_dir / f"{stem}-round{r}.spans")})
            done = run_children(specs, deadline)
            plain.append(done[0][0])
            setups.append(done[0][1])
            if args.trace:
                traced.append(done[1][0])
            # rounds are whole: a further round starts only if, at the mean
            # round length so far, it ends near --seconds, so a workload whose
            # round is a little shorter than --seconds does not run twice as long
            elapsed = time.monotonic() - t_start
            if (elapsed >= args.seconds
                    or elapsed * (r + 2) / (r + 1) > args.seconds * OVERSHOOT):
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_children([{**base, "round": 0, "trace": 0,
                                         "setup_only": True}], deadline)[0][1])
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    per_round = len(plain[0]["times"])
    # host-scaled query times (child.HostSpeed); raw in traced runs
    times = [t for out in plain for t in out["scaled"]]
    attempted = sum(len(out["times"]) for out in plain + traced)
    failures = {}
    for kind, outs in (("round", plain), ("traced round", traced)):
        for r, out in enumerate(outs):
            for qid, problems in out["failures"].items():
                failures[f"{kind} {r} {qid}"] = problems
    digests = [out["digest"] for out in plain]
    consistent = all(t["digest"] == p["digest"] for p, t in zip(plain, traced))
    if args.workload not in ROUND_VARIES:
        consistent = consistent and len(set(digests)) == 1
    failed = len(failures)
    tail_pct, tail_value = tail(times, per_round)

    p50 = statistics.median(times)
    if args.trace:
        metrics = layer_report(plain, traced)
        units = metric_units("per_layer")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            # the median over rounds, so that one odd round does not move it
            "verdicts_per_s": statistics.median(len(out["scaled"]) / sum(out["scaled"])
                                                for out in plain),
            "verdict_p50_s": p50,
            "verdict_tail_s": tail_value,
            "peak_rss_mb": max(out["maxrss_kb"] for out in plain) / 1024,
        }
        units = metric_units("end_to_end")
    metadata = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(), "rounds": len(plain), "queries_per_round": per_round,
        "queries": attempted, "verdict_p50_s": p50, "verdict_tail_s": tail_value,
        "tail_percentile": tail_pct, "tail_n": len(times),
        "setup_samples": setups, "failed_share": failed / attempted,
        "verdicts_per_wall_s": statistics.median(len(out["times"]) / sum(out["times"])
                                                 for out in plain),
        "verdict_digest": digests[0], "digests_consistent": consistent,
    }
    record = {"metadata": metadata, "metrics": metrics, "failures": failures,
              "rounds": [{"digest": out["digest"], "times": out["times"],
                          "scaled": out["scaled"], "kernel_s": out["kernel_s"],
                          "qids": out["qids"], "verdicts": out["verdicts"]}
                         for out in plain]}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"metadata": metadata, "failures": failures}))
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def layer_report(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, averaged per round over the traced rounds."""
    rounds = len(traced)
    layers: dict[str, float] = {}
    for out in traced:
        for name, value in out["trace"]["layers"].items():
            layers[name] = layers.get(name, 0.0) + value / rounds
    summaries = [out["trace"] for out in traced]
    calls = sum(s["keyed_calls"] for s in summaries)
    return {
        **layers,
        "opsolve.unresolved_patterns": sum(s["unresolved"] for s in summaries) / rounds,
        "opsolve.pvms_returned": sum(s["pvms_returned"] for s in summaries) / rounds,
        "cache.repeat_share": sum(s["keyed_repeats"] for s in summaries) / calls if calls else 0.0,
        "cache.repeat_s": sum(s["repeat_s"] for s in summaries) / rounds,
        "verdicts.unknown": sum(out["unknown"] for out in plain) / len(plain),
        "trace.spans": sum(s["span_count"] for s in summaries) / rounds,
        "trace.overhead_share": (sum(sum(out["times"]) for out in traced)
                                 / sum(sum(out["times"]) for out in plain[:rounds]) - 1),
    }


if __name__ == "__main__":
    sys.exit(main())
