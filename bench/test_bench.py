"""Self-tests of the benchmark at a tiny size.

Run from the root of a checkout: python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from checks import load_oracle, preserves  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--size", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["metadata"], json.loads(result_line)


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_end_to_end_metric(workload):
    meta, result = tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["failed_share"] == 0 and meta["digests_consistent"]
    for key in ("git_sha", "python", "nproc", "seed", "queries", "src_lines",
                "verdict_p50_s", "verdict_tail_s", "tail_percentile", "tail_n",
                "verdict_digest"):
        assert key in meta


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = tiny(workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")


def test_same_seed_gives_same_digest():
    first, _ = tiny("replay-session", 0)
    second, _ = tiny("replay-session", 0)
    assert first["verdict_digest"] == second["verdict_digest"]


def test_wrong_expected_answer_is_counted_as_failure():
    oracle = load_oracle()
    oracle["pvms S2 C"] = {"count": 5}
    oracle["search Domino"] = {"status": "distinguishable"}
    path = BENCH / "results" / "oracle-injected.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(oracle))
    try:
        for workload in ("solve-named", "replay-session"):
            meta, result = tiny(workload, 0, "--oracle", str(path))
            assert not result["correct"] and result["failed"] > 0
            assert meta["failed_share"] > 0
    finally:
        path.unlink()


def test_refuses_to_run_without_sources():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("--workload", "solve-named", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare)


def test_fraction_recheck_accepts_oracle_rays_only():
    from lpcckit import build_named_set
    s2 = build_named_set("S2")
    states = [v.entries for v in s2.vectors()]
    quad = {"0": [0, 1, 0, 1], "1": [1, 1, 0, 1], "-1": [-1, 1, 0, 1]}
    for ray in load_oracle()["rank1 S2 C"]["rays"]:
        assert preserves(s2.spec.dims, states, (2,), [quad[x] for x in ray])
    assert not preserves(s2.spec.dims, states, (2,), [quad["1"], quad["0"], quad["0"]])


def test_self_times_add_up_to_no_more_than_span_totals():
    from tracer import QUERY, Tracer
    from lpcckit import build_named_set
    from lpcckit import opsolve
    original = opsolve.rank1_op_directions
    tracer = Tracer()
    tracer.install()
    try:
        s2 = build_named_set("S2")
        tracer.run_query(0, lambda: opsolve.enumerate_op_pvms(s2, (2,)))
        tracer.finish_query()
    finally:
        tracer.uninstall()
    assert opsolve.rank1_op_directions is original
    selfs = tracer.self_times()
    summary = tracer.summary()
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= summary["root_s"] + 1e-9
    for i, own in enumerate(selfs):
        assert own <= tracer.end[i] - tracer.start[i] + 1e-9
    # calls between modules are caught: the solver's kernel calls nest under it
    names = set(summary["spans"])
    assert {QUERY, "opsolve.enumerate_op_pvms", "opsolve.rank1_op_directions",
            "exact.rank"} <= names


def test_host_speed_scales_by_nearby_samples_and_excludes_its_own_time():
    import time
    from child import REF_NOMINAL_S, REF_WINDOW_S, HostSpeed
    speed = HostSpeed()
    speed.at, speed.took = [0.0, 10.0, 10.2], [2 * REF_NOMINAL_S, REF_NOMINAL_S,
                                              REF_NOMINAL_S / 2]
    # the mean of the samples within REF_WINDOW_S of the query
    assert speed.scale(10.0, 10.1) == pytest.approx(REF_NOMINAL_S / (0.75 * REF_NOMINAL_S))
    # none within the window: the nearest ones
    assert speed.scale(3.0, 3.0 + REF_WINDOW_S / 2) == pytest.approx(
        REF_NOMINAL_S / (1.5 * REF_NOMINAL_S))
    live = HostSpeed()
    live.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.0:
            pass
    finally:
        live.stop()
    assert len(live.took) >= 3 and live.spent == pytest.approx(sum(live.took))
