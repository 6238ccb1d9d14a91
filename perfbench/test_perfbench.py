"""Tests of the benchmark itself: seeded inputs, metric names, a tiny pass.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_same_seed_same_inputs_and_schedule():
    def input_bytes(n: int, seed: int) -> bytes:
        return np.asarray(workloads.make_edges(n, seed), dtype=np.int64).tobytes()

    for n in (2_000, 5_000):
        assert input_bytes(n, 7) == input_bytes(n, 7)
        assert input_bytes(n, 7) != input_bytes(n, 8)
    assert workloads.sweep_deltas(7, 0) == workloads.sweep_deltas(7, 0)
    assert workloads.oneshot_deltas(7) == workloads.oneshot_deltas(7)
    assert workloads.serve_schedule(7, 200) == workloads.serve_schedule(7, 200)
    assert workloads.serve_schedule(7, 200) != workloads.serve_schedule(8, 200)


def test_request_lists_have_the_declared_shape():
    for p in range(3):
        deltas = workloads.sweep_deltas(3, p)
        assert len(set(deltas)) == workloads.SWEEP_DELTAS
        assert min(deltas) >= 900 + p and max(deltas) <= 86_400 + p
    assert not set(workloads.sweep_deltas(3, 0)) & set(workloads.sweep_deltas(3, 1))
    schedule = workloads.serve_schedule(3, 400)
    seen = set()
    for _, delta, fresh in schedule:
        assert fresh == (delta not in seen)
        seen.add(delta)
    # Exactly one fresh request per block, so every seed sends as many.
    block = round(1 / workloads.SERVE_FRESH_SHARE)
    fresh = [f for _, _, f in schedule]
    assert all(sum(fresh[b:b + block]) == 1 for b in range(0, len(fresh), block))
    fresh_deltas = sorted(d for _, d, f in schedule if f)
    assert 1_800 <= fresh_deltas[0] and fresh_deltas[-1] <= 28_800


def test_passes_split_the_operations_by_pass():
    out = workloads.Measured()

    def run_pass(p: int) -> None:
        out.op_s.extend([float(p)] * (p + 1))
        time.sleep(0.005)
    workloads.passes(0.03, run_pass, out)
    assert len(out.pass_s) >= 2
    assert out.pass_ops() == [[float(p)] * (p + 1) for p in range(len(out.pass_s))]


def test_self_time_subtracts_direct_children():
    from tracing import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    spans = {s.name: s for s in tracer.spans}
    [outer] = tracer.self_times("outer")
    assert outer == pytest.approx(spans["outer"].duration - spans["inner"].duration)
    assert spans["leaf"].parent == spans["inner"].span_id
    assert spans["inner"].parent == spans["outer"].span_id


def test_serve_rate_is_the_one_benchmark_json_states():
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}["serve"]
    assert f"{workloads.SERVE_RATE:g} req/s" in why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_prints_declared_metrics_with_no_failures(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "2",
                     "--trace", str(trace), "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    with open(os.path.join(ROOT, ".perfbench_out", f"trace-{workload}-seed3.json")) as fh:
        spans = json.load(fh)["spans"]
    names = {s["id"]: s["name"] for s in spans}
    # A wrapped call is recorded once, never also as its own child.
    assert not [s for s in spans if s["parent"] is not None
                and names.get(s["parent"]) == s["name"]]
    if workload == "sweep":
        counts = [s for s in spans if s["name"] == "core.execute"]
        tables = [s for s in spans if s["name"] == "core.delta_tables"]
        assert counts and len(tables) == len(counts)
    if workload == "serve":
        requests = [s for s in spans if s["name"] == "serve.request"]
        assert requests and all(s["request_id"] for s in requests)
        served = [s for s in spans if s["name"] in ("serve.decode", "serve.admit", "serve.encode")]
        assert {s["request_id"] for s in served} == {s["request_id"] for s in requests}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
