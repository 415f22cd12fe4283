"""Tests of the benchmark itself, at smoke size.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_unit(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "smoke", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in expected]
    printed = [[row[0], row[-1]] for row in map(str.split, lines[:-1]) if row]
    for entry in expected:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert [entry["name"], entry["unit"]] in printed
    if trace:
        assert list(tmp_path.glob(f"trace-{workload}-0.json"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_token_fails_the_check(workload):
    bench = WORKLOADS[workload](seed=0, scale="smoke")
    result = bench.run_pass()
    sims = [run.sim_summary(result, 1.0, 1.0)]
    key = f"{workload}@smoke"
    assert run.load_digests()[key]["0"] == result.digest()
    assert run.check_outputs(bench, [result], sims, key, seed=0)[0] == []

    # A corrupted token in a request the check re-serves alone.
    victim = bench.reserve_candidates(result)[0]
    result.records[victim].token_ids[0] += 1
    problems, _ = run.check_outputs(bench, [result], sims, key, seed=0)
    assert any("re-served alone" in p for p in problems)
    assert any("recorded" in p for p in problems)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer_body)()
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 1
    assert 0.009 < summary["outer"]["self_s"] < 0.019
    assert summary["inner"]["self_s"] >= 0.02
    total = summary["outer"]["self_s"] + summary["inner"]["self_s"]
    assert total == pytest.approx(tracer.covered_seconds())
