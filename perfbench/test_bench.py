"""Tests of the benchmark itself: every workload passes its checks on one
pass, the traced run reports every per-layer metric, and a wrong answer is
counted as a failed op.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def worker(tmp_path, workload, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "7",
         "--workdir", str(tmp_path), "--seconds", "0", "--min-passes", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


# lp-exact's short pass runs in test_traced_run_reports_every_layer_metric.
@pytest.mark.parametrize("workload", [w for w in workloads.WORKLOADS if w != "lp-exact"])
def test_short_pass_of_every_workload_is_correct(tmp_path, workload):
    result = worker(tmp_path, workload)
    assert result["failures"] == []
    assert result["attempted"] == result["ops_per_pass"] > 0
    assert len(result["pass_times"]) == 1
    assert len(result["scaled_pass_times"]) == 1 and result["scaled_pass_times"][0] > 0


def test_altered_expected_answer_counts_as_failed_op(tmp_path):
    expected = json.loads(workloads.EXPECTED_FILE.read_text(encoding="utf-8"))
    key = "transfer --search 3 --reduce linear fano"
    expected["search"][key]["sha256"] = "0" * 64
    altered = tmp_path / "expected.json"
    altered.write_text(json.dumps(expected), encoding="utf-8")
    result = worker(tmp_path, "search", "--expected", str(altered))
    assert result["failed"] == 1
    assert [f["op"] for f in result["failures"]] == [key]


def test_traced_run_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lp-exact", "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # No scipy in lp-exact: every solve goes through the exact simplex.
    assert metrics["lpbound.lp_solve.certified_share"] == 0
    assert metrics["simplex.solve.calls"] >= len(workloads.EXACT_SOLVES)
    assert metrics["lpbound.lp_solve.s"] > 0


def test_benchmark_refuses_to_run_outside_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_generated_networks_depend_only_on_the_seed():
    for shape, _ in workloads.SHAPES:
        first = workloads.netgen.generate(shape, 3)
        assert first == workloads.netgen.generate(shape, 3)
        assert first != workloads.netgen.generate(shape, 4)
        assert len(first["edges"]) == shape.edge_count()
