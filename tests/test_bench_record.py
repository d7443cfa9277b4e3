import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_parse_run_reads_the_env_line_and_the_result_line():
    stdout = "\n".join([
        'env {"nproc": 2, "python": "3.11.7"}',
        "workload search seed 21: closed loop, 1 caller, 11 ops per pass",
        "error_rate 0.0 ratio (0 of 33 ops failed)",
        "pass_s 0.07 s",
        '{"attempted": 33, "correct": true, "failed": 0, "metrics": {}}',
    ]) + "\n"
    env, result = bench_record.parse_run(stdout)
    assert env == {"nproc": 2, "python": "3.11.7"}
    assert result == {"attempted": 33, "correct": True, "failed": 0, "metrics": {}}


def _result_line(correct=True, failed=0):
    return json.dumps({"attempted": 32, "correct": correct, "failed": failed, "metrics": {}})


def _stub_runs(monkeypatch, tmp_path, results):
    """Run ``bench_record.main`` in ``tmp_path`` on a two-workload
    ``BENCHMARK.json``, with ``subprocess.run`` stubbed: git reports a clean
    tree, and each benchmark run prints the next line of ``results``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 24,
        "workloads": [{"name": "search"}, {"name": "reduce-generated"}]}))
    lines = iter(results)

    def run(command, **kwargs):
        if command[0] == "git":
            out = "" if command[1] == "status" else "0123abcd"
        else:
            out = f'env {{"nproc": 2}}\npass_s 0.07 s\n{next(lines)}\n'
        return subprocess.CompletedProcess(command, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", run)


def test_every_correct_run_is_recorded(monkeypatch, tmp_path):
    _stub_runs(monkeypatch, tmp_path, [_result_line()] * 4)
    assert bench_record.main(["BENCH_0.json"]) == 0
    record = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert [(run["workload"], run["trace"]) for run in record["runs"]] == [
        ("search", 0), ("search", 1), ("reduce-generated", 0), ("reduce-generated", 1)]
    assert record["commit"] == "0123abcd" and record["env"] == {"nproc": 2}


@pytest.mark.parametrize("bad, detail", [
    (_result_line(correct=False, failed=1), "correct false, 1 of 32 ops failed"),
    (_result_line(failed=3), "correct true, 3 of 32 ops failed"),
    (_result_line(correct=False), "correct false, 0 of 32 ops failed"),
], ids=["wrong-and-failed", "failed", "wrong"])
def test_a_run_with_wrong_answers_writes_no_file(monkeypatch, tmp_path, capsys, bad, detail):
    _stub_runs(monkeypatch, tmp_path, [_result_line(), _result_line(), _result_line(), bad])
    assert bench_record.main(["BENCH_0.json"]) == 1
    assert not (tmp_path / "BENCH_0.json").exists()
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == (f"error: workload reduce-generated at --trace 1 answered wrongly: "
                   f"{detail}; no file written")
