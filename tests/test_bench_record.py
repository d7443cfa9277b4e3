import importlib.util
from pathlib import Path

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
