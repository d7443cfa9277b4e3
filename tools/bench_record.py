"""Record the benchmark of the checked-out commit in one JSON file.

    python3 tools/bench_record.py BENCH_<n>.json

Run from the root of a checkout whose ``src/`` and ``perfbench/`` are
committed.  For every workload that ``BENCHMARK.json`` lists, the
benchmark command it names (``perfbench/run.py``, run as it is) runs twice:
with ``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for
the per-layer metrics, every run at the seed ``SEED`` and for the
``run_seconds`` that ``BENCHMARK.json`` sets.  The file holds the commit,
the hash of its ``src/`` tree, the seed, the run length, the ``env`` line of
the first run and the result line (the last line of stdout) of every run.
A run that fails, or whose result line reports a wrong answer
(``"correct": false`` or ``"failed"`` above 0), stops the recording with
exit code 1, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEED = 21  # the same in every file, so that two files' counters compare


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The ``env`` stamp and the result line of one benchmark run's stdout."""
    lines = stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the benchmark of this commit")
    parser.add_argument("out", type=Path, help="the file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)

    if git("status", "--porcelain", "--", "src", "perfbench"):
        print("error: src/ or perfbench/ differs from the commit; commit it first",
              file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    env, runs = None, []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            command = [*bench["command"], "--workload", workload["name"], "--seed", str(SEED),
                       "--seconds", str(seconds), "--trace", str(trace)]
            print(" ".join(command), file=sys.stderr)
            proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode:
                print(f"error: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
                return 1
            run_env, result = parse_run(proc.stdout)
            if result["correct"] is not True or result["failed"]:
                print(f"error: workload {workload['name']} at --trace {trace} answered wrongly: "
                      f"correct {json.dumps(result['correct'])}, "
                      f"{result['failed']} of {result['attempted']} ops failed; no file written",
                      file=sys.stderr)
                return 1
            env = env or run_env
            runs.append({"workload": workload["name"], "trace": trace, "result": result})

    record = {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src"),
              "seed": SEED, "seconds": seconds, "env": env, "runs": runs}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
