"""Benchmark of the fdgtool CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workload runs in its own process (``worker.py``).  With ``--trace 0``
the end-to-end metrics are printed: ``setup_s`` (median over several fresh
processes of the time from process start until the first op can start),
``pass_s`` (median time of one pass over the op list), both at the
reference machine speed of ``speed.py``, and ``peak_rss_mb`` (peak resident
memory of the workload process).  With ``--trace 1`` the per-layer metrics
of a traced run are printed instead.  The last line of stdout is the JSON
result; the lines before it give the environment, the op counts,
``error_rate`` and the unscaled wall times.
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
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4        # extra fresh processes timed to set-up only
DEADLINE_S = 170        # a stuck workload process is killed after this


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "scipy": version("scipy"),
            "numpy": version("numpy"), "gmpy2": util.find_spec("gmpy2") is not None,
            "nproc": os.cpu_count(), "cpu": cpu}


class WorkerFailed(Exception):
    pass


def start_worker(args, workdir: Path, *extra) -> tuple[subprocess.Popen, float, float]:
    """Start a workload process; return it, its set-up time, measured from
    the start of the process until it reports ``ready``, and that time at
    the reference speed measured just before the start.  (After ``ready``
    the worker is busy with its passes, so no reference is taken then.)"""
    reference = speed.reference()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise WorkerFailed(f"{args.workload} did not finish set-up")
    return proc, ready, speed.scale(ready, reference)


def stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def measure(args, workdir: Path) -> tuple[list, list, dict]:
    deadline = time.perf_counter() + DEADLINE_S

    def finish(proc):
        try:
            return proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
        except subprocess.TimeoutExpired:
            stop(proc)
            raise WorkerFailed("workload process did not finish in time") from None

    setups, scaled_setups = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, ready, scaled = start_worker(args, workdir, "--probe")
            setups.append(ready)
            scaled_setups.append(scaled)
            finish(proc)
    proc, ready, scaled = start_worker(args, workdir, "--seconds", str(args.seconds),
                                       "--trace", str(args.trace))
    setups.append(ready)
    scaled_setups.append(scaled)
    out = finish(proc)
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"workload exited with code {proc.returncode}")
    return setups, scaled_setups, json.loads(out.strip().splitlines()[-1])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fdgtool CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "fdgtool" / "cli.py").is_file():
        print("error: run from the root of an fdgtool checkout (src/fdgtool missing)",
              file=sys.stderr)
        return 2
    workdir = Path.cwd() / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    try:
        setups, scaled_setups, result = measure(args, workdir)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env", json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, "
          f"{result['ops_per_pass']} ops per pass")
    for net in result["networks"]:
        print("network", json.dumps(net, sort_keys=True))
    for failure in result["failures"][:10]:
        print("FAILED", failure["op"], "|", "; ".join(failure["errors"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} ops failed)")

    times = result["pass_times"]
    if args.trace:
        traced = result["traced_pass_times"]
        print(f"passes: {len(times)} untraced, {len(traced)} traced; spans in "
              f"{result['spans']}")
        metrics = {name: metric(result["layers"][name], unit)
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        scaled_times = result["scaled_pass_times"]
        print(f"passes: {len(times)}, wall pass times {[round(t, 4) for t in times]} s; "
              f"wall set-up samples {[round(t, 4) for t in setups]} s")
        print(f"wall medians: pass {statistics.median(times)} s, set-up "
              f"{statistics.median(setups)} s; at the reference speed "
              f"({speed.REFERENCE_S} s per round): pass samples "
              f"{[round(t, 4) for t in scaled_times]} s")
        metrics = {"setup_s": metric(statistics.median(scaled_setups), "s"),
                   "pass_s": metric(statistics.median(scaled_times), "s"),
                   "peak_rss_mb": metric(result["peak_rss_mb"], "MB")}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
