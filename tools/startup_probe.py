"""Time one fdgtool command in fresh processes of two checkouts, alternately.

    python3 tools/startup_probe.py CHECKOUT_A CHECKOUT_B [-n N] -- FDGTOOL_ARG ...

Runs ``fdgtool FDGTOOL_ARG ...`` N times in each checkout, each time in a
new interpreter that imports fdgtool from the checkout's ``src/``.  The
runs come in pairs, one per checkout, and the side that runs first
alternates from pair to pair.  For each checkout it prints the median and
quartiles of the wall time (from starting the process until it exits) and
of the peak resident memory (Linux ``ru_maxrss``), and in how many runs
the command had imported each of ``WATCHED``.  Paths among the arguments
are read from the current directory in both checkouts.  A run whose
command fails (exit code 2 or a traceback) stops the probe with exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WATCHED = ("numpy", "scipy.optimize", "scipy.sparse")
_REPORT = "startup_probe "

# Run in the child: the CLI as ``fdgtool`` runs it, then one report line.
_CHILD = f"""
import json, runpy, sys
sys.argv = ["fdgtool", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("fdgtool", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
print("\\n{_REPORT}" + json.dumps([name for name in {WATCHED!r} if name in sys.modules]),
      flush=True)
sys.exit(code)
"""


class ProbeFailed(Exception):
    pass


def run_once(checkout: Path, args) -> tuple[float, float, list]:
    """One fresh run of ``fdgtool args`` from ``checkout``: (wall seconds,
    peak RSS in MB, the names of ``WATCHED`` it imported)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    head, reported, report = out.rpartition("\n" + _REPORT)
    if code not in (0, 1) or not reported:
        raise ProbeFailed(f"exit {code} in {checkout}: {(head or report).strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024, json.loads(report)


def summary(values: list) -> str:
    """``median (q1-q3)`` of ``values``, to three decimals."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.3f} ({q1:.3f}-{q3:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time one fdgtool command in fresh "
                                                 "processes of two checkouts")
    parser.add_argument("checkouts", type=Path, nargs=2, metavar="CHECKOUT")
    parser.add_argument("-n", type=int, default=10, help="runs per checkout (default 10)")
    parser.add_argument("command", nargs="+", metavar="FDGTOOL_ARG")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("-n must be at least 2, for quartiles")

    checkouts = [path.resolve() for path in args.checkouts]
    runs = ([], [])  # per checkout: one (wall, rss, imported) per run
    try:
        for k in range(args.n):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                runs[side].append(run_once(checkouts[side], args.command))
    except ProbeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"fdgtool {' '.join(args.command)}: {args.n} runs per checkout, "
          f"median (quartiles)")
    for path, side_runs in zip(checkouts, runs):
        walls, rss, imported = zip(*side_runs)
        counts = ", ".join(f"{name} {sum(name in names for names in imported)}/{args.n}"
                           for name in WATCHED)
        print(f"{path}: wall_s {summary(walls)}, peak_rss_mb {summary(rss)}, "
              f"imported {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
