"""One workload process: set up, print ``ready``, then run timed passes.

A single caller in a single thread runs a closed loop: each op is one
in-process ``fdgtool`` invocation, ``cli.main(argv)`` with stdout captured,
and the next op starts when the previous one returns.  Only ``cli.main``
is inside the timed region; checks run between ops, and so does
``speed.reference()``, which gives each op's time at the reference speed.
The last line of stdout is a JSON object with the pass times, wall and
scaled, op counts and failures.

Run from the root of a checkout (``src/fdgtool`` must be there), normally
by ``run.py``.  ``--record`` instead writes the workload's answers to
``expected.json``:

    python3 perfbench/worker.py --workload W --seed 0 --workdir DIR --record
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.abc
import io
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def _budget(seconds: float, least: int):
    """Yield once per round: ``least`` times, then while another round of
    median length still ends within ``seconds``."""
    start = last = time.perf_counter()
    rounds = []
    while True:
        if len(rounds) >= least and last - start + statistics.median(rounds) > seconds:
            return
        yield
        now = time.perf_counter()
        rounds.append(now - last)
        last = now


class _BlockScipy(importlib.abc.MetaPathFinder):
    """Makes scipy unimportable, as in an install without the extras."""

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked in this workload")
        return None


class Runner:
    """Runs the ops of one workload in this process and checks each one."""

    def __init__(self, workload: workloads.Workload, expected: dict):
        from fdgtool import algebra, cli, fdg, lpbound, netmodel, simplex

        self.modules = {"netmodel": netmodel, "fdg": fdg, "lpbound": lpbound,
                        "simplex": simplex, "algebra": algebra, "cli": cli}
        self.cli = cli
        self.workload = workload
        lib = types.SimpleNamespace(
            verify_witness=lpbound.verify_witness, parse_network=netmodel.parse_network,
            build_fdg=fdg.build_fdg, reduce=fdg.reduce,
            build_transfer_system=algebra.build_transfer_system,
            transfer_matrix=algebra.transfer_matrix)
        self.capture = workloads.Capture()
        self.checker = workloads.Checker(expected, self.capture, lib)
        self._capture_solves(lpbound)
        self.tracer = None

    def _capture_solves(self, lpbound) -> None:
        original, solves = lpbound.lp_solve, self.capture.solves

        def lp_solve(problem, *args, **kwargs):
            solution = original(problem, *args, **kwargs)
            solves.append((problem, solution))
            return solution

        lpbound.lp_solve = lp_solve

    def run_op(self, op) -> tuple[float, list]:
        self.capture.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            elapsed = time.perf_counter() - start
        errors = self.checker(op, out.getvalue(), rc)
        if errors and err.getvalue():
            errors.append("stderr: " + err.getvalue().strip().splitlines()[-1])
        return elapsed, errors

    def run_pass(self) -> tuple[float, float, list]:
        """One pass over the op list: its wall time, the same time at the
        reference speed and the failed ops.  Each op is scaled by the mean
        of the machine speeds measured just before and just after it."""
        gc.collect()
        wall = scaled = 0.0
        failures = []
        before = speed.reference()
        for op in self.workload.ops:
            if self.tracer is not None:
                self.tracer.op_index += 1  # spans of one op share this id
            elapsed, errors = self.run_op(op)
            after = speed.reference()
            wall += elapsed
            scaled += speed.scale(elapsed, (before + after) / 2)
            before = after
            if errors:
                failures.append({"op": op.key, "errors": errors})
        return wall, scaled, failures

    def run_passes(self, seconds: float, min_passes: int) -> tuple[list, list, list]:
        """At least ``min_passes`` passes, then more while the next one is
        expected to end within ``seconds``; checks count towards the time."""
        times, scaled_times, failures = [], [], []
        for _ in _budget(seconds, min_passes):
            wall, scaled, failed = self.run_pass()
            times.append(wall)
            scaled_times.append(scaled)
            failures += failed
        return times, scaled_times, failures

    def run_traced(self, seconds: float, min_pairs: int) -> tuple[list, list, list]:
        """Untraced and traced passes in turn, so that both see the same
        machine; the difference of their medians at the reference speed is
        the tracing overhead."""
        plain, traced, failures = [], [], []
        self.tracer = tracing.Tracer()
        for _ in _budget(seconds, min_pairs):
            _, elapsed, failed = self.run_pass()
            plain.append(elapsed)
            failures += failed
            self.tracer.install(self.modules)
            try:
                _, elapsed, failed = self.run_pass()
            finally:
                self.tracer.uninstall()
            traced.append(elapsed)
            failures += failed
            self.tracer.pass_index += 1
        return plain, traced, failures

    def network_records(self) -> list:
        """Edges, order and per-mode reduction of each generated network."""
        records = []
        for net in self.workload.networks:
            record = {k: v for k, v in net.items() if k != "path"}
            for mode in ("linear", "shannon"):
                doc = self.checker.memo.get(("reduced", net["path"], mode))
                if doc is not None:
                    record[f"reduced_order.{mode}"] = doc["reduced_order"]
                    record[f"removed_share.{mode}"] = doc["delta_v"] / net["order"]
            records.append(record)
        return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory for generated inputs and traces")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    parser.add_argument("--expected", type=Path, default=workloads.EXPECTED_FILE,
                        help="file of known answers (default: expected.json)")
    parser.add_argument("--record", action="store_true",
                        help="write this workload's answers to the --expected file")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(Path.cwd() / "src"))
    workload = workloads.build(args.workload, args.seed, workdir)
    if workload.blocks_scipy:
        sys.meta_path.insert(0, _BlockScipy())
    if args.record:
        return record(Runner(workload, {}), args.expected)
    expected = json.loads(args.expected.read_text(encoding="utf-8"))
    runner = Runner(workload, expected.get(args.workload, {}))
    _, errors = runner.run_op(workload.warmup)
    if errors:
        print(f"warm-up op failed: {errors}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.probe:
        return 0

    result = {"ops_per_pass": len(workload.ops)}
    if args.trace:
        plain, traced, failures = runner.run_traced(args.seconds, max(1, args.min_passes // 2))
        tracer = runner.tracer
        layers = tracing.median_metrics([tracer.pass_metrics(i) for i in range(len(traced))])
        layers["trace.pass_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = layers["trace.pass_s"] - statistics.median(plain)
        spans = workdir / "spans.jsonl"
        tracer.write(spans)
        result.update(pass_times=plain, traced_pass_times=traced, layers=layers,
                      spans=str(spans))
    else:
        times, scaled, failures = runner.run_passes(args.seconds, args.min_passes)
        result.update(pass_times=times, scaled_pass_times=scaled)
    passes = len(result["pass_times"]) + len(result.get("traced_pass_times", ()))
    result.update(
        attempted=passes * len(workload.ops), failures=failures,
        failed=len(failures), networks=runner.network_records(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


def record(runner: Runner, path: Path) -> int:
    """Store exit code and stdout digest of every op with a fixed input."""
    expected = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    answers = expected[runner.workload.name] = {}
    for op in [runner.workload.warmup] + runner.workload.ops:
        if op.info.get("generated"):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = runner.cli.main(op.argv)
        answers[op.key] = {"rc": rc, "sha256": workloads.digest(out.getvalue())}
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
