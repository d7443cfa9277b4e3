"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces module attributes with wrappers, so calls the
CLI and ``lpbound`` make through their module namespaces
(``lpbound.lp_solve``, ``simplex.solve``, ``verify_witness`` inside
``lp_solve``) are seen.  Each span keeps name, start, end, parent, pass and
op; counters come from the arguments and return values the wrappers see.
Everything stays in memory until ``write``.
"""

from __future__ import annotations

import json
import statistics
import time

# module -> public functions wrapped; Poly.eval_mod is left out on purpose,
# it runs millions of times per pass.
WRAPPED = {
    "netmodel": ("parse_network",),
    "fdg": ("build_fdg", "reduce", "replay"),
    "lpbound": ("build_lp", "lp_solve", "verify_witness", "export_lp"),
    "simplex": ("solve",),
    "algebra": ("build_transfer_system", "transfer_matrix", "solvability_search"),
    "cli": ("main",),
}


def _solve_rows(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    return {"rows": len(rows)}


COUNTERS = {
    "fdg.reduce": lambda a, k, r: {"steps": len(r[1].steps), "removed": r[1].delta_v,
                                   "order": a[0].order},
    "lpbound.build_lp": lambda a, k, r: {"rows": len(r.rows), "columns": r.dimension},
    "lpbound.export_lp": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "simplex.solve": _solve_rows,
    "algebra.transfer_matrix": lambda a, k, r: {
        "terms": sum(len(entry.terms) for row in r for entry in row)},
    "algebra.solvability_search": lambda a, k, r: {
        "nodes": r.evaluations_tried, "entry_evals": r.entry_evals},
}

TIMED = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {f"{name}.s": "s" for name in TIMED}
LAYER_METRICS.update({
    "fdg.reduce.steps": "count",
    "fdg.reduce.removed_share": "share",
    "lpbound.build_lp.rows": "count",
    "lpbound.build_lp.columns": "count",
    "lpbound.lp_solve.certified_share": "share",
    "lpbound.verify_witness.calls": "count",
    "lpbound.export_lp.bytes": "bytes",
    "simplex.solve.calls": "count",
    "simplex.solve.rows_max": "count",
    "simplex.solve.rows_total": "count",
    "algebra.transfer_matrix.terms": "count",
    "algebra.solvability_search.nodes": "count",
    "algebra.solvability_search.entry_evals": "count",
    "algebra.solvability_search.nodes_per_s": "1/s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, pass, op, counts]
        self.stack = []
        self.pass_index = 0
        self.op_index = 0
        self._restore = []

    def install(self, modules: dict) -> None:
        for mod_name, fns in WRAPPED.items():
            module = modules[mod_name]
            for fn in fns:
                original = getattr(module, fn)
                self._restore.append((module, fn, original))
                setattr(module, fn, self._wrap(f"{mod_name}.{fn}", original))

    def uninstall(self) -> None:
        for module, fn, original in reversed(self._restore):
            setattr(module, fn, original)
        self._restore.clear()

    def _wrap(self, name, original):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.pass_index, self.op_index, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, pass_, op, counts) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "pass": pass_, "op": op,
                                         "counts": counts}) + "\n")

    def pass_metrics(self, pass_index: int) -> dict:
        """Per-layer metrics of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_index]
        child_time = {}
        for _, (name, start, end, parent, *_rest) in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        metrics = {key: 0 for key in LAYER_METRICS}
        totals = {}
        solve_parents = set()
        rows = []
        for i, (name, start, end, parent, _, _, counts) in spans:
            metrics[f"{name}.s"] += end - start - child_time.get(i, 0.0)
            totals[name] = totals.get(name, 0) + 1
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
            if name == "simplex.solve":
                rows.append(counts["rows"] if counts else 0)
                while parent >= 0 and self.spans[parent][0] != "lpbound.lp_solve":
                    parent = self.spans[parent][3]
                solve_parents.add(parent)

        def share(num, den):
            return num / den if den else 0

        solves = [i for i, s in spans if s[0] == "lpbound.lp_solve"]
        search_s = metrics["algebra.solvability_search.s"]
        metrics.update({
            "fdg.reduce.steps": totals.get("fdg.reduce.steps", 0),
            "fdg.reduce.removed_share": share(totals.get("fdg.reduce.removed", 0),
                                              totals.get("fdg.reduce.order", 0)),
            "lpbound.build_lp.rows": totals.get("lpbound.build_lp.rows", 0),
            "lpbound.build_lp.columns": totals.get("lpbound.build_lp.columns", 0),
            "lpbound.lp_solve.certified_share": share(
                sum(1 for i in solves if i not in solve_parents), len(solves)),
            "lpbound.verify_witness.calls": totals.get("lpbound.verify_witness", 0),
            "lpbound.export_lp.bytes": totals.get("lpbound.export_lp.bytes", 0),
            "simplex.solve.calls": len(rows),
            "simplex.solve.rows_max": max(rows, default=0),
            "simplex.solve.rows_total": sum(rows),
            "algebra.transfer_matrix.terms": totals.get("algebra.transfer_matrix.terms", 0),
            "algebra.solvability_search.nodes": totals.get("algebra.solvability_search.nodes", 0),
            "algebra.solvability_search.entry_evals": totals.get(
                "algebra.solvability_search.entry_evals", 0),
            "algebra.solvability_search.nodes_per_s": share(
                totals.get("algebra.solvability_search.nodes", 0), search_s),
        })
        return metrics


def median_metrics(per_pass: list) -> dict:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
