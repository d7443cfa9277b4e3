"""The benchmark's workloads: fixed op lists, each op an ``fdgtool`` CLI
invocation with its known answer and an independent check.

Every op is checked three ways where the answer is known in advance:
exit code and SHA-256 of stdout against ``expected.json`` (recorded at the
commit that defined the benchmark), plus a check that does not trust the
bytes: the LP witness re-verified against every row, a found field
assignment re-evaluated against the demand pattern, the replayed graph
compared with the reduced one.  Generated networks have no stored digest;
their outputs must instead repeat byte for byte on every pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import netgen

FIXTURES = "src/fdgtool/fixtures"
EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Optimum of the entropy LP with unit weights, the same in every reduce
# mode (reduction preserves the bound).
KNOWN_OPTIMA = {"butterfly": 2, "two_unicast_side": 1, "two_unicast_chain": 1,
                "parallel_relay": 1, "fano": 3, "single_edge": 1}
# FDG order and source count per fixture and reduce mode (README table).
FIXTURE_ORDERS = {
    "butterfly": {"none": 9, "shannon": 7, "linear": 5},
    "two_unicast_side": {"none": 8, "shannon": 6, "linear": 4},
    "two_unicast_chain": {"none": 10, "shannon": 5, "linear": 3},
    "parallel_relay": {"none": 7, "shannon": 5, "linear": 3},
    "fano": {"none": 21, "shannon": 13, "linear": 8},
    "single_edge": {"none": 2, "shannon": 2, "linear": 2},
}
FIXTURE_SOURCES = {"butterfly": 2, "two_unicast_side": 2, "two_unicast_chain": 2,
                   "parallel_relay": 2, "fano": 3, "single_edge": 1}
SOLVE_CAP_N = 10

# Fano is scalar-linearly solvable only in characteristic 2.
FANO_PINS = "eps[Y1->e1]=1,eps[Y1->e2]=1,eps[Y2->e2]=1"
SEARCHES = (  # fixture, reduce mode, field, pins, known status
    ("fano", "linear", 2, "", "found"),
    ("fano", "linear", 3, "", "exhausted"),
    ("fano", "linear", 5, FANO_PINS, "exhausted"),
    ("butterfly", "none", 3, "", "found"),
    ("butterfly", "none", 5, "", "found"),
    ("butterfly", "shannon", 5, "", "found"),
    ("butterfly", "linear", 7, "", "found"),
    ("two_unicast_chain", "none", 2, "", "exhausted"),
    ("two_unicast_chain", "none", 3, "", "exhausted"),
    ("two_unicast_side", "none", 5, "", "exhausted"),
    ("parallel_relay", "none", 3, "", "exhausted"),
)

# Reduced LPs the exact simplex finishes in under a second.  Left out:
# two_unicast_side-shannon (5-8 s, too few samples per run for a steady
# figure), the unreduced LPs, butterfly-shannon and fano-linear (minutes).
EXACT_SOLVES = (
    ("parallel_relay", "shannon"), ("parallel_relay", "linear"),
    ("two_unicast_chain", "shannon"), ("two_unicast_chain", "linear"),
    ("two_unicast_side", "linear"), ("butterfly", "linear"),
)

# Generated networks for reduce-generated; only the smallest also gets the
# unreduced transfer matrix, whose cost grows with the cube of the edge count.
SHAPES = (
    (netgen.Shape("relay80", sources=3, layers=4, width=8, chains=3), True),
    (netgen.Shape("relay128", sources=3, layers=5, width=10, chains=4), False),
    (netgen.Shape("relay146", sources=3, layers=5, width=12, chains=4), False),
)


class Capture:
    """Arguments and results the benchmark's wrappers saw during one op."""

    def __init__(self):
        self.solves = []

    def clear(self):
        self.solves.clear()


@dataclass
class Op:
    key: str
    argv: list
    check: object                  # check(op, out, rc, ctx) -> list of errors
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Op
    blocks_scipy: bool = False
    networks: list = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Runs each op's checks; holds what the checks learn across passes."""

    def __init__(self, expected: dict, capture: Capture, lib):
        self.expected = expected
        self.capture = capture
        self.lib = lib                 # untraced program functions
        self.seen = {}                 # op key -> digest of the first pass
        self.memo = {}

    def __call__(self, op: Op, out: str, rc: int) -> list:
        errors = []
        known = self.expected.get(op.key)
        if op.info.get("generated"):
            first = self.seen.setdefault(op.key, (rc, digest(out)))
            if first != (rc, digest(out)):
                errors.append("output differs from the first pass")
        elif known is None:
            errors.append("no expected answer recorded")
        elif (known["rc"], known["sha256"]) != (rc, digest(out)):
            errors.append(f"exit {rc} / stdout digest differ from the expected answer")
        try:
            errors += op.check(op, out, rc, self)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"check raised {type(exc).__name__}: {exc}")
        return errors

    def transfer(self, network: str, mode: str):
        """Transfer system and matrix of a network, built once with the
        untraced library functions."""
        key = ("transfer", network, mode)
        if key not in self.memo:
            lib = self.lib
            with open(network, encoding="utf-8") as handle:
                graph = lib.build_fdg(lib.parse_network(handle.read()))
            if mode != "none":
                graph = lib.reduce(graph, mode)[0]
            system = lib.build_transfer_system(graph)
            self.memo[key] = (system, lib.transfer_matrix(system))
        return self.memo[key]


# --- independent checks -----------------------------------------------------

def check_solve(op, out, rc, ctx):
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(out)
    errors = []
    value = Fraction(doc["value"])
    if doc["status"] != "optimal" or value != KNOWN_OPTIMA[op.info["fixture"]]:
        errors.append(f"optimum {doc['status']} {value}, expected "
                      f"{KNOWN_OPTIMA[op.info['fixture']]}")
    if sum(Fraction(r) for r in doc["rates"].values()) != value:
        errors.append("rates do not sum to the optimum")
    if len(ctx.capture.solves) != 1:
        return errors + [f"{len(ctx.capture.solves)} lp_solve calls captured"]
    problem, solution = ctx.capture.solves[0]
    bad = ctx.lib.verify_witness(problem, solution.witness)
    if bad:
        errors.append(f"witness violates rows {bad[:3]}")
    objective = sum((c * solution.witness.get(mask, 0) for mask, c in problem.objective),
                    Fraction(0))
    if objective != value:
        errors.append(f"witness objective {objective} != reported {value}")
    return errors


def check_export(op, out, rc, ctx):
    if rc != 0:
        return [f"exit code {rc}"]
    n, sources = op.info["n"], op.info["sources"]
    lines = out.splitlines()
    body = lines[lines.index("Subject To") + 1:lines.index("Bounds")]
    bounds = lines[lines.index("Bounds") + 1:lines.index("End")]
    # Paper count: N elemental monotonicity rows, C(N,2) 2^(N-2) elemental
    # submodularity rows, one independence row, encode and capacity rows per
    # edge variable, one decode row per source.
    rows = n + comb(n, 2) * 2 ** (n - 2) + 1 + 2 * (n - sources) + sources
    errors = []
    if len(body) != rows:
        errors.append(f"{len(body)} rows exported, expected {rows}")
    if len(bounds) != 2 ** n - 1:
        errors.append(f"{len(bounds)} columns exported, expected {2 ** n - 1}")
    return errors


def check_search(op, out, rc, ctx):
    doc = json.loads(out)
    status = op.info["status"]
    errors = []
    if doc["status"] != status or rc != (0 if status == "found" else 1):
        errors.append(f"status {doc['status']} exit {rc}, expected {status}")
    if doc["field"] != op.info["p"]:
        errors.append(f"field {doc['field']}")
    if doc["status"] != "found":
        return errors
    system, matrix = ctx.transfer(op.info["network"], op.info["mode"])
    assignment = doc["assignment"]
    if set(assignment) != set(system.indeterminates):
        errors.append("assignment does not cover the indeterminates")
        return errors
    for pin in filter(None, op.info["pins"].split(",")):
        name, _, value = pin.rpartition("=")
        if assignment[name] != int(value):
            errors.append(f"pin {name} not respected")
    p = op.info["p"]
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if entry.eval_mod(assignment, p) != system.demand[i][j] % p:
                errors.append(f"entry ({i},{j}) misses the demand pattern")
    return errors


def check_reduce(op, out, rc, ctx):
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(out)
    errors = []
    if doc["original_order"] != op.info["order"]:
        errors.append(f"original order {doc['original_order']} != {op.info['order']}")
    removed = sum(len(step["removed"]) for step in doc["steps"])
    if not (doc["delta_v"] == removed == doc["original_order"] - doc["reduced_order"]
            == op.info["order"] - len(doc["reduced"]["vars"])):
        errors.append("delta_v, steps and reduced order disagree")
    with open(op.info["trace"], encoding="utf-8") as handle:
        if len(handle.read().splitlines()) != len(doc["steps"]):
            errors.append("trace file and printed steps disagree")
    ctx.memo[("reduced", op.info["network"], op.info["mode"])] = doc
    return errors


def check_replay(op, out, rc, ctx):
    if rc != 0:
        return [f"exit code {rc}"]
    reduced = ctx.memo.get(("reduced", op.info["network"], op.info["mode"]))
    if reduced is None:
        return ["no reduce output to compare with"]
    if json.loads(out) != reduced["reduced"]:
        return ["replayed graph differs from the reduced graph"]
    return []


def check_matrix(op, out, rc, ctx):
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(out)
    errors = []
    if len(doc["entries"]) != len(doc["sources"]) or any(
            len(row) != len(doc["slots"]) for row in doc["entries"]):
        errors.append("matrix shape does not match sources x slots")
    # One indeterminate per dependence edge (every source here is demanded
    # by exactly one sink).
    reduced = ctx.memo.get(("reduced", op.info["network"], "linear")) \
        if op.info["mode"] == "linear" else None
    if reduced is not None:
        edges = sum(len(ps) for ps in reduced["reduced"]["parents"].values())
        if len(doc["indeterminates"]) != edges:
            errors.append(f"{len(doc['indeterminates'])} indeterminates for "
                          f"{edges} dependence edges")
    shape = ctx.memo.setdefault(("slots", op.info["network"]),
                                (doc["sources"], doc["slots"], doc["demand"]))
    if shape != (doc["sources"], doc["slots"], doc["demand"]):
        errors.append("sources, slots or demand change with the reduce mode")
    return errors


def check_warmup(op, out, rc, ctx):
    return [] if rc == 0 else [f"exit code {rc}"]


# --- workload definitions ---------------------------------------------------

def _fixture(name: str) -> str:
    return f"{FIXTURES}/{name}.json"


def _solve_op(fixture: str, mode: str) -> Op:
    return Op(key=f"lp --solve --reduce {mode} {fixture}",
              argv=["lp", "--solve", "--reduce", mode, _fixture(fixture)],
              check=check_solve, info={"fixture": fixture})


def _lp_certified() -> list:
    ops = []
    for fixture, orders in FIXTURE_ORDERS.items():
        for mode, n in orders.items():
            if n > SOLVE_CAP_N:
                continue
            ops.append(_solve_op(fixture, mode))
            ops.append(Op(key=f"lp --export - --reduce {mode} {fixture}",
                          argv=["lp", "--export", "-", "--reduce", mode, _fixture(fixture)],
                          check=check_export,
                          info={"n": n, "sources": FIXTURE_SOURCES[fixture]}))
    return ops


def _search() -> list:
    ops = []
    for fixture, mode, p, pins, status in SEARCHES:
        argv = ["transfer", "--search", str(p), "--reduce", mode]
        if pins:
            argv += ["--pin", pins]
        ops.append(Op(key=f"transfer {' '.join(argv[1:])} {fixture}",
                      argv=argv + [_fixture(fixture)], check=check_search,
                      info={"network": _fixture(fixture), "mode": mode, "p": p,
                            "pins": pins, "status": status}))
    return ops


def _reduce_generated(seed: int, workdir: Path) -> tuple[list, list]:
    ops, networks = [], []
    for shape, unreduced_matrix in SHAPES:
        doc = netgen.generate(shape, seed)
        path = workdir / f"{shape.name}.json"
        path.write_text(netgen.render(doc), encoding="utf-8")
        net = str(path)
        order = len(doc["edges"]) + len(doc["sources"])
        networks.append({"name": shape.name, "path": net, "edges": len(doc["edges"]),
                         "order": order})
        traces = {mode: str(workdir / f"{shape.name}.{mode}.jsonl")
                  for mode in ("linear", "shannon")}
        for mode, trace in traces.items():
            ops.append(Op(key=f"reduce --mode {mode} {shape.name}",
                          argv=["reduce", "--mode", mode, "--trace-out", trace, net],
                          check=check_reduce,
                          info={"network": net, "mode": mode, "order": order,
                                "trace": trace, "generated": True}))
        for mode, trace in traces.items():
            ops.append(Op(key=f"replay {mode} {shape.name}",
                          argv=["replay", "--trace", trace, net], check=check_replay,
                          info={"network": net, "mode": mode, "generated": True}))
        for mode in ("linear", "none") if unreduced_matrix else ("linear",):
            ops.append(Op(key=f"transfer --matrix --reduce {mode} {shape.name}",
                          argv=["transfer", "--matrix", "--reduce", mode, net],
                          check=check_matrix,
                          info={"network": net, "mode": mode, "generated": True}))
    return ops, networks


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The op list of one workload; ``seed`` fixes generated inputs and the
    order of fixture ops."""
    small = _fixture("single_edge")
    if name == "lp-certified":
        ops = _lp_certified()
        warmup = ["lp", "--solve", small]
    elif name == "lp-exact":
        ops = [_solve_op(fixture, mode) for fixture, mode in EXACT_SOLVES]
        warmup = ["lp", "--solve", small]
    elif name == "search":
        ops = _search()
        warmup = ["transfer", "--search", "2", small]
    elif name == "reduce-generated":
        ops, networks = _reduce_generated(seed, workdir)
        return Workload(name, ops, Op("warmup", ["reduce", small], check_warmup),
                        networks=networks)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(ops)
    return Workload(name, ops, Op("warmup", warmup, check_warmup),
                    blocks_scipy=name == "lp-exact")


WORKLOADS = ("lp-certified", "lp-exact", "search", "reduce-generated")
