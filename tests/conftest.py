"""Shared test helpers: a per-test time limit, fixture loading, a
random-network generator, and the independent oracles (the quadratic network
checks, the paper's finite series for A (I - F)^{-1} B, symbolic forward
propagation, LP-text re-import into scipy, the Fraction LP layers, the
Fraction Gauss-Jordan solve, the Fraction simplex tableau, the
rebuild-per-step reduction) used to cross-check the library's own
computation paths."""

import json
import math
import random
import signal
import sys
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fdgtool import netmodel
from fdgtool.algebra import Poly, TransferSystem, ind_decode, ind_edge, ind_source
from fdgtool.fdg import (COR1, COR2, COR3, COR4, COR5A, COR5B, LINEAR, SHANNON, EdgeVar, Fdg,
                         ReductionTrace, ReplayError, Step, UnitCapacityError)
from fdgtool.lpbound import (CAPACITY, DECODE, DEFAULT_GENERATION_CAP, ELEMENTAL1, ELEMENTAL2,
                             ENCODE, INDEP, LpProblem, Row)
from fdgtool.netmodel import Weights
from fdgtool.simplex import OPTIMAL, UNBOUNDED, SimplexResult

UNIT_FIXTURES = ("butterfly", "two_unicast_side", "two_unicast_chain",
                 "parallel_relay", "fano", "single_edge")


# One-step butterfly traces that replay must refuse: id -> (network text, step).
_BUTTERFLY = netmodel.fixture_text("butterfly")
_FIRST_STEP = {"rule": "COR1", "removed": ["U:e_d"], "up": ["U:e_c"],
               "down": ["Y1"], "added": [["U:e_c", "Y1"]]}
FORGED_STEPS = {
    # right neighbourhood and added edge, but the source parent Y1 blocks COR1
    "source-parent": (_BUTTERFLY, {"rule": "COR1", "removed": ["U:e_a"], "up": ["Y1"],
                                   "down": ["U:e_c"], "added": [["Y1", "U:e_c"]]}),
    "unknown-rule": (_BUTTERFLY, {**_FIRST_STEP, "rule": "COR9"}),
    "tampered-added": (_BUTTERFLY, {**_FIRST_STEP, "added": []}),
    "empty-removed": (_BUTTERFLY, {**_FIRST_STEP, "removed": []}),
    "repeated-removed": (_BUTTERFLY, {**_FIRST_STEP, "removed": ["U:e_d", "U:e_d"]}),
    "unit-rule-on-capacity-2": (_BUTTERFLY.replace('"cap": "1"', '"cap": "2"'),
                                {**_FIRST_STEP, "rule": "COR5a"}),
    # e_d and e_e share the parent e_c, but their children are Y1 and Y2
    "same-parents-other-children": (_BUTTERFLY, {"rule": "COR2", "removed": ["U:e_d", "U:e_e"],
                                                 "up": ["U:e_c"], "down": ["Y1"],
                                                 "added": [["U:e_c", "Y1"]]}),
}


# Wall-clock limit per test; the slowest test takes about 15 s.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past ``TEST_TIME_LIMIT_S``.  Not an ``Exception``, so
    hypothesis neither catches it nor replays the example that hung."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that hangs instead of stalling the suite (POSIX only).

    The alarm is cancelled as soon as the test body ends, before pytest
    reports on it.  Until then it fires again every second, because an
    exception raised while a gc callback or ``__del__`` runs (hypothesis
    installs a gc callback) is printed and dropped instead of propagated.
    """
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        signal.alarm(1)
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def butterfly():
    return netmodel.load_fixture("butterfly")


def random_network(rng: random.Random, max_edges: int = 8) -> netmodel.Network:
    """A small random valid unit-capacity network.

    Layered construction keeps it acyclic; every sink keeps at least one
    in-edge and demands only sources that actually reach it.  A source may
    still end up demanded by nobody, which the graph builder reports with a
    warning; callers that mind should filter it.
    """
    n_sources = rng.randint(1, 2)
    n_mids = rng.randint(1, 3)
    n_sinks = rng.randint(1, 2)
    sources = [f"s{i+1}" for i in range(n_sources)]
    mids = [f"m{i+1}" for i in range(n_mids)]
    sinks = [f"t{i+1}" for i in range(n_sinks)]
    layer = {n: 0 for n in sources}
    layer.update({n: 1 + i for i, n in enumerate(mids)})
    layer.update({n: 1 + n_mids for n in sinks})
    tails = sources + mids
    heads = mids + sinks

    edges = []
    def add_edge(tail, head):
        edges.append(netmodel.Edge(id=f"e{len(edges)+1}", tail=tail, head=head,
                                   cap=Fraction(1)))

    n_edges = rng.randint(n_sinks + 1, max_edges)
    attempts = 0
    while len(edges) < n_edges and attempts < 200:
        attempts += 1
        tail = rng.choice(tails)
        head = rng.choice(heads)
        if layer[tail] < layer[head]:
            add_edge(tail, head)
    for t in sinks:
        if not any(e.head == t for e in edges):
            add_edge(rng.choice(sources), t)
    # A relay that sends but never receives would carry an undefined symbol.
    for m in mids:
        if any(e.tail == m for e in edges) and not any(e.head == m for e in edges):
            add_edge(rng.choice(sources), m)

    reach = {n: {n} for n in sources + mids + sinks}
    for node in sorted(layer, key=layer.get):
        for e in edges:
            if e.tail == node:
                reach[e.head] |= reach[node]

    sink_records = []
    for t in sinks:
        reachable = [i + 1 for i, s in enumerate(sources) if s in reach[t]]
        if not reachable:
            add_edge(sources[0], t)
            reachable = [1]
        k = rng.randint(1, len(reachable))
        sink_records.append(netmodel.Sink(at=t, demands=tuple(sorted(
            rng.sample(reachable, k)))))

    net = netmodel.Network(
        nodes=tuple(sources + mids + sinks),
        edges=tuple(edges),
        sources=tuple(netmodel.Source(index=i + 1, at=s)
                      for i, s in enumerate(sources)),
        sinks=tuple(sink_records),
    )
    assert netmodel.validate(net) == []
    return net


def relay_grid(layers: int, width: int) -> netmodel.Network:
    """A layered unit-capacity network in which every link is a two-edge relay.

    Sources ``s1``/``s2`` feed alternate nodes of the first layer; node j of
    each later layer hears nodes j and j+1 (mod ``width``) of the layer
    before, each through its own relay node; sinks ``t1``/``t2`` demand
    source 1/2 from the first two nodes of the last layer.  Every relay's
    outgoing edge is a one-parent unit variable, so a reduction takes many
    steps.  Needs ``width`` >= 2.
    """
    nodes, edges = ["s1", "s2"], []

    def link(tail, head):
        edges.append(netmodel.Edge(id=f"e{len(edges) + 1}", tail=tail, head=head,
                                   cap=Fraction(1)))

    def relay(tail, head):
        mid = f"r{len(nodes)}"
        nodes.append(mid)
        link(tail, mid)
        link(mid, head)

    grid = [[f"n{k}_{j}" for j in range(width)] for k in range(layers)]
    for j, node in enumerate(grid[0]):
        nodes.append(node)
        link(f"s{1 + j % 2}", node)
    for k in range(1, layers):
        for j, node in enumerate(grid[k]):
            nodes.append(node)
            relay(grid[k - 1][j], node)
            relay(grid[k - 1][(j + 1) % width], node)
    sinks = []
    for i in (1, 2):
        nodes.append(f"t{i}")
        for node in grid[-1][:2]:
            link(node, f"t{i}")
        sinks.append(netmodel.Sink(at=f"t{i}", demands=(i,)))
    net = netmodel.Network(nodes=tuple(nodes), edges=tuple(edges),
                           sources=(netmodel.Source(index=1, at="s1"),
                                    netmodel.Source(index=2, at="s2")),
                           sinks=tuple(sinks))
    assert netmodel.validate(net) == []
    return net


def head_first_path_text(n: int) -> str:
    """A single path of ``n`` unit edges, listed from the sink back to the source."""
    return json.dumps({
        "nodes": [f"v{i}" for i in range(n + 1)],
        "edges": [{"id": f"e{i}", "tail": f"v{i}", "head": f"v{i + 1}", "cap": "1"}
                  for i in reversed(range(n))],
        "sources": [{"index": 1, "at": "v0"}],
        "sinks": [{"at": f"v{n}", "demands": [1]}],
    })


# Reference network checks: validate and its O(V*E) Kahn order as they were
# before each node's in- and out-edges were listed once.

def _reference_cap_text(cap: Fraction) -> str:
    """``str(cap)``, or past the int-to-string digit limit, ``cap`` as a
    decimal whose exponent is the one nearest its own within the limit:
    ``-(10**4301)`` is ``-10e4300``.  A fraction that is no decimal prints
    as ``p/q``.  Each part goes through ``Decimal``, which has no limit."""
    try:
        return str(cap)
    except ValueError:
        pass
    num, den = cap.numerator, cap.denominator
    with localcontext(prec=num.bit_length() + den.bit_length() + 1) as ctx:
        quotient = Decimal(num) / Decimal(den)
        if ctx.flags[Inexact]:
            return f"{Decimal(num)}/{Decimal(den)}"
        sign, digits, exponent = quotient.normalize().as_tuple()
    limit = sys.get_int_max_str_digits()
    written = max(-limit, min(exponent, limit))
    text = "".join(map(str, digits)) + "0" * max(exponent - written, 0)
    point = written - exponent
    if point > 0:
        text = text.rjust(point + 1, "0")
        text = f"{text[:-point]}.{text[-point:]}"
    return f"{'-' * sign}{text}e{written}"


def reference_validate(net: netmodel.Network) -> list[str]:
    """Return all invariant violations, in a deterministic order.

    An empty list means the network is valid.  Violations are data, not
    exceptions: callers that need a hard failure use parse_network or raise
    InvalidNetworkError themselves.
    """
    violations = []
    node_set = set()
    for n in net.nodes:
        if n in node_set:
            violations.append(f"duplicate node id {n!r}")
        node_set.add(n)

    if not net.sources:
        violations.append("network has no sources")
    if not net.sinks:
        violations.append("network has no sinks")

    edge_ids = set()
    for e in net.edges:
        if e.id in edge_ids:
            violations.append(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        if e.id in node_set:
            violations.append(f"edge id {e.id!r} collides with a node id")
        if e.tail not in node_set:
            violations.append(f"edge {e.id!r}: unknown tail node {e.tail!r}")
        if e.head not in node_set:
            violations.append(f"edge {e.id!r}: unknown head node {e.head!r}")
        if e.tail == e.head:
            violations.append(f"edge {e.id!r}: self-loop at node {e.tail!r}")
        if e.cap < 0:
            violations.append(f"edge {e.id!r}: negative capacity {_reference_cap_text(e.cap)}")

    indices = [s.index for s in net.sources]
    if net.sources and sorted(indices) != list(range(1, len(indices) + 1)):
        violations.append(
            f"source indices must be exactly 1..{len(indices)}, got {sorted(indices)}")
    source_nodes = set()
    for s in net.sources:
        if s.at not in node_set:
            violations.append(f"source {s.index}: unknown node {s.at!r}")
            continue
        source_nodes.add(s.at)
        incoming = [e.id for e in net.edges if e.head == s.at]
        if incoming:
            violations.append(
                f"In(S) nonempty: source {s.index} at node {s.at!r} "
                f"has incoming edges {incoming}")

    known_indices = set(indices)
    sink_nodes = set()
    for t in net.sinks:
        if t.at not in node_set:
            violations.append(f"sink at unknown node {t.at!r}")
            continue
        if t.at in sink_nodes:
            violations.append(f"duplicate sink node {t.at!r}")
        sink_nodes.add(t.at)
        if t.at in source_nodes:
            violations.append(f"node {t.at!r} hosts both a source and a sink")
        outgoing = [e.id for e in net.edges if e.tail == t.at]
        if outgoing:
            violations.append(
                f"Out(T) nonempty: sink node {t.at!r} has outgoing edges {outgoing}")
        if not t.demands:
            violations.append(f"sink {t.at!r}: empty demand set")
        for d in t.demands:
            if d not in known_indices:
                violations.append(f"sink {t.at!r}: unknown source {d}")

    if not _reference_has_topological_order(net):
        violations.append("cycle detected")
    return violations


def _reference_has_topological_order(net: netmodel.Network) -> bool:
    try:
        reference_topological_order(net)
    except ValueError:
        return False
    return True


def reference_topological_order(net: netmodel.Network) -> list[str]:
    """Kahn topological order of the nodes, stable in node-list order."""
    indeg = {n: 0 for n in net.nodes}
    for e in net.edges:
        if e.head in indeg and e.tail in indeg:
            indeg[e.head] += 1
    ready = [n for n in net.nodes if indeg[n] == 0]
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for e in net.edges:
            if e.tail == n and e.head in indeg:
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    ready.append(e.head)
    if len(order) != len(net.nodes):
        raise ValueError("cycle detected")
    return order


# Reference transfer matrix: (I - F)^{-1} as the finite nilpotent series,
# multiplied out densely, as the paper writes it.

def _mat_mul(X, Y):
    rows, inner, cols = len(X), len(Y), len(Y[0]) if Y else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Poly.zero()
            for k in range(inner):
                if X[i][k] and Y[k][j]:
                    acc = acc + X[i][k] * Y[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _identity(n):
    return tuple(tuple(Poly.const(1) if i == j else Poly.zero() for j in range(n))
                 for i in range(n))


def nilpotency_index(ts: TransferSystem) -> int:
    """Length of the longest edge-to-edge path; also checks acyclicity."""
    n = ts.adjacency_dim
    succ = {i: [j for j in range(n) if ts.F[i][j]] for i in range(n)}
    depth = {}

    def visit(i, stack):
        if i in depth:
            return depth[i]
        if i in stack:
            raise ValueError("edge adjacency has a cycle; the series does not terminate")
        stack.add(i)
        depth[i] = 0 if not succ[i] else 1 + max(visit(j, stack) for j in succ[i])
        stack.discard(i)
        return depth[i]

    return max((visit(i, set()) for i in range(n)), default=0)


def series_inverse(ts: TransferSystem):
    """(I - F)^{-1} as the finite geometric series I + F + ... + F^L."""
    n = ts.adjacency_dim
    L = nilpotency_index(ts)
    total = _identity(n)
    power = _identity(n)
    for _ in range(L):
        power = _mat_mul(power, ts.F)
        total = tuple(tuple(a + b for a, b in zip(ra, rb))
                      for ra, rb in zip(total, power))
    return total


def series_transfer_matrix(ts: TransferSystem):
    """M = A (I + F + ... + F^L) B, by dense products."""
    return _mat_mul(_mat_mul(ts.A, series_inverse(ts)), ts.B)


def propagate_messages(net: netmodel.Network):
    """Independent transfer-matrix oracle: push symbolic message vectors
    edge by edge in topological order, then decode at each slot.

    Each edge carries a vector of polynomials, one coordinate per source.
    A decode slot for (sink, source) reads every edge that any sink
    demanding that source listens to, mirroring how the dependence graph
    merges decoding inputs per source.
    """
    order = netmodel.topological_order(net)
    pos = {n: i for i, n in enumerate(order)}
    vec = {}
    for e in sorted(net.edges, key=lambda e: pos[e.tail]):
        v = {s.index: Poly.zero() for s in net.sources}
        hosted = net.sources_at(e.tail)
        if hosted:
            for s in hosted:
                v[s.index] = Poly.var(ind_source(s.index, e.id))
        else:
            for f in net.edges:
                if f.head == e.tail:
                    coeff = Poly.var(ind_edge(f.id, e.id))
                    for k, poly in vec[f.id].items():
                        if poly:
                            v[k] = v[k] + coeff * poly
        vec[e.id] = v

    decode_inputs = {}
    for s in net.sources:
        listening = []
        for t in net.sinks:
            if s.index in t.demands:
                for e in net.edges:
                    if e.head == t.at and e.id not in listening:
                        listening.append(e.id)
        decode_inputs[s.index] = listening

    slots = sorted((t.at, d) for t in net.sinks for d in t.demands)
    matrix = []
    for s in net.sources:
        row = []
        for sink, demanded in slots:
            acc = Poly.zero()
            for eid in decode_inputs[demanded]:
                coeff = Poly.var(ind_decode(eid, sink, demanded))
                poly = vec[eid][s.index]
                if poly:
                    acc = acc + coeff * poly
            row.append(acc)
        matrix.append(tuple(row))
    return tuple(matrix), tuple(slots)


def parse_lp_text(text: str):
    """Parse the tool's LP export format back into numeric arrays.

    Returns (objective dict, rows, obj_scale) with rows as
    (coeffs dict, sense, rhs) over zero-based column ids parsed from the
    h_<hex> names.  Only the grammar this package emits is supported.
    """
    obj_scale = Fraction(1)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    i = 0
    while lines[i].startswith("\\"):
        if "objective scaled by" in lines[i]:
            obj_scale = Fraction(lines[i].split()[-1])
        i += 1
    assert lines[i] == "Maximize"
    obj_line = lines[i + 1].split(":", 1)[1]
    i += 2
    assert lines[i] == "Subject To"
    i += 1
    rows = []
    while not lines[i].startswith("Bounds"):
        body = lines[i].split(":", 1)[1]
        for sense in ("<=", ">=", "="):
            if f" {sense} " in body:
                lhs, rhs = body.rsplit(f" {sense} ", 1)
                rows.append((_parse_terms(lhs), sense, Fraction(rhs.strip())))
                break
        else:
            raise AssertionError(f"row without sense: {lines[i]}")
        i += 1
    free = set()
    i += 1
    while lines[i] != "End":
        name, kind = lines[i].split()
        assert kind == "free"
        free.add(int(name[2:], 16) - 1)
        i += 1
    return _parse_terms(obj_line), rows, obj_scale, free


def _parse_terms(text: str) -> dict:
    tokens = text.split()
    terms = {}
    sign = 1
    pending = None
    for tok in tokens:
        if tok == "+":
            sign, pending = 1, None
        elif tok == "-":
            sign, pending = -1, None
        elif tok.startswith("h_"):
            col = int(tok[2:], 16) - 1
            coeff = Fraction(pending) if pending is not None else Fraction(1)
            value = sign * coeff
            if value:
                terms[col] = terms.get(col, Fraction(0)) + value
            sign, pending = 1, None
        else:
            pending = tok
    return {c: v for c, v in terms.items() if v}


def scipy_solve_exported(text: str):
    """Solve an exported LP with scipy as an independent check.

    Returns the optimum of the original (unscaled) objective as a float.
    """
    import numpy as np
    from scipy.optimize import linprog

    objective, rows, obj_scale, free = parse_lp_text(text)
    n = max(free) + 1
    c = np.zeros(n)
    for j, v in objective.items():
        c[j] = -float(v)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in rows:
        a = np.zeros(n)
        for j, v in coeffs.items():
            a[j] = float(v)
        if sense == "<=":
            A_ub.append(a); b_ub.append(float(rhs))
        elif sense == ">=":
            A_ub.append(-a); b_ub.append(-float(rhs))
        else:
            A_eq.append(a); b_eq.append(float(rhs))
    res = linprog(c, A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
                  bounds=[(None, None)] * n, method="highs")
    assert res.status == 0, res.message
    return -res.fun / float(obj_scale)


# Reference LP layers: the Fraction code that the integer row checks, the
# integer dual check, the direct elemental rows, the integer row table and
# the integer export replaced in ``lpbound``, kept verbatim (with
# ``_ray_violates``, the exact fallback's old ray test).

def _coeff_row(terms: dict) -> tuple:
    return tuple(sorted((m, c) for m, c in terms.items() if c != 0))


def _submasks_ascending(mask: int):
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def elemental_inequalities(n: int, cap: int = DEFAULT_GENERATION_CAP) -> list[Row]:
    """All elemental entropy inequalities for n variables, in canonical order.

    Type-1 rows come first, one per variable; type-2 rows follow with the
    variable pairs in lexicographic order and the conditioning subset in
    ascending bitmask order.  Refuses n above the generation cap: reduce the
    graph first instead of generating astronomically many rows.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the generation cap {cap}; reduce the graph first")
    full = (1 << n) - 1
    rows = []
    one = Fraction(1)
    for i in range(n):
        terms = {full: one}
        rest = full & ~(1 << i)
        if rest:
            terms[rest] = -one
        rows.append(Row(name=f"elem1_{i + 1}", tag=ELEMENTAL1,
                        coeffs=_coeff_row(terms), sense=">=", rhs=Fraction(0)))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = 1 << i, 1 << j
            rest = full & ~(a | b)
            for c in _submasks_ascending(rest):
                k += 1
                terms = {}
                for m, s in (((a | c), 1), ((b | c), 1), ((a | b | c), -1), (c, -1)):
                    if m:
                        terms[m] = terms.get(m, Fraction(0)) + s
                rows.append(Row(name=f"elem2_{k}", tag=ELEMENTAL2,
                                coeffs=_coeff_row(terms), sense=">=", rhs=Fraction(0)))
    return rows


def _check_generation_cap(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError("need at least one variable")
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the generation cap {cap}; reduce the graph first")


def _check_buildable(fdg: Fdg, cap: int) -> None:
    """Raise the ValueError that ``build_lp`` refuses ``fdg`` with, if any."""
    _check_generation_cap(fdg.order, cap)
    for v in fdg.edge_vars():
        if not fdg.up(v):
            raise ValueError(
                f"edge variable {v.name} has no parents; the underlying edge "
                f"leaves a node with no inputs")


def reference_build_lp(fdg: Fdg, weights: Weights, cap: int = DEFAULT_GENERATION_CAP):
    """``build_lp`` as it was when it stored a ``Row`` of ``Fraction``s per
    row, kept verbatim but for its last line: the result is a namespace with
    ``LpProblem``'s fields, ``rows`` a tuple of ``Row``s, since ``LpProblem``
    now holds its rows as a ``RowTable``.  The elemental rows come from the
    reference ``elemental_inequalities`` above."""
    _check_buildable(fdg, cap)
    n = fdg.order
    index = {v: i for i, v in enumerate(fdg.vars)}

    def mask_of(vs) -> int:
        m = 0
        for v in vs:
            m |= 1 << index[v]
        return m

    rows = list(elemental_inequalities(n, cap=cap))

    svars = fdg.source_vars()
    all_sources = mask_of(svars)
    terms = {all_sources: Fraction(1)}
    for s in svars:
        m = mask_of([s])
        terms[m] = terms.get(m, Fraction(0)) - 1
    rows.append(Row(name="indep", tag=INDEP, coeffs=_coeff_row(terms),
                    sense="=", rhs=Fraction(0)))

    for v in fdg.edge_vars():
        p = mask_of(fdg.up(v))
        rows.append(Row(name=f"enc_{v.edge_id}", tag=ENCODE,
                        coeffs=_coeff_row({p | mask_of([v]): Fraction(1),
                                           p: Fraction(-1)}),
                        sense="=", rhs=Fraction(0)))

    for s in svars:
        parents = fdg.up(s)
        if not parents:
            continue
        p = mask_of(parents)
        me = mask_of([s])
        if me & p:
            continue
        rows.append(Row(name=f"dec_{s.index}", tag=DECODE,
                        coeffs=_coeff_row({p | me: Fraction(1), p: Fraction(-1)}),
                        sense="=", rhs=Fraction(0)))

    for v in fdg.edge_vars():
        rows.append(Row(name=f"cap_{v.edge_id}", tag=CAPACITY,
                        coeffs=_coeff_row({mask_of([v]): Fraction(1)}),
                        sense="<=", rhs=Fraction(v.cap)))

    objective = {}
    for s in svars:
        w = weights.get(s.index)
        if w:
            objective[mask_of([s])] = w

    return SimpleNamespace(
        n_vars=n,
        var_names=tuple(v.name for v in fdg.vars),
        source_masks=tuple((s.index, mask_of([s])) for s in svars),
        objective=_coeff_row(objective),
        rows=tuple(rows),
    )


def _eval_row(coeffs, witness) -> Fraction:
    total = Fraction(0)
    for mask, c in coeffs:
        w = witness.get(mask)
        if w:
            total += c * w
    return total


def _row_ok(row: Row, lhs: Fraction) -> bool:
    if row.sense == "<=":
        return lhs <= row.rhs
    if row.sense == ">=":
        return lhs >= row.rhs
    return lhs == row.rhs


def verify_witness(problem: LpProblem, witness: dict) -> list[str]:
    """Exactly re-check a candidate point against every row; [] means feasible."""
    bad = []
    for row in problem.rows:
        if not _row_ok(row, _eval_row(row.coeffs, witness)):
            bad.append(row.name)
    return bad


def _ray_violates(row: Row, ray_value: Fraction) -> bool:
    if row.sense == "<=":
        return ray_value > 0
    if row.sense == ">=":
        return ray_value < 0
    return ray_value != 0


def _dual_certifies(problem, ub_idx, eq_idx, u, v, value) -> bool:
    """Exact weak-duality check: u >= 0 was ensured by the caller; verify
    dual feasibility and that the dual objective equals ``value``."""
    column_sums = {}
    dual_value = Fraction(0)
    for q, i in zip(u, ub_idx):
        if not q:
            continue
        row = problem.rows[i]
        flip = -1 if row.sense == ">=" else 1
        for mask, c in row.coeffs:
            column_sums[mask] = column_sums.get(mask, Fraction(0)) + flip * q * c
        dual_value += flip * q * row.rhs
    for q, i in zip(v, eq_idx):
        if not q:
            continue
        row = problem.rows[i]
        for mask, c in row.coeffs:
            column_sums[mask] = column_sums.get(mask, Fraction(0)) + q * c
        dual_value += q * row.rhs
    if dual_value != value:
        return False
    objective = dict(problem.objective)
    for mask in set(column_sums) | set(objective):
        if column_sums.get(mask, Fraction(0)) < objective.get(mask, Fraction(0)):
            return False
    return True


def solve_unique(equations) -> dict | None:
    """The unique solution of (terms, rhs) equations by dense Fraction
    Gauss-Jordan elimination over the unknowns they name, or None when
    there is none or more than one."""
    unknowns = sorted({k for terms, _ in equations for k in terms})
    matrix = [[Fraction(terms.get(k, 0)) for k in unknowns] + [Fraction(rhs)]
              for terms, rhs in equations]
    rank = 0
    for col in range(len(unknowns)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            return None  # a free unknown
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = [a / matrix[rank][col] for a in matrix[rank]]
        matrix[rank] = top
        for r, row in enumerate(matrix):
            if r != rank and row[col]:
                matrix[r] = [a - row[col] * b for a, b in zip(row, top)]
        rank += 1
    if any(row[-1] for row in matrix[rank:]):
        return None  # 0 = nonzero
    return {k: matrix[i][-1] for i, k in enumerate(unknowns)}


def _decimal_exact(f: Fraction) -> str | None:
    """Render exactly as a decimal string, or None if impossible."""
    den = f.denominator
    two = five = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return None
    digits = max(two, five)
    if digits == 0:
        return str(f.numerator)
    scaled = f.numerator * 10 ** digits // f.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _lcm(a: int, b: int) -> int:
    from math import gcd
    return a // gcd(a, b) * b


def _render_terms(coeffs, scale: Fraction) -> str:
    if not coeffs:
        return "0 h_1"
    parts = []
    for mask, c in coeffs:
        c = c * scale
        mag = abs(c)
        mag_text = "" if mag == 1 else _decimal_exact(mag) + " "
        term = f"{mag_text}h_{mask:x}"
        if not parts:
            parts.append(term if c > 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _row_scale(coeffs, rhs: Fraction) -> Fraction:
    """Identity when all numbers are exactly decimal, else the integerizing factor."""
    values = [c for _, c in coeffs] + [rhs]
    if all(_decimal_exact(v) is not None for v in values):
        return Fraction(1)
    denom = 1
    for v in values:
        denom = _lcm(denom, v.denominator)
    return Fraction(denom)


def export_lp(problem: LpProblem) -> str:
    """Render the problem in CPLEX-style LP text, byte-deterministically.

    Row names are the tag-derived names from the problem; columns are named
    h_<subset-bitmask-in-hex>.  Every variable is declared free: the
    elemental rows imply nonnegativity, so the declaration only keeps
    external solvers from quietly adding their default lower bound.
    """
    lines = []
    obj_scale = _row_scale(problem.objective, Fraction(0))
    if obj_scale != 1:
        lines.append(f"\\ objective scaled by {obj_scale}")
    lines += ["Maximize", f" obj: {_render_terms(problem.objective, obj_scale)}",
              "Subject To"]
    for row in problem.rows:
        scale = _row_scale(row.coeffs, row.rhs)
        rhs = _decimal_exact(row.rhs * scale)
        lines.append(f" {row.name}: {_render_terms(row.coeffs, scale)} {row.sense} {rhs}")
    lines.append("Bounds")
    for mask in range(1, problem.dimension + 1):
        lines.append(f" h_{mask:x} free")
    lines.append("End")
    return "\n".join(lines) + "\n"


def reference_linprog_inputs(problem):
    """The ``linprog`` inputs whose HiGHS model the float solve's MPS file
    must equal, built through ``float(Fraction)`` per number: (c, keyword
    arguments)."""
    import numpy as np
    from scipy.sparse import csr_matrix

    n = problem.dimension
    c = np.zeros(n)
    for mask, w in problem.objective:
        c[mask - 1] = -float(w)
    ub_idx, eq_idx = [], []
    ub_data, ub_r, ub_c, ub_b = [], [], [], []
    eq_data, eq_r, eq_c, eq_b = [], [], [], []
    for i, row in enumerate(problem.rows):
        if row.sense == "=":
            r = len(eq_idx)
            eq_idx.append(i)
            for mask, v in row.coeffs:
                eq_r.append(r); eq_c.append(mask - 1); eq_data.append(float(v))
            eq_b.append(float(row.rhs))
        else:
            flip = -1.0 if row.sense == ">=" else 1.0
            r = len(ub_idx)
            ub_idx.append(i)
            for mask, v in row.coeffs:
                ub_r.append(r); ub_c.append(mask - 1); ub_data.append(flip * float(v))
            ub_b.append(flip * float(row.rhs))
    A_ub = csr_matrix((ub_data, (ub_r, ub_c)), shape=(len(ub_idx), n)) if ub_idx else None
    A_eq = csr_matrix((eq_data, (eq_r, eq_c)), shape=(len(eq_idx), n)) if eq_idx else None
    return c, dict(A_ub=A_ub, b_ub=ub_b or None, A_eq=A_eq, b_eq=eq_b or None,
                   bounds=(0, None), method="highs")


class _Captured(Exception):
    pass


def reference_highs_model(problem):
    """The ``HighsLp`` and options that scipy's ``linprog`` path hands HiGHS
    for ``reference_linprog_inputs(problem)``: (lp, options).

    ``linprog`` runs as it is up to its call of ``_highs_wrapper``, so the
    arrays come out of scipy's own input cleaning, ``vstack``, ``csc_array``
    and ``kHighsInf`` replacement; they are set on a ``HighsLp`` as
    ``_highs_wrapper`` sets them.  ``options`` is the dict ``_linprog_highs``
    builds, as ``_highs_wrapper`` passes it on: without the ``None`` values
    and ``sense``, with ``presolve`` as "on" or "off"."""
    from unittest import mock

    import scipy.optimize._linprog_highs as linprog_highs
    from scipy.optimize import linprog
    from scipy.optimize._highspy import _core

    captured = []

    def highs_wrapper(*args):
        captured.append(args)
        raise _Captured

    c, kwargs = reference_linprog_inputs(problem)
    with mock.patch.object(linprog_highs, "_highs_wrapper", highs_wrapper), \
            pytest.raises(_Captured):
        linprog(c, **kwargs)
    (c, indptr, indices, data, lhs, rhs, lb, ub, integrality, options), = captured
    assert integrality.size == 0
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = lhs
    lp.row_upper_ = rhs
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    options = {key: ("on" if value else "off") if key == "presolve" else value
               for key, value in options.items() if value is not None and key != "sense"}
    return lp, options


def highs_lp_bytes(lp) -> dict:
    """Every field of a ``HighsLp`` that a model builder sets, as bytes: two
    models with equal results hand HiGHS the same numbers, bit for bit."""
    import numpy as np

    fields = {"num_col_": lp.num_col_, "num_row_": lp.num_row_,
              "a_matrix_.num_col_": lp.a_matrix_.num_col_,
              "a_matrix_.num_row_": lp.a_matrix_.num_row_,
              "a_matrix_.format_": lp.a_matrix_.format_}
    for name in ("col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_"):
        fields[name] = np.asarray(getattr(lp, name), dtype=np.float64).tobytes()
    fields["a_matrix_.start_"] = list(lp.a_matrix_.start_)
    fields["a_matrix_.index_"] = list(lp.a_matrix_.index_)
    fields["a_matrix_.value_"] = np.asarray(lp.a_matrix_.value_, dtype=np.float64).tobytes()
    return fields


# Reference exact simplex: the dense tableau of ``Fraction`` entries that
# ``simplex`` used before its rows became integers, kept verbatim
# (``_Tableau`` and ``solve`` renamed ``_FractionTableau`` and
# ``reference_simplex_solve``; the result also carries the pivot count).

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MAX_PIVOTS = 2_000_000
# The reference's status for an LP that its phase 1 finds empty.
# ``simplex.solve`` refuses every LP that x = 0 violates, so it has no such status.
INFEASIBLE = "infeasible"


class _FractionTableau:
    """Dense simplex tableau over exact rationals.

    Columns are laid out as [structural | slack | artificial | rhs]; the
    objective row is stored separately in reduced-cost form (entry < 0 means
    the column improves the objective).
    """

    def __init__(self, n_struct, rows_le):
        self.m = len(rows_le)
        self.n_struct = n_struct
        self.art_cols = []
        width = n_struct + self.m
        self.rows = []
        self.basis = []
        art_rows = []
        for i, (coeffs, b) in enumerate(rows_le):
            row = [_ZERO] * width
            for j, val in coeffs.items():
                row[j] = val
            row[n_struct + i] = _ONE
            if b < 0:
                row = [-e for e in row]
                b = -b
                art_rows.append(i)
            row.append(b)
            self.rows.append(row)
            self.basis.append(n_struct + i)
        for k, i in enumerate(art_rows):
            col = width + k
            for r in self.rows:
                r.insert(len(r) - 1, _ZERO)
            self.rows[i][col] = _ONE
            self.basis[i] = col
            self.art_cols.append(col)
        self.width = width + len(art_rows)
        self.obj = [_ZERO] * (self.width + 1)
        self.pivots = 0

    def set_objective_max(self, coeffs) -> None:
        """Load reduced costs for maximizing coeffs.x given the current basis."""
        c = [_ZERO] * self.width
        for j, val in coeffs.items():
            c[j] = Fraction(val)
        obj = [-e for e in c] + [_ZERO]
        for i, b in enumerate(self.basis):
            f = c[b]
            if f:
                row = self.rows[i]
                for j in range(self.width + 1):
                    if row[j]:
                        obj[j] += f * row[j]
        self.obj = obj

    def _entering(self, forbidden=frozenset()):
        obj = self.obj
        best, best_j = _ZERO, None
        for j in range(self.width):
            if obj[j] < best and j not in forbidden:
                best, best_j = obj[j], j
        return best_j

    def _leaving(self, pc):
        best_ratio = None
        cand = []
        for i, row in enumerate(self.rows):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if best_ratio is None or ratio < best_ratio:
                    best_ratio, cand = ratio, [i]
                elif ratio == best_ratio:
                    cand.append(i)
        if not cand:
            return None
        if len(cand) == 1:
            return cand[0]
        # Lexicographic tie-break: compare rows scaled by the pivot entry
        # over the initial identity block (slacks, then artificials).  Those
        # columns hold the current basis inverse, whose rows are linearly
        # independent, so the tie always resolves.
        for c in range(self.n_struct, self.width):
            best_val = None
            keep = []
            for i in cand:
                val = self.rows[i][c] / self.rows[i][pc]
                if best_val is None or val < best_val:
                    best_val, keep = val, [i]
                elif val == best_val:
                    keep.append(i)
            cand = keep
            if len(cand) == 1:
                return cand[0]
        return min(cand)

    def _pivot(self, pr, pc) -> None:
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        row = self.rows[pr]
        inv = _ONE / row[pc]
        if inv != 1:
            row = [e * inv for e in row]
            self.rows[pr] = row
        nz = [(j, e) for j, e in enumerate(row) if e]
        for i, other in enumerate(self.rows):
            if i == pr:
                continue
            f = other[pc]
            if f:
                for j, e in nz:
                    other[j] -= f * e
        f = self.obj[pc]
        if f:
            obj = self.obj
            for j, e in nz:
                obj[j] -= f * e
        self.basis[pr] = pc

    def run(self, forbidden=()):
        """Pivot to optimality.  Returns None or, when unbounded, the
        entering column that certifies it."""
        forbidden = frozenset(forbidden)
        while True:
            pc = self._entering(forbidden)
            if pc is None:
                return None
            pr = self._leaving(pc)
            if pr is None:
                return pc
            self._pivot(pr, pc)

    def solution(self):
        x = [_ZERO] * self.width
        for i, b in enumerate(self.basis):
            x[b] = self.rows[i][-1]
        return x

    def ray(self, pc):
        """Improving feasible direction when column pc has no blocking row."""
        d = [_ZERO] * self.width
        d[pc] = _ONE
        for i, b in enumerate(self.basis):
            d[b] = -self.rows[i][pc]
        return d


def reference_simplex_solve(n_cols: int, objective: dict, rows) -> SimplexResult:
    """Maximise objective.x over x >= 0 with exact rational arithmetic.

    objective maps column index to coefficient; rows are (coeffs, sense, rhs)
    triples with sense one of '<=', '>=', '='.
    """
    rows_le = []

    def add_le(coeffs, b):
        rows_le.append(({j: Fraction(v) for j, v in coeffs.items() if v}, Fraction(b)))

    for coeffs, sense, b in rows:
        if sense == "<=":
            add_le(coeffs, b)
        elif sense == ">=":
            add_le({j: -v for j, v in coeffs.items()}, -b)
        elif sense == "=":
            add_le(coeffs, b)
            add_le({j: -v for j, v in coeffs.items()}, -b)
        else:
            raise ValueError(f"unknown sense {sense!r}")

    tab = _FractionTableau(n_cols, rows_le)

    if tab.art_cols:
        art = set(tab.art_cols)
        tab.set_objective_max({c: -1 for c in tab.art_cols})
        pc = tab.run()
        if pc is not None:
            raise RuntimeError("phase 1 cannot be unbounded")
        if tab.obj[-1] < 0:
            return SimplexResult(status=INFEASIBLE, value=None, x=None, ray=None,
                                 pivots=tab.pivots)
        for i in range(tab.m):
            if tab.basis[i] in art:
                row = tab.rows[i]
                pivot_col = next((j for j in range(tab.width)
                                  if j not in art and row[j] != 0), None)
                if pivot_col is not None:
                    tab._pivot(i, pivot_col)

    tab.set_objective_max(objective)
    pc = tab.run(forbidden=tab.art_cols)
    if pc is not None:
        ray = tab.ray(pc)[:n_cols]
        return SimplexResult(status=UNBOUNDED, value=None, x=None, ray=ray,
                             pivots=tab.pivots)
    return SimplexResult(status=OPTIMAL, value=tab.obj[-1],
                         x=tab.solution()[:n_cols], ray=None,
                         pivots=tab.pivots)


def simplex_rows(rows) -> list:
    """(coeffs, sense, rhs) triples of ints or Fractions as the rows
    ``simplex.solve`` takes: (cols, coeffs, rhs, den, sense) in integers over
    den, the lcm of the row's denominators.  That is the scale ``solve`` took
    when it read the triples itself, and the one ``RowTable`` stores."""
    out = []
    for coeffs, sense, rhs in rows:
        den = math.lcm(Fraction(rhs).denominator,
                       *(Fraction(v).denominator for v in coeffs.values()))
        out.append((list(coeffs), [int(v * den) for v in coeffs.values()],
                    int(rhs * den), den, sense))
    return out


def fraction_rows(rows) -> list:
    """``simplex.solve``'s integer rows as the (coeffs, sense, rhs) triples of
    ``Fraction``s that ``reference_simplex_solve`` reads."""
    return [({j: Fraction(c, den) for j, c in zip(cols, coeffs)}, sense, Fraction(rhs, den))
            for cols, coeffs, rhs, den, sense in rows]


def holds_at_origin(rows) -> bool:
    """Whether x = 0 satisfies every (coeffs, sense, rhs) row."""
    return all(rhs >= 0 if sense == "<=" else rhs <= 0 if sense == ">=" else rhs == 0
               for _, sense, rhs in rows)


def moved_to_origin(rows) -> list:
    """The rows with each right-hand side moved to hold at x = 0: its
    magnitude for '<=', minus it for '>=' and 0 for '='."""
    return [(coeffs, sense, abs(rhs) if sense == "<=" else -abs(rhs) if sense == ">=" else 0)
            for coeffs, sense, rhs in rows]


# Reference reduction: the loop that rebuilt the whole graph per step and
# searched every variable against every rule per step, kept verbatim from
# ``fdg`` (``reduce`` and ``replay`` renamed ``reference_reduce`` and
# ``reference_replay``), with ``fdg``'s ``_shared_neighbourhood`` from when
# it compared sets of variables and with its ``_MODE_RULES``, which still
# tries COR5a in linear mode.  It tests the rules with its own
# ``reference_removable``, not with ``fdg``'s predicates.

_MODE_RULES = {SHANNON: (COR1, COR2), LINEAR: (COR1, COR2, COR5A, COR5B)}


def _shared_neighbourhood(fdg: Fdg, group: tuple):
    """The ``(up, down)`` of ``group`` outside itself, or None unless the
    group is non-empty, has no repeated members, holds only edge variables,
    and all members have the same parent set and the same child set."""
    members = set(group)
    if not group or len(members) != len(group):
        return None
    if not all(isinstance(v, EdgeVar) for v in group):
        return None
    first = group[0]
    if len(group) > 1:
        up, down = set(fdg.up(first)), set(fdg.down(first))
        if any(set(fdg.up(v)) != up or set(fdg.down(v)) != down for v in group[1:]):
            return None
    return (tuple(p for p in fdg.up(first) if p not in members),
            tuple(c for c in fdg.down(first) if c not in members))


def reference_removable(fdg: Fdg, group: tuple, rule: str) -> bool:
    """Whether ``rule`` permits removing the variables ``group``, written from
    the rule definitions: the members are distinct edge variables with the
    same parent set and the same child set; COR1/COR2 (COR3/COR4 on unit
    capacities) ask for no source parent and a joint capacity that covers
    the parents' capacities, summed as ``Fraction``s; COR5a/COR5b (unit
    capacities) ask for exactly one parent or one child, not a source."""
    if rule not in (COR1, COR2, COR3, COR4, COR5A, COR5B):
        raise ValueError(f"unknown rule {rule!r}")
    if rule not in (COR2, COR4) and len(group) != 1:
        return False
    if rule not in (COR1, COR2) and not all(v.cap == 1 for v in fdg.edge_vars()):
        raise UnitCapacityError(f"{rule} applies to unit-capacity graphs only")
    shared = _shared_neighbourhood(fdg, group)
    if shared is None:
        return False
    up, down = shared
    if rule in (COR5A, COR5B):
        links = up if rule == COR5A else down
        return len(links) == 1 and isinstance(links[0], EdgeVar)
    return (all(isinstance(p, EdgeVar) for p in up)
            and sum((v.cap for v in group), Fraction(0)) >= sum((p.cap for p in up), Fraction(0)))


def remove_group(fdg: Fdg, group) -> Fdg:
    group = tuple(group)
    for v in group:
        if not isinstance(v, EdgeVar):
            raise ValueError(f"{v.name} is a source variable; only edge variables are removable")
        if v not in fdg:
            raise ValueError(f"{v.name} is not in the graph")
    shared = _shared_neighbourhood(fdg, group)
    if shared is None:
        raise ValueError("group removal requires distinct variables with "
                         "identical parent and child sets")
    up, _ = shared
    members = set(group)
    new_vars = [v for v in fdg.vars if v not in members]
    new_parents = {}
    for v in new_vars:
        ps = [p for p in fdg.up(v) if p not in members]
        if len(ps) < len(fdg.up(v)):
            ps += [a for a in up if a != v and a not in ps]
        new_parents[v] = tuple(ps)
    return Fdg(new_vars, new_parents, fdg.demand_origin)


def _edge_var_depths(fdg: Fdg) -> dict:
    """Longest-path depth of each edge variable in the edge-variable subgraph,
    which stays acyclic under removals."""
    evars = fdg.edge_vars()
    depth = {}

    def visit(v, stack):
        if v in depth:
            return depth[v]
        if v in stack:
            raise ValueError("edge-variable subgraph has a cycle")
        stack.add(v)
        ps = [p for p in fdg.up(v) if isinstance(p, EdgeVar)]
        depth[v] = 0 if not ps else 1 + max(visit(p, stack) for p in ps)
        stack.discard(v)
        return depth[v]

    for v in evars:
        visit(v, set())
    return depth


def _step(fdg: Fdg, group: tuple, rule: str) -> tuple[Fdg, Step]:
    """Remove ``group`` under ``rule``: the reduced graph and its trace step.

    Raises ValueError for an unknown rule or a group the rule does not
    permit, and UnitCapacityError for a unit rule on other capacities.
    """
    if not reference_removable(fdg, group, rule):
        raise ValueError(f"{rule} does not permit removing {[v.name for v in group]}")
    up, down = _shared_neighbourhood(fdg, group)
    step = Step(rule=rule,
                removed=tuple(v.name for v in group),
                up=tuple(p.name for p in up),
                down=tuple(c.name for c in down),
                added=tuple((a.name, b.name) for a in up for b in down
                            if a != b and a not in fdg.up(b)))
    return remove_group(fdg, group), step


def _cor2_classes(fdg: Fdg):
    """Classes of more than one edge variable with identical neighbourhoods."""
    classes = {}
    for v in fdg.edge_vars():
        key = (frozenset(fdg.up(v)), frozenset(fdg.down(v)))
        classes.setdefault(key, []).append(v)
    return [tuple(c) for c in sorted(classes.values(), key=lambda c: fdg.index(c[0]))
            if len(c) > 1]


def _first_removal(fdg: Fdg, rules):
    """The first ``(group, rule)`` that a rule permits, trying the rules in
    order: COR2 on the classes, the others on single variables in
    topological-then-index order."""
    depth = _edge_var_depths(fdg)
    singles = [(v,) for v in sorted(fdg.edge_vars(), key=lambda v: (depth[v], fdg.index(v)))]
    for rule in rules:
        for group in _cor2_classes(fdg) if rule == COR2 else singles:
            if reference_removable(fdg, group, rule):
                return group, rule
    return None


def reference_reduce(fdg: Fdg, mode: str = SHANNON) -> tuple[Fdg, ReductionTrace]:
    """Reduce to a fixpoint, returning the reduced graph and its trace.

    The application order is fixed for determinism: the single-variable
    capacity rule on the first removable variable in topological-then-index
    order; failing that, the group rule on the first maximal class with
    identical neighborhoods; in linear mode the two linear rules follow.
    No claim of order independence is made, so the order is part of the
    contract.
    """
    if mode not in _MODE_RULES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == LINEAR and not fdg.unit_capacities():
        raise UnitCapacityError("linear mode requires unit capacities")

    steps = []
    cur = fdg
    while (found := _first_removal(cur, _MODE_RULES[mode])) is not None:
        cur, step = _step(cur, *found)
        steps.append(step)

    trace = ReductionTrace(steps=tuple(steps),
                           delta_v=fdg.order - cur.order,
                           delta_e=fdg.dependence_edge_count() - cur.dependence_edge_count())
    return cur, trace


def reference_replay(fdg: Fdg, trace: ReductionTrace) -> Fdg:
    """Re-apply a trace to a graph, re-deriving and checking each step.

    A step is accepted only when its ``removed`` names distinct variables of
    the current graph, its rule is known and permits removing them (unit
    rules only on unit-capacity graphs), and the ``up``, ``down`` and
    ``added`` derived from the graph equal the recorded ones.  Raises
    ReplayError at the first step that fails.
    """
    cur = fdg
    for i, step in enumerate(trace.steps):
        try:
            group = tuple(cur.var_by_name(n) for n in step.removed)
            cur, derived = _step(cur, group, step.rule)
        except (KeyError, ValueError) as exc:
            raise ReplayError(f"step {i}: {exc}") from None
        if derived != step:
            raise ReplayError(
                f"step {i}: recorded step does not match the graph "
                f"(recorded {step.to_json()}, derived {derived.to_json()})")
    return cur
