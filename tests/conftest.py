"""Shared test helpers: fixture loading, a random-network generator, and the
independent oracles (the paper's finite series for A (I - F)^{-1} B,
symbolic forward propagation, LP-text re-import into scipy) used to
cross-check the library's own computation paths."""

import random
from fractions import Fraction

import pytest

from fdgtool import netmodel
from fdgtool.algebra import Poly, TransferSystem, ind_decode, ind_edge, ind_source

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
}


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
