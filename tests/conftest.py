"""Shared test helpers: fixture loading, a random-network generator, and the
independent oracles (the paper's finite series for A (I - F)^{-1} B,
symbolic forward propagation, LP-text re-import into scipy, the Fraction
LP layers) used to cross-check the library's own computation paths."""

import random
from fractions import Fraction

import pytest

from fdgtool import netmodel
from fdgtool.algebra import Poly, TransferSystem, ind_decode, ind_edge, ind_source
from fdgtool.lpbound import DEFAULT_GENERATION_CAP, ELEMENTAL1, ELEMENTAL2, LpProblem, Row

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


# Reference LP layers: the Fraction code that the integer row checks, the
# integer dual check, the direct elemental rows and the integer export
# replaced in ``lpbound``, kept verbatim (with ``_ray_violates``, the exact
# fallback's old ray test).

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
    """The arguments ``_float_solve`` handed to ``linprog`` when it built
    them through ``float(Fraction)`` per number: (c, keyword arguments)."""
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
