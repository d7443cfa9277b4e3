"""Symbolic scalar linear coding over a dependence graph.

Every dependence edge of a unit-capacity graph gets a fresh indeterminate
coefficient.  Collecting them into the source-to-edge matrix A, the
edge-to-edge matrix F and the edge-to-decoder matrix B yields the transfer
matrix

    M = A (I - F)^{-1} B.

F is the adjacency of an acyclic edge relation, so row s of A (I - F)^{-1},
the x with x = A_s + x F, is filled in one forward pass over the edges in
topological order.  Entry (s, t) of M is the polynomial coefficient with
which source s arrives at decode slot t; a scalar linear code over GF(p)
exists exactly when the indeterminates can be assigned field values making
M match the 0/1 demand pattern.  The search enumerates assignments in
lexicographic order with early rejection, so the first hit is the
lexicographically smallest.

Polynomials are sparse with exact integer coefficients; reduction modulo p
happens only at evaluation time, so one symbolic matrix serves every field.
The search compiles each entry once per call for its field: indeterminates
become integer positions in the search order, and an entry becomes a flat
table of (coefficient mod p, positions) terms.  The order is cut into
blocks at the depths where some entry becomes checkable; each block's value
combinations are enumerated in one loop and checked only against the
entries due at its end.  The node and evaluation counters are defined by
the plain depth-first search that assigns one indeterminate per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .fdg import EdgeVar, Fdg, topological_order

DEFAULT_FIELD_CAP = 7
DEFAULT_INDET_CAP = 16


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    Monomials are stored as sorted tuples of (indeterminate name, exponent);
    zero coefficients are never kept.  Instances are immutable and hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({(): int(c)} if c else {})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for name, e in m2:
                    d[name] = d.get(name, 0) + e
                mono = tuple(sorted(d.items()))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Poly(out)

    def indeterminates(self) -> set:
        names = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return names

    def rename(self, mapping: dict) -> "Poly":
        out = {}
        for mono, c in self.terms.items():
            renamed = tuple(sorted((mapping.get(n, n), e) for n, e in mono))
            out[renamed] = out.get(renamed, 0) + c
        return Poly({m: c for m, c in out.items() if c})

    def eval_mod(self, assignment: dict, p: int) -> int:
        """Evaluate over GF(p); every indeterminate must be assigned."""
        total = 0
        for mono, c in self.terms.items():
            t = c % p
            for name, e in mono:
                t = (t * pow(assignment[name], e, p)) % p
            total = (total + t) % p
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = []
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def ind_source(index: int, edge_id: str) -> str:
    return f"eps[Y{index}->{edge_id}]"


def ind_edge(from_id: str, to_id: str) -> str:
    return f"eps[{from_id}->{to_id}]"


def ind_decode(edge_id: str, sink: str, index: int) -> str:
    return f"eps[{edge_id}->{sink}:Y{index}]"


@dataclass(frozen=True)
class TransferSystem:
    """Symbolic coding matrices for one dependence graph.

    ``slots`` are (sink node, demanded source index) pairs, one decode column
    each; ``demand`` is the 0/1 target pattern with demand[s][t] = 1 exactly
    when slot t decodes source s.  ``indeterminates`` fixes the search order:
    A entries row-major, then F, then B.
    """
    source_indices: tuple[int, ...]
    edge_ids: tuple[str, ...]
    slots: tuple[tuple[str, int], ...]
    A: tuple
    F: tuple
    B: tuple
    demand: tuple
    indeterminates: tuple[str, ...]

    @property
    def adjacency_dim(self) -> int:
        return len(self.edge_ids)

    def indeterminate_count(self) -> int:
        return len(self.indeterminates)


def build_transfer_system(fdg: Fdg) -> TransferSystem:
    """One indeterminate per dependence edge, laid out as A, F and B.

    Works on any unit-capacity graph, reduced or not; sparsity mirrors the
    parent relation exactly.  Decode slots enumerate (sink, demanded source)
    pairs via the graph's demand provenance, in sink-name order; a slot's
    column is supported on the parents of the demanded source's variable.
    """
    if not fdg.unit_capacities():
        raise ValueError("scalar coding matrices need unit capacities; "
                         "split larger edges into parallel unit edges")

    sources = fdg.source_vars()
    evars = fdg.edge_vars()
    epos = {v: k for k, v in enumerate(evars)}

    slots = []
    for s in sources:
        for sink in sorted(fdg.demand_origin.get(s, ())):
            slots.append((sink, s.index))
    slots.sort()

    zero = Poly.zero()
    names = []

    A = [[zero] * len(evars) for _ in sources]
    for si, s in enumerate(sources):
        for v in evars:
            if s in fdg.up(v):
                name = ind_source(s.index, v.edge_id)
                names.append(name)
                A[si][epos[v]] = Poly.var(name)

    F = [[zero] * len(evars) for _ in evars]
    for v in evars:
        for p in fdg.up(v):
            if isinstance(p, EdgeVar):
                name = ind_edge(p.edge_id, v.edge_id)
                names.append(name)
                F[epos[p]][epos[v]] = Poly.var(name)

    B = [[zero] * len(slots) for _ in evars]
    for t, (sink, index) in enumerate(slots):
        svar = next(s for s in sources if s.index == index)
        for p in fdg.up(svar):
            if isinstance(p, EdgeVar):
                name = ind_decode(p.edge_id, sink, index)
                names.append(name)
                B[epos[p]][t] = Poly.var(name)

    demand = tuple(tuple(1 if s.index == index else 0 for sink, index in slots)
                   for s in sources)
    return TransferSystem(
        source_indices=tuple(s.index for s in sources),
        edge_ids=tuple(v.edge_id for v in evars),
        slots=tuple(slots),
        A=tuple(tuple(r) for r in A),
        F=tuple(tuple(r) for r in F),
        B=tuple(tuple(r) for r in B),
        demand=demand,
        indeterminates=tuple(names),
    )


def transfer_matrix(ts: TransferSystem):
    """M = A (I - F)^{-1} B, one polynomial per (source, slot).

    Row s of A (I - F)^{-1} is the x with x[v] = A[s][v] + sum of x[p] F[p][v]
    over the parents p of v, filled in topological order; M[s][t] is then
    the sum of x[p] B[p][t].
    """
    n = ts.adjacency_dim
    parents = [[p for p in range(n) if ts.F[p][v]] for v in range(n)]
    feeds = [[p for p in range(n) if ts.B[p][t]] for t in range(len(ts.slots))]
    order = topological_order(parents, "edge adjacency has a cycle; "
                                       "(I - F)^{-1} is not a polynomial matrix")
    rows = []
    for a_row in ts.A:
        x = list(a_row)
        for v in order:
            x[v] = sum((x[p] * ts.F[p][v] for p in parents[v] if x[p]), x[v])
        rows.append(tuple(sum((x[p] * ts.B[p][t] for p in feeds[t] if x[p]), Poly.zero())
                          for t in range(len(ts.slots))))
    return tuple(rows)


def render_matrix(M) -> str:
    return "\n".join("[" + ", ".join(entry.render() for entry in row) + "]"
                     for row in M)


@dataclass(frozen=True)
class SearchResult:
    status: str                 # 'found' | 'exhausted'
    field: int
    assignment: dict | None
    evaluations_tried: int      # nodes visited in the pruned search tree
    entry_evals: int


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _term_table(entry: Poly, position: dict, p: int) -> list:
    """``entry`` over GF(p) as (coefficient mod p, positions) per monomial.

    A position repeats once per power; monomials whose coefficient vanishes
    mod p are dropped.
    """
    return [(c % p, tuple(position[name] for name, e in mono for _ in range(e)))
            for mono, c in entry.terms.items() if c % p]


def _compile_check(due: list, p: int, lo: int):
    """One function checking the (term table, target) pairs ``due`` in order.

    ``check(v, c)`` reads position i from ``c[i - lo]`` when i >= lo and from
    ``v[i]`` otherwise.  It returns the 1-based index of the first entry
    whose value mod p misses its target, or 0 when all match.  The source
    text is built from integers only.
    """
    lines = ["def check(v, c):"]
    for k, (table, target) in enumerate(due, 1):
        terms = []
        for c, positions in table:
            factors = [f"c[{i - lo}]" if i >= lo else f"v[{i}]" for i in positions]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            terms.append("*".join(factors))
        lines.append(f"    if ({' + '.join(terms) or '0'}) % {p} != {target}: return {k}")
    lines.append("    return 0")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["check"]


def solvability_search(M, demand, p: int, *, order=None, pinned=None,
                       field_cap: int = DEFAULT_FIELD_CAP,
                       indet_cap: int = DEFAULT_INDET_CAP) -> SearchResult:
    """Exhaustive GF(p) assignment search with early rejection.

    Enumerates value tuples in lexicographic order over ``order`` (default:
    sorted names appearing in M) and returns the first assignment making M
    match the demand pattern entrywise, or exhaustion.  An entry is checked
    as soon as the last indeterminate it mentions is assigned, which prunes
    whole subtrees.  ``pinned`` fixes chosen indeterminates to constants.

    The depths at which some entry becomes checkable cut ``order`` into
    blocks.  Each block's value combinations are enumerated with
    ``itertools.product`` (a pinned position has one choice) and checked
    against the entries due at the block's end, compiled for this field;
    a combination that passes recurses into the next block.

    The counters are those of a depth-first search that assigns one
    indeterminate per node and checks each entry at its depth.
    ``evaluations_tried`` counts the nodes it visits: the root when the
    constant entries hold, every node inside a block on the way to a
    combination tried (counted arithmetically), and every block end whose
    check passes.  ``entry_evals`` counts entry evaluations, the failing
    one included; a check stops at its first failure.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > field_cap:
        raise ValueError(f"field size {p} exceeds the cap {field_cap}")

    names = set()
    for row in M:
        for entry in row:
            names |= entry.indeterminates()
    if order is None:
        order = tuple(sorted(names))
    else:
        order = tuple(order)
        missing = names - set(order)
        if missing:
            raise ValueError(f"order is missing indeterminates: {sorted(missing)}")
    pinned = dict(pinned or {})
    for name, value in pinned.items():
        if name not in order:
            raise ValueError(f"pinned name {name!r} is not an indeterminate")
        if not 0 <= value < p:
            raise ValueError(f"pinned value {value} is outside GF({p})")
    free = [n for n in order if n not in pinned]
    if len(free) > indet_cap:
        raise ValueError(
            f"{len(free)} free indeterminates exceed the exhaustive-search "
            f"cap {indet_cap}; pin some values")

    n = len(order)
    position = {name: k for k, name in enumerate(order)}
    due = [[] for _ in range(n + 1)]
    for i, row in enumerate(M):
        for j, entry in enumerate(row):
            depth = max((position[x] + 1 for x in entry.indeterminates()), default=0)
            due[depth].append((_term_table(entry, position, p), demand[i][j] % p))

    choices = [(pinned[name],) if name in pinned else range(p) for name in order]

    def inner_nodes(lo, combo) -> int:
        # Nodes strictly inside the block up to and including ``combo``: at
        # each inner depth, the mixed-radix index of combo's prefix plus one.
        total = index = 0
        for options, value in zip(choices[lo:], combo[:-1]):
            index = index * len(options) + options.index(value)
            total += index + 1
        return total

    # Block b covers positions lo..hi-1; the first block is the empty one at
    # the root, whose single (empty) combination checks the constant entries.
    # An exhausted block has passed through every inner node, as many as up
    # to its last combination.
    ends = sorted({0, n}.union(d for d in range(1, n) if due[d]))
    blocks = [(lo, hi, _compile_check(due[hi], p, lo), len(due[hi]),
               inner_nodes(lo, tuple(options[-1] for options in choices[lo:hi])))
              for lo, hi in zip([0] + ends, ends)]

    values = [0] * n
    nodes = entry_evals = 0

    def search(b) -> bool:
        nonlocal nodes, entry_evals
        lo, hi, check, cost, all_inner = blocks[b]
        last = b + 1 == len(blocks)
        passed = evals = 0
        for combo in product(*choices[lo:hi]):
            failed = check(values, combo)
            if failed:
                evals += failed
                continue
            values[lo:hi] = combo
            evals += cost
            passed += 1
            if last or search(b + 1):
                nodes += passed + inner_nodes(lo, combo)
                entry_evals += evals
                return True
        nodes += passed + all_inner
        entry_evals += evals
        return False

    if search(0):
        assignment = dict(pinned)
        for name in order:
            if name not in pinned:
                assignment[name] = values[position[name]]
        return SearchResult(status="found", field=p, assignment=assignment,
                            evaluations_tried=nodes, entry_evals=entry_evals)
    return SearchResult(status="exhausted", field=p, assignment=None,
                        evaluations_tried=nodes, entry_evals=entry_evals)


@dataclass(frozen=True)
class ReductionStats:
    original_indeterminates: int
    reduced_indeterminates: int
    var_reduction_pct: int
    original_adjacency: int
    reduced_adjacency: int
    complexity_reduction_pct: int
    complexity_convention: str


def reduction_stats(original: TransferSystem, reduced: TransferSystem) -> ReductionStats:
    """Size comparison of two formulations of the same network.

    The variable reduction is 1 - reduced/original indeterminates; the
    complexity percentage uses the squared ratio of the adjacency
    dimensions, reflecting the quadratic growth of the matrix work.
    """
    no, nr = original.indeterminate_count(), reduced.indeterminate_count()
    ao, ar = original.adjacency_dim, reduced.adjacency_dim
    var_pct = round(100 * (1 - Fraction(nr, no))) if no else 0
    cx_pct = round(100 * (1 - Fraction(ar * ar, ao * ao))) if ao else 0
    return ReductionStats(
        original_indeterminates=no,
        reduced_indeterminates=nr,
        var_reduction_pct=var_pct,
        original_adjacency=ao,
        reduced_adjacency=ar,
        complexity_reduction_pct=cx_pct,
        complexity_convention="squared adjacency dimension ratio",
    )
