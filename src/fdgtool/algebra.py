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
M match the 0/1 demand pattern.

Polynomials are sparse with exact integer coefficients; reduction modulo p
happens only at evaluation time, so one symbolic matrix serves every field.
A monomial is a sorted tuple of indeterminate names, a name repeated once
per power.

``solvability_search`` enumerates assignments in lexicographic order with
early rejection, so its first hit is the lexicographically smallest.  It
cuts the order into blocks at the depths where some entry becomes
checkable, plans each block once, and compiles the plan for its field
into one Python function of nested loops (``_search_source``), whose node
and evaluation counters are those of the plain depth-first search that
assigns one indeterminate per node.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, groupby
from math import prod

from .fdg import EdgeVar, Fdg
from .netmodel import topological_sort

DEFAULT_FIELD_CAP = 7
DEFAULT_INDET_CAP = 16


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    A monomial is a sorted tuple of indeterminate names in which a name
    repeats once per power: x^2*y is ("x", "x", "y") and a constant is ().
    Zero coefficients are never kept.  Instances are immutable and hashable.
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
        return cls({(name,): 1})

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
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Poly(out)

    def indeterminates(self) -> set:
        return set().union(*self.terms)

    def rename(self, mapping: dict) -> "Poly":
        out = {}
        for mono, c in self.terms.items():
            renamed = tuple(sorted(mapping.get(n, n) for n in mono))
            out[renamed] = out.get(renamed, 0) + c
        return Poly({m: c for m, c in out.items() if c})

    def eval_mod(self, assignment: dict, p: int) -> int:
        """Evaluate over GF(p); every indeterminate must be assigned."""
        total = 0
        for mono, c in self.terms.items():
            t = c % p
            for name in mono:
                t = t * assignment[name] % p
            total = (total + t) % p
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        # Terms in the order of their (name, exponent) pairs: x*y before x^2.
        for powers, c in sorted((tuple((name, len(list(run))) for name, run in groupby(mono)), c)
                                for mono, c in self.terms.items()):
            body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers)
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
    slots = sorted((sink, s.index) for s in sources for sink in fdg.demand_origin.get(s, ()))

    zero = Poly.zero()
    names = []

    # A source's children come in ascending position, which is evars order.
    A = [[zero] * len(evars) for _ in sources]
    for si, s in enumerate(sources):
        for v in fdg.down(s):
            if isinstance(v, EdgeVar):
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
    by_index = {s.index: s for s in sources}
    for t, (sink, index) in enumerate(slots):
        for p in fdg.up(by_index[index]):
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
    order = topological_sort(range(n), [(p, v) for v in range(n) for p in parents[v]],
                             "edge adjacency has a cycle; "
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


# CPython refuses to compile a function with more statically nested loops.
_MAX_NESTED_LOOPS = 20
# A longer chain "a + b + ..." nests too deeply for CPython's compiler.
_MAX_CHAINED_TERMS = 256


def _entry_terms(entry: Poly, position: dict, fixed: dict, p: int) -> dict:
    """``entry`` over GF(p) with the pinned values ``fixed`` multiplied in.

    Maps each monomial in the free positions, its names replaced by their
    positions and sorted again, to its coefficient mod p; monomials whose
    coefficient vanishes mod p are dropped.
    """
    terms = {}
    for mono, c in entry.terms.items():
        c, free = operator.index(c), []
        for name in mono:
            i = position[name]
            if i in fixed:
                c *= fixed[i]
            else:
                free.append(i)
        key = tuple(sorted(free))
        terms[key] = (terms.get(key, 0) + c) % p
    return {mono: c for mono, c in terms.items() if c}


def _nonzero_factors(terms: dict, target: int) -> set:
    """The positions that every monomial of an entry with nonzero ``target``
    contains: over a prime field the entry can pass only where each of them
    is nonzero."""
    if not target or not terms:
        return set()
    return set.intersection(*map(set, terms))


def _root_table(p: int, t: int) -> tuple:
    """``R[a][b]``, the values of x in GF(p) with a*x + b = t: the one root
    for a != 0, every value for a = 0 and b = t, none otherwise.  The
    1-tuples are shared, so the table holds p*p pointers."""
    one = [(x,) for x in range(p)]
    every = tuple(range(p))
    table = [tuple(every if b == t else () for b in range(p))]
    for a in range(1, p):
        inverse = pow(a, -1, p)
        table.append(tuple(one[(t - b) * inverse % p] for b in range(p)))
    return tuple(table)


def _root_pair_table(p: int, t: int, u: int) -> tuple:
    """``J[a][b][c]``, the values of x in GF(p) with a*x + b = t and c*x = u:
    the row ``R[a][b]`` of ``_root_table(p, t)`` cut to the values that pass
    the second equation too."""
    return tuple(tuple(tuple(tuple(x for x in roots if c * x % p == u) for c in range(p))
                       for roots in row) for row in _root_table(p, t))


@dataclass(frozen=True)
class _Block:
    """One block of the search plan: positions ``lo``..``hi``-1 and the
    entries due at ``hi``, each a (terms, target) pair with its terms from
    ``_entry_terms``."""
    lo: int
    hi: int
    entries: list
    loops: list         # its free positions, in order
    reads: set          # the positions its entries read
    nonzero: set        # those its first entry needs nonzero that no earlier block's does
    solved: int         # how many entries its last loop is solved from: 0, 1 or 2
    nodes: int          # the nodes inside it, as if exhausted
    evals: int          # its first-entry evaluations, as if exhausted


def _solved(entries, loops) -> int:
    """How many of a block's ``entries`` its last loop x is solved from: 1
    when the first is affine in x, 2 when the second is then k*x with k
    fixed before the loop, else 0."""
    x = loops[-1] if loops else None
    powers = [{mono.count(x) for mono in terms} for terms, _ in entries[:2]]
    if not powers or 1 not in powers[0] or not powers[0] <= {0, 1}:
        return 0
    return 2 if powers[1:] == [{1}] else 1


def _search_source(plan, p: int, namespace: dict) -> str:
    """Source of ``search()``, the whole search as nested loops.

    ``plan`` holds one ``_Block`` per block.  Free position i is the loop
    variable ``c{i}``, over ``F`` = range(p) or, when it must be nonzero,
    ``F1`` = range(1, p).  The search reads these and its tables as
    globals: ``namespace`` holds the ranges and gets each table it reads,
    built once per call, and the search is run in it.  Entering a block
    adds its counts as if exhausted.  Each entry is carried into the block
    as its coefficients in the block's unbound positions: one local per
    coefficient, computed at block entry from earlier positions and updated
    right after each loop that binds one of its positions.
    After the block's last loop the entries are tested in order; reaching
    entry k > 1 adds one evaluation, a failure continues the innermost loop,
    and a pass adds one node and enters the next block.

    No loop runs over values that are certain to fail the block's first
    entry.  When that entry is affine in the block's last position i,
    a*c{i} + b with a literal or runtime a, the loop is solved: it runs
    over ``R{t}[a][b]``, the values that pass (the root ((t - b) * a^-1)
    mod p for a != 0, all p values for a == 0 and b == t, none otherwise),
    and the entry is not tested.  ``R{t}`` is ``_root_table(p, t)``, for
    each target t that a solved loop uses.  When the second entry is
    k*c{i} = u, with k fixed before the loop, the loop runs over
    ``J{t}_{u}[a][b][k]`` instead, the values that pass both entries
    (``_root_pair_table(p, t, u)``), and the second entry is not tested
    either.  Its evaluations, one per value that passes the first entry,
    are added before the loop; a hit takes back those of the values after
    it.  When the target is nonzero and a position i lies in every monomial
    of the entry, the entry fails wherever c{i} is 0 (p is prime): the
    block's own loop over i runs over ``F1``, and an i bound in an earlier
    block gets one ``if not c{i}: continue`` on block entry, after the
    counts are added, unless an earlier block's first entry needs c{i}
    nonzero too (its loop ran over ``F1``, was solved from that entry, or
    skipped 0, so the test could not fire).  Every value skipped fails the
    first entry, whose evaluations and the nodes before it are counted on
    entry, so the counters and the first hit stay those of the full loops.

    A block's loops are a head, then spectators (the run of loops before
    the tail that no entry of the block reads), then the tail (the trailing
    run of loops that the entries read).  Which tail combinations pass does
    not depend on the spectators, so the tail is searched once per head
    combination, and with it the run of later blocks that read no
    spectator (the tail's table joins them): right after the head's loops,
    the loops and tests of the tail and the joined blocks fill the list
    ``t{b}``, one row per combination that passes them all, holding their
    values and the counts from the start of the list to the row, the next
    block's entry included; ``n{b}`` and ``e{b}`` end as the list's totals.
    A local assigned while the list fills is not read after it: a later
    block computes what it reads itself.  Locals are numbered in order of
    assignment, so no name is reused and a nested function never shadows a
    local of the one around it.  Under the spectator loops a loop over the
    rows runs the next block: a hit adds its row's counts (``rn{b}``,
    ``re{b}``), and the loop's end adds the totals.  An empty list, or a
    zero that the next block's first entry cannot pass bound before the
    spectators, skips the spectator loops, adding the totals once per
    spectator combination.  The next block's
    code that reads no name the rows loop binds runs once before that
    loop, not once per row: its coefficient locals, the table read and
    count of a loop solved on block entry, and the skip on a spectator
    that its first entry needs nonzero, which adds the totals.  The
    counters, the order of the combinations and the first hit stay those
    of the full loops.  Two kinds of block run their loops in full
    instead: a tail of one loop with one entry that no later block joins,
    which is already one root table read, and a tail whose loops would
    nest past ``_MAX_NESTED_LOOPS`` in the current function (the list is
    filled in one function); a later block joins only if its loops fit.

    ``search()`` returns (free values of the hit or None, nodes, evals).  Past
    ``_MAX_NESTED_LOOPS`` loops the rest of the search moves into a nested
    function, called once per combination that reaches it.  The text is
    built from integers only.
    """
    parts = []   # [lines, loops, trailers] per function, outermost first
    held = {}    # expression -> the local holding its value
    fresh = count()  # numbers the locals
    rows = None  # (names, b, spectators) of table t{b}'s rows loop, until it opens
    opened = []  # the tables whose rows loops are open: a hit adds its row's counts

    def emit(line, hoisted=False):
        # A hoisted line reads no name that the pending rows loop binds: it
        # runs once, before that loop, which any other line opens first.
        if rows and not hoisted:
            open_rows()
        lines, loops, _ = parts[-1]
        lines.append("    " * (loops + 1) + line)

    def leave(value):
        return f"return {value}, nodes, evals" if len(parts) == 1 else f"return {value}"

    def fail():
        # Continue the innermost loop, or return when no loop is open.
        return "continue" if parts[-1][1] else leave("None")

    def total(terms):
        if len(terms) > _MAX_CHAINED_TERMS:
            return f"sum(({', '.join(terms)},))"
        return " + ".join(terms) or "0"

    def hold(expr, value, hoisted):
        if expr not in held:
            held[expr] = f"k{next(fresh)}"
            emit(f"{held[expr]} = {value}", hoisted)
        return held[expr]

    def atom(terms, hoisted=False):
        # A literal or a loop variable stands for itself; a sum or product
        # becomes a local.
        if len(terms) == 1 and "*" not in terms[0]:
            return terms[0]
        expr = total(terms)
        return hold(expr, f"({expr}) % {p}", hoisted)

    def read(expr, names):
        # A table read whose indices the pending rows loop does not bind is
        # held in a local before that loop.
        if not rows or not set(rows[0]).isdisjoint(names):
            return expr
        return hold(expr, expr, True)

    def collect(rep, i):
        # Bind position i in {monomial: coefficient}: group by the rest.
        out = {}
        for mono, a in rep.items():
            if i in mono:
                factors = [] if a == "1" else [a]
                factors += [f"c{i}"] * mono.count(i)
                out.setdefault(tuple(j for j in mono if j != i), []).append("*".join(factors))
            else:
                out.setdefault(mono, []).append(a)
        return out

    def rebind(rep, i):
        # The coefficients with position i bound; unchanged if none reads it.
        for mono in rep:
            if i in mono:
                return {rest: atom(t) for rest, t in collect(rep, i).items()}
        return rep

    def table(name, build, *targets):
        if name not in namespace:
            namespace[name] = build(p, *targets)
        return name

    def loop(target, values):
        if rows:
            open_rows()
        if parts[-1][1] == _MAX_NESTED_LOOPS:
            name = f"part{len(parts)}"
            emit(f"hit = {name}()")
            emit(f"if hit is not None: {leave('hit')}")
            parts.append([[f"def {name}():", "    nonlocal nodes, evals"], 0, []])
        emit(f"for {target} in {values}:")
        parts[-1][1] += 1

    def open_rows():
        # The loop over table t{b}'s rows; its end adds the table's totals.
        nonlocal rows
        (names, b, _), rows = rows, None
        loop(", ".join(names + [f"rn{b}", f"re{b}"]), f"t{b}")
        opened.append(b)
        parts[-1][2].append("    " * parts[-1][1] + f"nodes += n{b}; evals += e{b}")

    def bind(loops, coefficients, nonzero):
        # A loop per position, each bound in the coefficients that read it as
        # it opens.
        for i in loops:
            loop(f"c{i}", "F1" if i in nonzero else "F")
            coefficients = [rebind(rep, i) for rep in coefficients]
        return coefficients

    def check(block, loops, coefficients, counter):
        # The block's loops not bound yet, the last one solved from the
        # first entry or the first two; then the other entries' tests at the
        # innermost loop.
        coefficients = bind(loops[:-1], coefficients, block.nonzero)
        if loops:
            x = loops[-1]
            values = "F1" if x in block.nonzero else "F"
            if block.solved:
                a, b, t = coefficients[0][(x,)], coefficients[0].get((), "0"), block.entries[0][1]
            if block.solved == 2:
                k, u = coefficients[1][(x,)], block.entries[1][1]
                # The second entry is evaluated once per value that passes
                # the first: one for a != 0, all p for a = 0 and b = t, none
                # otherwise.
                count = "1"
                if not a.isdigit():
                    every = (f"{p} if {b} == {t} else 0" if not b.isdigit()
                             else p if int(b) == t else 0)
                    count = read(f"1 if {a} else {every}", (a, b))
                pair = table(f"J{t}_{u}", _root_pair_table, t, u)
                values = read(f"{pair}[{a}][{b}][{k}]", (a, b, k))
                emit(f"{counter} += {count}")
            elif block.solved:
                values = read(f"{table(f'R{t}', _root_table, t)}[{a}][{b}]", (a, b))
            loop(f"c{x}", values)
        for k, ((_, target), rep) in enumerate(zip(block.entries, coefficients)):
            if k < block.solved:
                continue  # the loop runs only over the values that pass
            if k:
                emit(f"{counter} += 1")
            terms = collect(rep, loops[-1] if loops else None).get((), [])
            value = (terms[0] if len(terms) == 1 and "*" not in terms[0]
                     else f"({total(terms)}) % {p}")
            emit(f"if {value} != {target}: {fail()}")

    def add_counts(b, nodes, evals):
        # What entering block b adds as if it is exhausted, the previous
        # block's passing combination included; past the last block, the hit.
        nodes_in, evals_in = (plan[b].nodes, plan[b].evals) if b < len(plan) else (0, 0)
        if nodes_in + (b > 0):
            emit(f"{nodes} += {nodes_in + (b > 0)}")
        if evals_in:
            emit(f"{evals} += {evals_in}")

    def zeros(b):
        # The positions bound before block b that it tests for zero.
        return [f"c{i}" for i in sorted(plan[b].nonzero) if i < plan[b].lo]

    def enter(b, counters):
        # Block b's entry: its counts unless a table's rows carry them, the
        # skip on a zero factor bound before the block, and the entries'
        # coefficients in the block's positions.  What reads no name that a
        # pending rows loop binds goes before that loop: a skip on a
        # spectator adds the table's totals there, and the table skips the
        # spectator loops for one bound before them.
        if counters:
            add_counts(b, *counters)
        zero = zeros(b)
        splits = []  # per entry: {monomial in the block: its terms}
        for terms, _ in plan[b].entries:
            split = {}
            for mono, c in terms.items():
                cut = bisect_left(mono, plan[b].lo)  # a monomial's positions are sorted
                outer = [f"c{i}" for i in mono[:cut]]
                split.setdefault(mono[cut:], []).append(
                    "*".join(outer if c == 1 and outer else [str(c)] + outer))
            splits.append(split)
        if rows:
            names, t, spectators = rows
            inside = set(names)
            if any(c in spectators for c in zero):
                emit(f"if {' or '.join(f'not {c}' for c in zero if c in spectators)}: "
                     f"nodes += n{t}; evals += e{t}; continue", True)
            zero = [c for c in zero if c in inside]
            for split in splits:
                for inner, terms in split.items():
                    if inside.isdisjoint(n for term in terms for n in term.split("*")):
                        split[inner] = [atom(terms, True)]
        for c in zero:
            emit(f"if not {c}: continue")
        return [{inner: atom(terms) for inner, terms in split.items()} for split in splits]

    parts.append([["def search():", "    nodes = evals = 0"], 0, []])
    b = 0
    while b < len(plan):
        block = plan[b]
        coefficients = enter(b, None if rows else ("nodes", "evals"))
        # The block's loops are head + spectators + tail: the tail is the
        # trailing run the entries read, the spectators the run before it
        # that they do not read.
        loops = block.loops
        t = len(loops)
        while t and loops[t - 1] in block.reads:
            t -= 1
        s = t
        while s and loops[s - 1] not in block.reads:
            s -= 1
        head, spectators, tail = loops[:s], loops[s:t], loops[t:]
        coefficients = bind(head, coefficients, block.nonzero)
        if rows and spectators and tail:
            open_rows()  # a table of this block is filled inside the last one's rows
        # The later blocks that read no spectator join the tail, as far as
        # the table's loops fit in the current function.
        depth, joined = parts[-1][1] + len(tail), []
        for later in range(b + 1, len(plan)) if spectators and tail else ():
            if (depth + len(plan[later].loops) > _MAX_NESTED_LOOPS
                    or not plan[later].reads.isdisjoint(spectators)):
                break
            depth += len(plan[later].loops)
            joined.append(later)
        if (not (spectators and tail) or depth > _MAX_NESTED_LOOPS
                or len(tail) == len(block.entries) == 1 and not joined):
            check(block, spectators + tail, coefficients, "evals")
            b += 1
            continue
        # The passing rows of the tail and the joined blocks, built once
        # here and gone over for each spectator combination.  A row holds
        # their values and the counts from the start of the build to the
        # row, the next block's entry included; n{b} and e{b} end as the
        # totals.  The locals assigned here hold the last row's values once
        # the build ends, so they leave ``held``.
        level, start = parts[-1][1], len(held)
        emit(f"t{b} = []")
        emit(f"n{b} = e{b} = 0")
        check(block, tail, coefficients, f"e{b}")
        bound = list(tail)
        for later in joined:
            check(plan[later], plan[later].loops, enter(later, (f"n{b}", f"e{b}")), f"e{b}")
            bound += plan[later].loops
        after = (joined[-1] if joined else b) + 1
        names = [f"c{i}" for i in bound]
        add_counts(after, f"n{b}", f"e{b}")
        emit(f"t{b}.append(({', '.join(names)}, n{b}, e{b}))")
        parts[-1][1] = level
        for expr in list(held)[start:]:
            del held[expr]
        # No rows, or a zero the next block's first entry cannot pass, bound
        # before the spectators: every spectator combination adds the totals.
        spread = p ** len(spectators)
        before = [c for c in zeros(after) if c not in names
                  and c not in [f"c{i}" for i in spectators]] if after < len(plan) else []
        emit(f"if {' or '.join([f'not t{b}'] + [f'not {c}' for c in before])}: "
             f"nodes += n{b} * {spread}; evals += e{b} * {spread}; {fail()}")
        bind(spectators, [], set())
        rows = (names, b, [f"c{i}" for i in spectators])
        b = after
    carried = bool(rows)  # the last table's rows carry the hit's node
    if rows:
        open_rows()
    hit_nodes = ([] if carried else ["1"]) + [f"rn{b}" for b in opened]
    emit(f"nodes += {' + '.join(hit_nodes)}")
    if opened:
        emit(f"evals += {' + '.join(f're{b}' for b in opened)}")
    emit(leave("(" + "".join(f"c{i}, " for block in plan for i in block.loops) + ")"))

    text = []
    for lines, _, trailers in reversed(parts):
        lines += reversed(trailers)
        lines.append("    " + leave("None"))
        text = lines[:2] + ["    " + line for line in text] + lines[2:]
        parts.pop()
    return "\n".join(text) + "\n"


def solvability_search(M, demand, p: int, *, order=None, pinned=None,
                       field_cap: int = DEFAULT_FIELD_CAP,
                       indet_cap: int = DEFAULT_INDET_CAP) -> SearchResult:
    """Exhaustive GF(p) assignment search with early rejection.

    Enumerates value tuples in lexicographic order over ``order`` (default:
    sorted names appearing in M) and returns the first assignment making M
    match the demand pattern entrywise, or exhaustion.  An entry is checked
    as soon as the last indeterminate it mentions is assigned, which prunes
    whole subtrees.  ``pinned`` fixes chosen indeterminates to integers in
    0..p-1.  Raises ValueError for a p that is not a prime int at most
    ``field_cap``, an ``order`` that repeats a name or misses one of M's, a
    pin of a name not in ``order`` or to anything but an int in 0..p-1, a
    demand entry that is not an int, and more than ``indet_cap`` free
    indeterminates.

    The depths at which some entry becomes checkable cut ``order`` into
    blocks, one ``_Block`` of the plan each, and ``_search_source``
    compiles the plan into the search for this field.  The counters are
    those of a depth-first search that assigns one indeterminate per node
    and checks each entry at its depth.  ``evaluations_tried`` counts the
    nodes it visits: the root when the constant entries hold, every node
    inside a block on the way to a combination tried, and every block end
    whose check passes.  ``entry_evals`` counts entry evaluations, the
    failing one included; a check stops at its first failure.  The
    compiled search counts a block's inner nodes and first-entry
    evaluations as if it is exhausted, and a hit corrects them along its
    path from the plan.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"field size {p!r} is not an integer")
    p = operator.index(p)  # a plain int: p is written into the generated source
    if p > field_cap:  # before trial division: a huge p would not return
        raise ValueError(f"field size {p} exceeds the cap {field_cap}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")

    names = set()
    for row in M:
        for entry in row:
            names |= entry.indeterminates()
    if order is None:
        order = tuple(sorted(names))
    else:
        order = tuple(order)
        seen = set()
        for name in order:
            if name in seen:
                raise ValueError(f"order lists {name!r} more than once")
            seen.add(name)
        missing = names - seen
        if missing:
            raise ValueError(f"order is missing indeterminates: {sorted(missing)}")
    position = {name: k for k, name in enumerate(order)}
    pinned = dict(pinned or {})
    for name, value in pinned.items():
        if name not in position:
            raise ValueError(f"pinned name {name!r} is not an indeterminate")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"pinned value {value!r} for {name!r} is not an integer")
        if not 0 <= value < p:
            raise ValueError(f"pinned value {value} is outside GF({p})")
        pinned[name] = operator.index(value)
    n = len(order)
    fixed = {position[name]: value for name, value in pinned.items()}
    free = [i for i in range(n) if i not in fixed]
    if len(free) > indet_cap:
        raise ValueError(
            f"{len(free)} free indeterminates exceed the exhaustive-search "
            f"cap {indet_cap}; pin some values")

    due = [[] for _ in range(n + 1)]
    for i, row in enumerate(M):
        for j, entry in enumerate(row):
            target = demand[i][j]
            if not isinstance(target, int):
                raise ValueError(f"demand entry {target!r} is not an integer")
            depth = max((position[x] + 1 for x in entry.indeterminates()), default=0)
            due[depth].append((_entry_terms(entry, position, fixed, p),
                               operator.index(target) % p))

    def counts(lo, hi, values) -> tuple[int, int]:
        # Nodes strictly inside block lo..hi-1 up to and including the
        # combination that ``values`` (by position) gives it, and the
        # combinations tried up to it:
        # at each depth, the mixed-radix index of the prefix (a pinned
        # position has radix 1) plus one.
        inner = index = 0
        for i in range(lo, hi):
            if i > lo:
                inner += index + 1
            if i not in fixed:
                index = index * p + values[i]
        return inner, index + 1

    # Block b covers positions lo..hi-1; the first block is the empty one at
    # the root, whose single (empty) combination checks the constant entries.
    # A position that an earlier block's first entry needs nonzero is
    # nonzero in every combination that reaches a block, so its ``nonzero``
    # leaves it out.
    ends = sorted({0, n}.union(d for d in range(1, n) if due[d]))
    last, proven, plan = [p - 1] * n, set(), []
    for lo, hi in zip([0] + ends, ends):
        entries, loops = due[hi], free[bisect_left(free, lo):bisect_left(free, hi)]
        nonzero = _nonzero_factors(*entries[0]) - proven if entries else set()
        proven |= nonzero
        inner, tried = counts(lo, hi, last)
        plan.append(_Block(lo, hi, entries, loops,
                           {i for terms, _ in entries for mono in terms for i in mono},
                           nonzero, _solved(entries, loops), inner, tried if entries else 0))
    namespace = {"F": range(p), "F1": range(1, p)}  # the search's globals, tables added
    exec(_search_source(plan, p, namespace), namespace)
    hit, nodes, entry_evals = namespace["search"]()
    if hit is None:
        return SearchResult(status="exhausted", field=p, assignment=None,
                            evaluations_tried=nodes, entry_evals=entry_evals)

    values = dict(zip(free, hit))  # by position; pinned positions are not read
    for block in plan:
        inner, tried = counts(block.lo, block.hi, values)
        nodes += inner - block.nodes
        entry_evals += tried - block.evals if block.entries else 0
        if block.solved == 2:
            # The loop counted the second entry's evaluations for every
            # value that passes the first: after the hit's value there are
            # p - 1 - x more when x's coefficient in the first entry is 0.
            terms, x = block.entries[0][0], block.loops[-1]
            if not sum(c * prod(values[j] for j in mono if j != x)
                       for mono, c in terms.items() if x in mono) % p:
                entry_evals -= p - 1 - values[x]
    assignment = dict(pinned)
    for i in free:
        assignment[order[i]] = values[i]
    return SearchResult(status="found", field=p, assignment=assignment,
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
