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
A monomial is a sorted tuple of indeterminate names, a name repeated once
per power.  The search compiles once per call for its field: each name
becomes its position in the search order, so an entry becomes monomials of
the same shape in the free positions, with coefficients mod p and pinned
values multiplied in.
The order is cut into blocks at the depths where some entry becomes
checkable.  The whole search is then generated as one Python function of
nested loops, one per free position.  The part of an entry fixed before its
block is evaluated once on entering the block, the rest right after each
loop that binds one of its positions, and the entries due at a block's end
are tested right after its last loop, whose values are solved from the
first of them when it is affine in that loop's position; no loop tries 0
for a factor of every monomial of a first entry that must be nonzero.  The
loops of a block that its entries do not read, just before the trailing
loops that they do, are run over a list of the passing trailing values
built once, not over the trailing loops again for each of their values.
The node and evaluation counters are defined by the plain depth-first
search that assigns one indeterminate per node.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

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


def _search_source(blocks, free: list, p: int) -> str:
    """Source of ``search()``, the whole search as nested loops.

    ``blocks`` holds (lo, hi, entries, nodes_in, evals_in) per block, where
    ``entries`` are the (terms, target) pairs due at ``hi``.  Free position
    i is the loop variable ``c{i}``.  Entering a block adds ``nodes_in`` and
    ``evals_in``, its counts as if exhausted.  Each entry is carried into
    the block as its coefficients in the block's unbound positions: one
    local per coefficient, computed at block entry from earlier positions
    and updated right after each loop that binds one of its positions.
    After the block's last loop the entries are tested in order; reaching
    entry k > 1 adds one evaluation, a failure continues the innermost loop,
    and a pass adds one node and enters the next block.

    No loop runs over values that are certain to fail the block's first
    entry.  When that entry is affine in the block's last position i,
    a*c{i} + b with a literal or runtime a, the loop is solved: it runs
    over ``R{t}[a][b]``, the values that pass (the root ((t - b) * a^-1)
    mod p for a != 0, all p values for a == 0 and b == t, none otherwise),
    and the entry is not tested.  ``R{t}`` is a local bound once per call
    to ``root_table(p, t)`` (``_root_table``) for each target t that a
    solved loop uses.  When the target is nonzero and a position i lies in
    every monomial of the entry, the entry fails wherever c{i} is 0 (p is
    prime): the block's own loop over i runs over ``range(1, p)``, and an
    i bound in an earlier block gets one ``if not c{i}: continue`` on block
    entry, after the counts are added.  Every value skipped fails the first
    entry, whose evaluations and the nodes before it are counted on entry,
    so the counters and the first hit stay those of the full loops.

    A block's loops are a head, then spectators (the run of loops before
    the tail that no entry of the block reads), then the tail (the trailing
    run of loops that the entries read).  Which tail combinations pass does
    not depend on the spectators, so the tail is searched once per head
    combination: right after the head's loops, the tail's loops and tests
    fill the list ``t{b}``, one row per passing combination, holding the
    tail's values, every coefficient local assigned in the tail (later
    blocks read them) and the evaluations counted since the row before;
    ``e{b}`` then holds those after the last row.  Under the spectator
    loops a loop over the rows adds each row's count before the next block
    and ``e{b}`` after the last row; an empty list skips the spectator
    loops, adding ``e{b}`` once per spectator combination.  The counters,
    the order of the combinations and the first hit stay those of the full
    loops.  Two kinds of block run their loops in full instead: a tail of
    one loop with one entry, which is already one root table read, and a
    tail whose loops would nest past ``_MAX_NESTED_LOOPS`` in the current
    function (the list is filled in one function).

    ``search()`` returns (free values of the hit or None, nodes, evals).  Past
    ``_MAX_NESTED_LOOPS`` loops the rest of the search moves into a nested
    function, called once per combination that reaches it.  The text is
    built from integers only.
    """
    parts = []   # [lines, indent, loops, trailers] per function, outermost first
    held = {}    # expression -> the local holding its value mod p

    def emit(line):
        lines, indent, _, _ = parts[-1]
        lines.append("    " * indent + line)

    def leave(value):
        return f"return {value}, nodes, evals" if len(parts) == 1 else f"return {value}"

    def total(terms):
        if len(terms) > _MAX_CHAINED_TERMS:
            return f"sum(({', '.join(terms)},))"
        return " + ".join(terms) or "0"

    def atom(terms):
        # A literal or a loop variable stands for itself; a sum or product
        # becomes a local.
        if len(terms) == 1 and "*" not in terms[0]:
            return terms[0]
        expr = total(terms)
        if expr not in held:
            held[expr] = f"k{len(held)}"
            emit(f"{held[expr]} = ({expr}) % {p}")
        return held[expr]

    def collect(rep, i):
        # Bind position i in {monomial: coefficient}: group by the rest.
        out = {}
        for mono, a in rep.items():
            factors = [] if a == "1" else [a]
            factors += [f"c{i}"] * mono.count(i)
            rest = tuple(j for j in mono if j != i)
            out.setdefault(rest, []).append("*".join(factors) or "1")
        return out

    tables = set()  # the targets whose root table the search reads

    def roots(rep, i, target):
        # The values of c{i} passing an entry a*c{i} + b, or None when the
        # entry is not affine in c{i}.
        if (i,) not in rep or not rep.keys() <= {(), (i,)}:
            return None
        tables.add(target)
        return f"R{target}[{rep[(i,)]}][{rep.get((), '0')}]"

    def loop(target, values):
        if parts[-1][2] == _MAX_NESTED_LOOPS:
            name = f"part{len(parts)}"
            emit(f"hit = {name}()")
            emit(f"if hit is not None: {leave('hit')}")
            parts.append([[f"def {name}():", "    nonlocal nodes, evals"], 1, 0, []])
        emit(f"for {target} in {values}:")
        parts[-1][1] += 1
        parts[-1][2] += 1

    def domain(i):
        return f"range(1, {p})" if i in nonzero else f"range({p})"

    def bind(loops, coefficients):
        # A loop per position, each bound in the coefficients as it opens.
        for i in loops:
            loop(f"c{i}", domain(i))
            coefficients = [{rest: atom(t) for rest, t in collect(rep, i).items()}
                            for rep in coefficients]
        return coefficients

    def check(loops, entries, coefficients, counter):
        # The loops, the last one solved from the first entry when it is
        # affine there, then the entries' tests at the innermost loop.
        coefficients = bind(loops[:-1], coefficients)
        solved = None
        if loops:
            if entries:
                solved = roots(coefficients[0], loops[-1], entries[0][1])
            loop(f"c{loops[-1]}", solved or domain(loops[-1]))
        fail = "continue" if parts[-1][2] else leave("None")
        for k, ((_, target), rep) in enumerate(zip(entries, coefficients)):
            if k:
                emit(f"{counter} += 1")
            elif solved:
                continue  # the loop runs only over the values that pass
            terms = collect(rep, loops[-1] if loops else None).get((), [])
            value = (terms[0] if len(terms) == 1 and "*" not in terms[0]
                     else f"({total(terms)}) % {p}")
            emit(f"if {value} != {target}: {fail}")

    parts.append([["def search():", "    nodes = evals = 0"], 1, 0, []])
    for b, (lo, hi, entries, nodes_in, evals_in) in enumerate(blocks):
        if b:
            nodes_in += 1  # the previous block's passing combination
        if nodes_in:
            emit(f"nodes += {nodes_in}")
        if evals_in:
            emit(f"evals += {evals_in}")
        nonzero = _nonzero_factors(*entries[0]) if entries else set()
        for i in sorted(nonzero):
            if i < lo:  # bound by an enclosing loop of an earlier block
                emit(f"if not c{i}: continue")
        coefficients = []  # per entry: {monomial in the block: local or literal}
        for terms, _ in entries:
            split = {}
            for mono, c in terms.items():
                outer = [f"c{i}" for i in mono if i < lo]
                inner = tuple(i for i in mono if i >= lo)
                split.setdefault(inner, []).append(
                    "*".join(outer if c == 1 and outer else [str(c)] + outer))
            coefficients.append({inner: atom(t) for inner, t in split.items()})
        # The block's loops are head + spectators + tail: the tail is the
        # trailing run the entries read, the spectators the run before it
        # that they do not read.
        loops = [i for i in free if lo <= i < hi]
        read = {i for terms, _ in entries for mono in terms for i in mono}
        t = len(loops)
        while t and loops[t - 1] in read:
            t -= 1
        s = t
        while s and loops[s - 1] not in read:
            s -= 1
        head, spectators, tail = loops[:s], loops[s:t], loops[t:]
        coefficients = bind(head, coefficients)
        if (not (spectators and tail) or len(tail) == len(entries) == 1
                or parts[-1][2] + len(tail) > _MAX_NESTED_LOOPS):
            check(spectators + tail, entries, coefficients, "evals")
            continue
        # The tail's passing rows, built once here and gone over for each
        # spectator combination.
        indent, level, start = parts[-1][1], parts[-1][2], len(held)
        emit(f"t{b} = []")
        emit(f"e{b} = 0")
        check(tail, entries, coefficients, f"e{b}")
        row = [f"c{i}" for i in tail] + list(held.values())[start:]
        emit(f"t{b}.append(({', '.join(row)}, e{b}))")
        emit(f"e{b} = 0")
        parts[-1][1:3] = indent, level
        fail = "continue" if level else leave("None")
        emit(f"if not t{b}: evals += e{b} * {p ** len(spectators)}; {fail}")
        bind(spectators, [])
        loop(", ".join(row + ["e"]), f"t{b}")
        emit("evals += e")
        # After the rows loop: the evaluations that follow the last row.
        parts[-1][3].append("    " * (parts[-1][1] - 1) + f"evals += e{b}")
    emit("nodes += 1")
    emit(leave("(" + "".join(f"c{i}, " for i in free) + ")"))

    text = []
    for lines, _, _, trailers in reversed(parts):
        lines += reversed(trailers)
        lines.append("    " + leave("None"))
        text = lines[:2] + ["    " + line for line in text] + lines[2:]
        parts.pop()
    text[1:1] = [f"    R{t} = root_table({p}, {t})" for t in sorted(tables)]
    return "\n".join(text) + "\n"


def solvability_search(M, demand, p: int, *, order=None, pinned=None,
                       field_cap: int = DEFAULT_FIELD_CAP,
                       indet_cap: int = DEFAULT_INDET_CAP) -> SearchResult:
    """Exhaustive GF(p) assignment search with early rejection.

    Enumerates value tuples in lexicographic order over ``order`` (default:
    sorted names appearing in M) and returns the first assignment making M
    match the demand pattern entrywise, or exhaustion.  An entry is checked
    as soon as the last indeterminate it mentions is assigned, which prunes
    whole subtrees.  ``pinned`` fixes chosen indeterminates to integers.

    The depths at which some entry becomes checkable cut ``order`` into
    blocks.  The whole search is compiled for this field into one function
    of nested loops, one ``for`` per free position; a pinned value is a
    constant.  Each entry's part that depends only on positions fixed
    before its block is computed once on entering the block, and the rest
    is updated right after each loop that binds one of its positions.  A
    block's entries are tested in order at its end; a combination that
    passes runs straight into the next block's loops.  A transfer-matrix
    entry is multilinear, so a block's first entry is usually affine in the
    block's last indeterminate: that loop then runs only over the values
    that pass the entry, at most one when its coefficient is nonzero, read
    from a table of roots built once per target.  When that entry must be
    nonzero and an indeterminate divides every one of its monomials, no
    loop tries the value 0 for it: its own loop skips 0, or the block is
    skipped on entry when it was assigned in an earlier block.  A block
    whose entries do not read a run of its indeterminates just before the
    trailing run that they do read searches that trailing run once for
    each assignment of the indeterminates before the unread run, into a
    list of the combinations that pass; the unread run's loops then go
    over that list.  On fano in linear mode over GF(3) the first block's
    last three loops then run once, not 9 times, for each assignment of
    the six before its two unread ones.

    The counters are those of a depth-first search that assigns one
    indeterminate per node and checks each entry at its depth.
    ``evaluations_tried`` counts the nodes it visits: the root when the
    constant entries hold, every node inside a block on the way to a
    combination tried, and every block end whose check passes.
    ``entry_evals`` counts entry evaluations, the failing one included; a
    check stops at its first failure.  Nodes inside a block and first-entry
    evaluations are counted arithmetically: a block adds its exhausted
    counts on entry, and a hit corrects them along its path.
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
        # combination ``values[lo:hi]``, and the combinations tried up to it:
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
    ends = sorted({0, n}.union(d for d in range(1, n) if due[d]))
    spans = list(zip([0] + ends, ends))
    last = [p - 1] * n
    exhausted = [counts(lo, hi, last) for lo, hi in spans]
    blocks = [(lo, hi, due[hi], inner, tried if due[hi] else 0)
              for (lo, hi), (inner, tried) in zip(spans, exhausted)]
    namespace = {"root_table": _root_table}
    exec(_search_source(blocks, free, p), namespace)
    hit, nodes, entry_evals = namespace["search"]()
    if hit is None:
        return SearchResult(status="exhausted", field=p, assignment=None,
                            evaluations_tried=nodes, entry_evals=entry_evals)

    values = [0] * n  # pinned positions are not read
    for i, value in zip(free, hit):
        values[i] = value
    for (lo, hi), (inner_all, tried_all) in zip(spans, exhausted):
        inner, tried = counts(lo, hi, values)
        nodes += inner - inner_all
        if due[hi]:
            entry_evals += tried - tried_all
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
