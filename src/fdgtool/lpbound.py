"""Entropy-space linear programming outer bound.

For a dependence graph of order N the LP lives in the 2^N - 1 coordinates
h(A), one per nonempty subset A of the variables (the empty set is pinned to
zero and never gets a column).  Columns are indexed by the subset bitmask
over the frozen variable order.  The constraint families are tagged:

* ``ELEMENTAL1`` / ``ELEMENTAL2``: the minimal complete family of
  entropy inequalities, N conditional-entropy rows plus
  C(N,2) * 2^(N-2) conditional-mutual-information rows.
* ``INDEP``: joint source entropy splits into the sum of source entropies.
* ``ENCODE``: each edge variable is determined by its parents.
* ``DECODE``: each demanded source is determined by its parents.
* ``CAPACITY``: the entropy on an edge never exceeds its capacity.

The objective maximizes the weighted sum of single-source entropies, whose
optimum upper-bounds the corresponding weighted rate sum.

``lp_stats`` counts the rows a problem holds; ``graph_lp_stats`` gives the
same counts from the graph alone, in closed form, so ``lp --stats`` never
generates the rows it only counts (unreduced fano's LP has about 1.1e8).
The tests hold the two equal.  The solver is exact: a dense rational
simplex is driven through lazy row generation (the full elemental family is
enormous, but optima are supported on few of them), and every returned
witness is re-checked against every row of the full problem afterwards.

A problem holds its rows once, in one integer table (``RowTable``): each
row times its scale, the lcm of its own denominators, flat as in a CSR
matrix.  ``build_lp`` writes the elemental rows straight into the table's
lists and adds the other rows one by one; ``problem.rows`` reads it as a
sequence of ``Row``s of ``Fraction``s, each built when asked for, and
every stage of the solve and the export reads the integers directly.  The
exact checks scale a point (witness or ray) once to the common denominator
of its values and compare it with those rows in integers.  The elemental
rows, nearly all of the rows, have coefficients +-1, so their scale is 1.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import comb, gcd, lcm
from typing import NamedTuple

from . import simplex
from .fdg import Fdg
from .netmodel import Weights, fraction_text

ELEMENTAL1 = "ELEMENTAL1"
ELEMENTAL2 = "ELEMENTAL2"
INDEP = "INDEP"
ENCODE = "ENCODE"
DECODE = "DECODE"
CAPACITY = "CAPACITY"

TAG_ORDER = (ELEMENTAL1, ELEMENTAL2, INDEP, ENCODE, DECODE, CAPACITY)

DEFAULT_GENERATION_CAP = 24
DEFAULT_SOLVE_CAP = 16
# ``lp --export`` refuses an LP with more rows, counted before any is built:
# about 0.5 KB of memory each.  N=15 (about 860k rows) is the largest order under it.
EXPORT_ROW_CAP = 10 ** 6
MAX_N_ENV = "FDGTOOL_MAX_N"
# Denominator limits tried, in order, when snapping float solutions to rationals.
ROUNDING_LIMITS = (10 ** 4, 10 ** 8)

_ZERO = Fraction(0)


class Row(NamedTuple):
    name: str
    tag: str
    coeffs: tuple  # ((mask, Fraction), ...) sorted by mask, zero-free
    sense: str     # '<=' | '>=' | '='
    rhs: Fraction


class RowTable(Sequence):
    """LP rows, each times its scale, flat as in a CSR matrix: no object per
    row for the garbage collector to track.  Row i is ``names[i]``,
    ``tags[i]``, ``senses[i]``, ``scales[i]``, the integer ``rhs[i]`` and the
    integer entries ``masks[a:b]``, ``coeffs[a:b]`` at ``a, b = starts[i:i + 2]``.
    As a sequence it gives row i as a ``Row`` of ``Fraction``s, built on demand."""

    def __init__(self, rows=()):
        self.names, self.tags, self.senses, self.scales, self.rhs = [], [], [], [], []
        self.starts, self.masks, self.coeffs = [0], [], []
        for row in rows:
            self.add(*row)

    def add(self, name: str, tag: str, terms, sense: str, rhs=0) -> None:
        """Append the row ``terms`` (``sense``) ``rhs``; ``terms`` is a sorted
        sequence of (mask, int or Fraction) pairs, scaled here to integers."""
        scale = lcm(rhs.denominator, *[c.denominator for _, c in terms])
        self.names.append(name)
        self.tags.append(tag)
        self.senses.append(sense)
        self.scales.append(scale)
        self.rhs.append(rhs.numerator * (scale // rhs.denominator))
        self.masks += [mask for mask, _ in terms]
        self.coeffs += [c.numerator * (scale // c.denominator) for _, c in terms]
        self.starts.append(len(self.masks))

    def integer_row(self, i: int):
        """Row i as (masks, coeffs, rhs, scale, sense), in integers."""
        a, b = self.starts[i], self.starts[i + 1]
        return self.masks[a:b], self.coeffs[a:b], self.rhs[i], self.scales[i], self.senses[i]

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i):
        at = range(len(self.names))[i]
        if isinstance(at, range):
            return [self[j] for j in at]
        masks, coeffs, rhs, scale, sense = self.integer_row(at)
        return Row(self.names[at], self.tags[at],
                   tuple((mask, Fraction(c, scale)) for mask, c in zip(masks, coeffs)),
                   sense, Fraction(rhs, scale))

    def __eq__(self, other) -> bool:
        return isinstance(other, RowTable) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, vars(self).values())))


@dataclass(frozen=True)
class LpProblem:
    """An entropy LP.  ``rows`` may be given as any sequence of ``Row``s; it
    is held, and read back, as a ``RowTable``."""

    n_vars: int
    var_names: tuple[str, ...]
    source_masks: tuple[tuple[int, int], ...]  # (source index, column mask)
    objective: tuple  # ((mask, Fraction), ...)
    rows: RowTable

    def __post_init__(self):
        if not isinstance(self.rows, RowTable):
            object.__setattr__(self, "rows", RowTable(self.rows))

    @property
    def dimension(self) -> int:
        return (1 << self.n_vars) - 1


@dataclass(frozen=True)
class LpStats:
    dimension: int
    counts: dict
    total: int


@dataclass(frozen=True)
class LpSolution:
    status: str                # 'optimal' | 'unbounded' | 'infeasible'
    value: Fraction | None
    witness: dict | None       # sparse: column mask -> Fraction, zeros omitted
    source_masks: tuple = ()
    method: str = "exact"      # 'certificate' (rounded float solve) | 'exact' (simplex)
    rounds: int = 0            # exact path: simplex solves over the growing working set
    pivots: int = 0            # exact path: simplex pivots over those solves

    def rate(self, index: int) -> Fraction:
        """The witness entropy of a single source, read as its rate bound."""
        if self.witness is None:
            raise ValueError(f"no witness on a {self.status} solution")
        for k, mask in self.source_masks:
            if k == index:
                return self.witness.get(mask, Fraction(0))
        raise KeyError(f"unknown source index {index}")


def _coeff_row(terms: dict) -> tuple:
    return tuple(sorted((m, c) for m, c in terms.items() if c != 0))


def _submasks_ascending(mask: int):
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


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


def elemental_inequalities(n: int, cap: int = DEFAULT_GENERATION_CAP) -> list[Row]:
    """All elemental entropy inequalities for n variables, in canonical order.

    Type-1 rows come first, one per variable; type-2 rows follow with the
    variable pairs in lexicographic order and the conditioning subset in
    ascending bitmask order.  Refuses n above the generation cap: reduce the
    graph first instead of generating astronomically many rows.
    """
    _check_generation_cap(n, cap)
    return list(_elemental_table(n))


def _elemental_table(n: int) -> RowTable:
    """A table of the elemental rows for n variables, in canonical order.

    Their coefficients are +-1 and their scale is 1, so the table's lists
    are written directly, a pair of variables at a time, not through
    ``RowTable.add``."""
    rows, full = RowTable(), (1 << n) - 1
    masks, coeffs, starts = rows.masks, rows.coeffs, rows.starts
    for i in range(n):
        rest = full & ~(1 << i)
        masks += (rest, full) if rest else (full,)
        coeffs += (-1, 1) if rest else (1,)
        starts.append(len(masks))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = 1 << i, 1 << j
            ab = a | b
            # The first c is 0, the one row with three terms.  Every later c
            # misses bits i < j, so c < a|c < b|c < a|b|c: the four masks are
            # distinct and already sorted.
            subsets = _submasks_ascending(full & ~ab)
            next(subsets)
            at = len(masks)
            masks += (a, b, ab)
            masks += [m for c in subsets for m in (c, a | c, b | c, ab | c)]
            coeffs += (1, 1, -1)
            coeffs += (-1, 1, 1, -1) * ((1 << (n - 2)) - 1)
            starts += range(at + 3, len(masks) + 1, 4)
    total = len(starts) - 1
    rows.names += [f"elem1_{i + 1}" for i in range(n)]
    rows.names += [f"elem2_{k}" for k in range(1, total - n + 1)]
    rows.tags += [ELEMENTAL1] * n + [ELEMENTAL2] * (total - n)
    rows.senses += [">="] * total
    rows.scales += [1] * total
    rows.rhs += [0] * total
    return rows


def build_lp(fdg: Fdg, weights: Weights, cap: int = DEFAULT_GENERATION_CAP) -> LpProblem:
    """Assemble the full LP for a dependence graph and objective weights."""
    _check_buildable(fdg, cap)
    n = fdg.order
    index = {v: i for i, v in enumerate(fdg.vars)}

    def mask_of(vs) -> int:
        m = 0
        for v in vs:
            m |= 1 << index[v]
        return m

    rows = _elemental_table(n)

    svars = fdg.source_vars()
    terms = {mask_of(svars): 1}
    for s in svars:
        m = mask_of([s])
        terms[m] = terms.get(m, 0) - 1
    rows.add("indep", INDEP, _coeff_row(terms), "=")

    for v in fdg.edge_vars():
        p = mask_of(fdg.up(v))
        rows.add(f"enc_{v.edge_id}", ENCODE, ((p, -1), (p | mask_of([v]), 1)), "=")

    for s in svars:
        parents = fdg.up(s)
        if not parents:
            continue
        p = mask_of(parents)
        me = mask_of([s])
        if me & p:
            continue
        rows.add(f"dec_{s.index}", DECODE, ((p, -1), (p | me, 1)), "=")

    for v in fdg.edge_vars():
        rows.add(f"cap_{v.edge_id}", CAPACITY, ((mask_of([v]), 1),), "<=", v.cap)

    objective = {}
    for s in svars:
        w = weights.get(s.index)
        if w:
            objective[mask_of([s])] = w

    return LpProblem(
        n_vars=n,
        var_names=tuple(v.name for v in fdg.vars),
        source_masks=tuple((s.index, mask_of([s])) for s in svars),
        objective=_coeff_row(objective),
        rows=rows,
    )


def lp_stats(problem: LpProblem) -> LpStats:
    counts = {tag: problem.rows.tags.count(tag) for tag in TAG_ORDER}
    return LpStats(dimension=problem.dimension, counts=counts,
                   total=len(problem.rows))


def graph_lp_stats(fdg: Fdg) -> LpStats:
    """``lp_stats(build_lp(fdg, weights))`` for any weights, counted from
    the graph without generating a row; refuses what ``build_lp`` refuses,
    with the same message."""
    _check_buildable(fdg, DEFAULT_GENERATION_CAP)
    n = fdg.order
    n_edges = len(fdg.edge_vars())
    decoded = sum(1 for s in fdg.source_vars() if fdg.up(s))
    counts = {ELEMENTAL1: n, ELEMENTAL2: comb(n, 2) << (n - 2) if n > 1 else 0,
              INDEP: 1, ENCODE: n_edges, DECODE: decoded, CAPACITY: n_edges}
    return LpStats(dimension=(1 << n) - 1, counts=counts, total=sum(counts.values()))


def _eval_row(coeffs, witness) -> Fraction:
    total = Fraction(0)
    for mask, c in coeffs:
        w = witness.get(mask)
        if w:
            total += c * w
    return total


def _violated_rows(problem: LpProblem, point: dict, ray: bool = False) -> list[int]:
    """Indices of the rows ``point`` violates, in row order, checked in integers.

    ``point`` maps column masks to rationals.  It is scaled once to the common
    denominator ``den`` of its values, so it meets each integer row in
    integers.  With ``ray`` the point is a direction, checked against the
    homogeneous rows (right-hand side 0).
    """
    den = lcm(*[x.denominator for x in point.values()])
    scaled = {mask: x.numerator * (den // x.denominator) for mask, x in point.items()}
    rows, get = problem.rows, scaled.get
    products = [c * get(mask, 0) for mask, c in zip(rows.masks, rows.coeffs)]
    bad = []
    for i, (a, b, rhs, sense) in enumerate(zip(rows.starts, rows.starts[1:], rows.rhs,
                                                rows.senses)):
        total = sum(products[a:b])
        bound = 0 if ray else rhs * den
        if sense == ">=":
            ok = total >= bound
        elif sense == "<=":
            ok = total <= bound
        else:
            ok = total == bound
        if not ok:
            bad.append(i)
    return bad


def verify_witness(problem: LpProblem, witness: dict) -> list[str]:
    """Exactly re-check a candidate point against every row; [] means feasible."""
    return [problem.rows.names[i] for i in _violated_rows(problem, witness)]


def solve_cap() -> int:
    env = os.environ.get(MAX_N_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_SOLVE_CAP


def check_solve_cap(n_vars: int, max_n: int) -> None:
    """Refuse, with ValueError, an in-process solve of N = ``n_vars`` above ``max_n``."""
    if n_vars > max_n:
        raise ValueError(
            f"problem has N={n_vars} variables, above the in-process "
            f"solve cap {max_n}; reduce the graph or use the LP export with "
            f"an external solver (override with {MAX_N_ENV})")


def lp_solve(problem: LpProblem, max_n: int | None = None) -> LpSolution:
    """Exact rational optimum of the LP, with a verified witness.

    Two cooperating engines, both ending in the same exact verification:

    1. certificate path: solve in floating point (scipy, when available),
       round the primal and dual vectors back to small rationals, and check
       exactly that the witness satisfies every row and that the dual is
       feasible with matching objective.  Weak duality then pins the
       optimum; no conclusion rests on floats.
    2. fallback path: exact simplex over a lazily grown working set of rows
       (the complete elemental family is huge, but optima are supported on
       few of its members), iterating until the exact witness or improving
       ray violates nothing.  The solution's ``rounds`` and ``pivots`` count
       its simplex solves and their pivots.

    Either way the returned witness is re-verified against every row of the
    full problem.
    """
    check_solve_cap(problem.n_vars, solve_cap() if max_n is None else max_n)

    certified = _certified_from_float(problem, _float_solve(problem))
    if certified is not None:
        return certified

    n_cols = problem.dimension
    rows = problem.rows
    seed = [i for i, (tag, a, b) in enumerate(zip(rows.tags, rows.starts, rows.starts[1:]))
            if tag != ELEMENTAL2 or b - a == 3]
    objective = {mask - 1: c for mask, c in problem.objective}
    aux = _bounding_helpers(problem)

    def triple(i):
        masks, coeffs, rhs, scale, sense = rows.integer_row(i)
        return ({m - 1: Fraction(c, scale) for m, c in zip(masks, coeffs)},
                sense, Fraction(rhs, scale))

    working = {i: triple(i) for i in seed}  # row index -> simplex row, in order
    rounds = pivots = 0
    while True:
        # The full elemental family implies h(A) >= 0 for every subset, so
        # solving the relaxation inside the nonnegative cone never cuts a
        # point that is feasible for the complete problem.
        res = simplex.solve(n_cols, objective, [*working.values(), *aux])
        rounds += 1
        pivots += res.pivots
        cost = {"source_masks": problem.source_masks, "method": "exact",
                "rounds": rounds, "pivots": pivots}

        if res.status == simplex.OPTIMAL:
            witness = {j + 1: x for j, x in enumerate(res.x) if x}
            # One scan of every row: it finds the rows to add and, once none
            # is left outside the working set, re-verifies the witness.
            bad = _violated_rows(problem, witness)
            violated = [i for i in bad if i not in working]
            if not violated:
                if bad:
                    names = [rows.names[i] for i in bad[:5]]
                    raise RuntimeError(f"internal error: witness fails rows {names}")
                value = _eval_row(problem.objective, witness)
                if value != res.value:
                    raise RuntimeError("internal error: objective mismatch")
                return LpSolution(status="optimal", value=res.value, witness=witness,
                                  **cost)
        elif res.status == simplex.UNBOUNDED:
            ray = {j + 1: x for j, x in enumerate(res.ray) if x}
            violated = [i for i in _violated_rows(problem, ray, ray=True)
                        if i not in working]
            if not violated:
                return LpSolution(status="unbounded", value=None, witness=None, **cost)
        else:
            return LpSolution(status="infeasible", value=None, witness=None, **cost)

        working.update((i, triple(i)) for i in violated)


def _float_solve(problem: LpProblem):
    """Floating-point solve of the full problem (scipy), or None.

    Returns (result, ub_idx, eq_idx) where the index lists map scipy's
    inequality/equality row positions back to problem row indices.  Rows
    with sense '>=' are negated to '<=' on the way in.  Each number enters
    as an int division (a row's integer over its scale), which is exactly
    ``float`` of it.  None also when scipy is missing or a number does not
    fit a float: this solve only suggests a certificate, and the exact path
    answers without it.
    """
    try:  # scipy first: a run without scipy then never loads numpy
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None

    rows = problem.rows
    n = problem.dimension
    c = np.zeros(n)
    lengths = np.diff(rows.starts)
    try:
        for mask, w in problem.objective:
            c[mask - 1] = -(w.numerator / w.denominator)
        scale_of_entry = chain.from_iterable(map(repeat, rows.scales, lengths.tolist()))
        data = np.array([x / s for x, s in zip(rows.coeffs, scale_of_entry)])
        b = np.array([x / s for x, s in zip(rows.rhs, rows.scales)])
    except OverflowError:
        return None
    flip = np.array([-1.0 if sense == ">=" else 1.0 for sense in rows.senses])
    data *= np.repeat(flip, lengths)
    b *= flip
    A = csr_matrix((data, np.array(rows.masks, dtype=np.int64) - 1, rows.starts),
                   shape=(len(b), n))
    ub_idx = [i for i, sense in enumerate(rows.senses) if sense != "="]
    eq_idx = [i for i, sense in enumerate(rows.senses) if sense == "="]
    try:
        res = linprog(c, A_ub=A[ub_idx] if ub_idx else None, b_ub=b[ub_idx].tolist() or None,
                      A_eq=A[eq_idx] if eq_idx else None, b_eq=b[eq_idx].tolist() or None,
                      bounds=(0, None), method="highs")
    except ValueError:  # pragma: no cover - defensive
        return None
    return res, ub_idx, eq_idx


def _round_vector(values, limit: int) -> list:
    """Snap floats to rationals with denominator at most ``limit``.

    An integral float becomes its integer, which is what
    ``limit_denominator`` would return for it, without the search.
    """
    return [Fraction(int(x)) if x.is_integer() else Fraction(x).limit_denominator(limit)
            for x in values]


def _certified_from_float(problem: LpProblem, solved) -> LpSolution | None:
    """Exact optimum via rounded float certificates, or None.

    ``solved`` is the result of ``_float_solve``.  The float solution only
    *suggests* a primal point and a dual vector; both are snapped to
    rationals and checked exactly.  When the witness satisfies every row,
    the dual is feasible with nonnegative multipliers on inequalities, and
    the two exact objectives coincide, weak duality certifies optimality
    outright.  Any failure falls back to the exact
    simplex path, so this routine can only accelerate, never corrupt.
    Each (witness limit, dual limit) pair is tried in ``ROUNDING_LIMITS``
    order; a dual is rounded only when it is first needed.
    """
    if solved is None:
        return None
    res, ub_idx, eq_idx = solved
    if not res.success:
        return None

    duals = {}

    def dual(limit):
        # Rounding never carries a value across zero, so clamping the float
        # multipliers at zero gives the same u >= 0 as clamping rounded ones.
        if limit not in duals:
            u = _round_vector((-res.ineqlin.marginals).clip(0.0).tolist(), limit) \
                if ub_idx else []
            v = _round_vector((-res.eqlin.marginals).tolist(), limit) if eq_idx else []
            duals[limit] = (u, v)
        return duals[limit]

    x = res.x.tolist()
    for limit in ROUNDING_LIMITS:
        witness = {j + 1: q for j, q in enumerate(_round_vector(x, limit)) if q}
        if verify_witness(problem, witness):
            continue
        value = _eval_row(problem.objective, witness)
        for dual_limit in ROUNDING_LIMITS:
            u, v = dual(dual_limit)
            if _dual_certifies(problem, ub_idx, eq_idx, u, v, value):
                return LpSolution(status="optimal", value=value, witness=witness,
                                  source_masks=problem.source_masks,
                                  method="certificate")
    return None


def _dual_certifies(problem, ub_idx, eq_idx, u, v, value) -> bool:
    """Exact weak-duality check: u >= 0 was ensured by the caller; verify
    dual feasibility and that the dual objective equals ``value``.

    In integers: the multiplier ``q`` of an integer row with scale ``s``
    stands for ``q / s``, and over the common denominator ``den`` of those,
    every column sum and the dual objective are integers.
    """
    support = [(q, problem.rows.integer_row(i))
               for q, i in [*zip(u, ub_idx), *zip(v, eq_idx)] if q]
    den = lcm(*[q.denominator * scale for q, (_, _, _, scale, _) in support])
    column_sums = {}
    dual_value = 0
    for q, (masks, coeffs, rhs, scale, sense) in support:
        y = q.numerator * (den // (q.denominator * scale))
        if sense == ">=":  # negated to '<=' for the float solve
            y = -y
        for mask, c in zip(masks, coeffs):
            column_sums[mask] = column_sums.get(mask, 0) + y * c
        dual_value += y * rhs
    if dual_value * value.denominator != value.numerator * den:
        return False
    objective = dict(problem.objective)
    for mask in set(column_sums) | set(objective):
        w = objective.get(mask, _ZERO)
        if column_sums.get(mask, 0) * w.denominator < w.numerator * den:
            return False
    return True


def _bounding_helpers(problem: LpProblem) -> list:
    """Shannon-implied rows that keep early relaxations bounded.

    For each weighted source with a decode row the chain
    h(Y) <= h(Y u P) = h(P) <= sum over v in P of h(v) ties the objective to
    the capacity rows.  Monotonicity and subadditivity are consequences of
    the full elemental family, so adding them to a relaxation never cuts a
    feasible point of the complete problem; they are working-set helpers
    only and never appear in the problem's rows or statistics.
    """
    rows, decode = problem.rows, {}
    for i in (i for i, tag in enumerate(rows.tags) if tag == DECODE):
        masks, coeffs, *_ = rows.integer_row(i)
        pos = next(m for m, c in zip(masks, coeffs) if c > 0)
        neg = next(m for m, c in zip(masks, coeffs) if c < 0)
        decode[pos & ~neg] = (pos, neg)
    helpers = []
    objective_masks = {m for m, _ in problem.objective}
    for ms in objective_masks:
        if ms not in decode:
            continue
        joint, parents = decode[ms]
        helpers.append(({ms - 1: Fraction(1), joint - 1: Fraction(-1)}, "<=", Fraction(0)))
        terms = {parents - 1: Fraction(1)}
        rest = parents
        while rest:
            low = rest & -rest
            terms[low - 1] = terms.get(low - 1, Fraction(0)) - 1
            rest &= rest - 1
        if len(terms) > 1:
            helpers.append((terms, "<=", Fraction(0)))
    return helpers


def _decimal_digits(den: int) -> int | None:
    """Digits after the point of an exact decimal with denominator ``den``,
    or None if ``den`` has a prime factor other than 2 and 5."""
    two = five = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    return max(two, five) if den == 1 else None


def _decimal_exact(num: int, den: int) -> str:
    """Render num/den exactly as a decimal; den // gcd(num, den) is 2^a 5^b."""
    g = gcd(num, den)
    num, den = num // g, den // g
    digits = _decimal_digits(den)
    if not digits:
        return fraction_text(num)
    scaled = num * 10 ** digits // den
    sign = "-" if scaled < 0 else ""
    text = fraction_text(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def export_lp(problem: LpProblem) -> str:
    """Render the problem in CPLEX-style LP text, byte-deterministically.

    Row names are the tag-derived names from the problem; columns are named
    h_<subset-bitmask-in-hex>.  Every variable is declared free: the
    elemental rows imply nonnegativity, so the declaration only keeps
    external solvers from quietly adding their default lower bound.  A row
    is written from its integer form, in exact decimals when its scale is
    2^a 5^b and else multiplied through by the scale; so is the objective.
    """
    names = [f"h_{mask:x}" for mask in range(problem.dimension + 1)]

    def terms(masks, coeffs, den: int) -> str:
        parts = []
        for mask, c in zip(masks, coeffs):
            mag = "" if abs(c) == den else _decimal_exact(abs(c), den) + " "
            parts.append(f"+ {mag}{names[mask]}" if c > 0 else f"- {mag}{names[mask]}")
        text = " ".join(parts) or "0 h_1"
        return text[2:] if text.startswith("+") else text

    lines = []
    masks, coeffs, _, scale, _ = RowTable([("obj", "", problem.objective, "")]).integer_row(0)
    den = scale if _decimal_digits(scale) is not None else 1
    if den != scale:
        lines.append(f"\\ objective scaled by {fraction_text(scale)}")
    lines += ["Maximize", f" obj: {terms(masks, coeffs, den)}", "Subject To"]
    for i, row_name in enumerate(problem.rows.names):
        masks, coeffs, rhs, scale, sense = problem.rows.integer_row(i)
        den = scale if _decimal_digits(scale) is not None else 1
        lines.append(f" {row_name}: {terms(masks, coeffs, den)} {sense} "
                     f"{_decimal_exact(rhs, den)}")
    lines += ["Bounds", *[f" {name} free" for name in names[1:]], "End"]
    return "\n".join(lines) + "\n"
