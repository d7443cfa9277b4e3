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

The exact checks run in Python integers, not in ``Fraction`` arithmetic: a
point (witness or ray) is scaled once to the common denominator of its
values and each row by the lcm of its own denominators, so a row and its
right-hand side are compared as integers.  The elemental rows, nearly all
of the rows, have coefficients +-1 by construction, so their scale is 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from . import simplex
from .fdg import Fdg
from .netmodel import Weights

ELEMENTAL1 = "ELEMENTAL1"
ELEMENTAL2 = "ELEMENTAL2"
INDEP = "INDEP"
ENCODE = "ENCODE"
DECODE = "DECODE"
CAPACITY = "CAPACITY"

TAG_ORDER = (ELEMENTAL1, ELEMENTAL2, INDEP, ENCODE, DECODE, CAPACITY)

DEFAULT_GENERATION_CAP = 24
DEFAULT_SOLVE_CAP = 16
MAX_N_ENV = "FDGTOOL_MAX_N"
# Violated rows the exact fallback adds to its working set per round.
WORKING_SET_CHUNK = 400
# Denominator limits tried, in order, when snapping float solutions to rationals.
ROUNDING_LIMITS = (10 ** 4, 10 ** 8)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


class Row(NamedTuple):
    name: str
    tag: str
    coeffs: tuple  # ((mask, Fraction), ...) sorted by mask, zero-free
    sense: str     # '<=' | '>=' | '='
    rhs: Fraction


@dataclass(frozen=True)
class LpProblem:
    n_vars: int
    var_names: tuple[str, ...]
    source_masks: tuple[tuple[int, int], ...]  # (source index, column mask)
    objective: tuple  # ((mask, Fraction), ...)
    rows: tuple[Row, ...]

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
    full = (1 << n) - 1
    rows = []
    for i in range(n):
        rest = full & ~(1 << i)
        coeffs = ((rest, _MINUS_ONE), (full, _ONE)) if rest else ((full, _ONE),)
        rows.append(Row(f"elem1_{i + 1}", ELEMENTAL1, coeffs, ">=", _ZERO))
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = 1 << i, 1 << j
            ab = a | b
            for c in _submasks_ascending(full & ~ab):
                k += 1
                # c misses bits i < j, so c < a|c < b|c < a|b|c: the four masks
                # are distinct and already sorted, and only c can be empty.
                if c:
                    coeffs = ((c, _MINUS_ONE), (a | c, _ONE), (b | c, _ONE),
                              (ab | c, _MINUS_ONE))
                else:
                    coeffs = ((a, _ONE), (b, _ONE), (ab, _MINUS_ONE))
                rows.append(Row(f"elem2_{k}", ELEMENTAL2, coeffs, ">=", _ZERO))
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

    return LpProblem(
        n_vars=n,
        var_names=tuple(v.name for v in fdg.vars),
        source_masks=tuple((s.index, mask_of([s])) for s in svars),
        objective=_coeff_row(objective),
        rows=tuple(rows),
    )


def lp_stats(problem: LpProblem) -> LpStats:
    counts = {tag: 0 for tag in TAG_ORDER}
    for row in problem.rows:
        counts[row.tag] += 1
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
    denominator ``den`` of its values, and each row by the lcm ``scale`` of
    the denominators of its coefficients and right-hand side, so the row sum
    and the right-hand side, both multiplied by ``scale * den``, compare as
    integers.  With ``ray`` the point is a direction, checked against the
    homogeneous rows (right-hand side 0).
    """
    den = lcm(*[x.denominator for x in point.values()])
    scaled = {mask: x.numerator * (den // x.denominator) for mask, x in point.items()}
    bad = []
    for i, (_, _, coeffs, sense, rhs) in enumerate(problem.rows):
        scale = lcm(rhs.denominator, *[c.denominator for _, c in coeffs])
        total = 0
        for mask, c in coeffs:
            x = scaled.get(mask)
            if x:
                total += c.numerator * (scale // c.denominator) * x
        bound = 0 if ray else rhs.numerator * (scale // rhs.denominator) * den
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
    return [problem.rows[i].name for i in _violated_rows(problem, witness)]


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
       ray violates nothing.

    Either way the returned witness is re-verified against every row of the
    full problem.
    """
    check_solve_cap(problem.n_vars, solve_cap() if max_n is None else max_n)

    solved = _float_solve(problem)
    certified = _certified_from_float(problem, solved)
    if certified is not None:
        return certified

    n_cols = problem.dimension
    seed = [i for i, row in enumerate(problem.rows)
            if row.tag != ELEMENTAL2 or len(row.coeffs) == 3]
    working = list(seed)
    in_working = set(working)
    # Warm start: the rows with nonzero float dual.  By weak duality the dual
    # support alone can certify the optimum, and unlike tightness it stays
    # small at degenerate optima where thousands of rows are tight by
    # accident.  It only steers which rows the exact simplex sees first.
    if solved is not None and solved[0].success:
        res, ub_idx, _ = solved
        for r, i in enumerate(ub_idx):
            if abs(res.ineqlin.marginals[r]) > 1e-9 and i not in in_working:
                working.append(i)
                in_working.add(i)
    objective = {mask - 1: c for mask, c in problem.objective}
    aux = _bounding_helpers(problem)

    while True:
        sub = [( {mask - 1: c for mask, c in problem.rows[i].coeffs},
                 problem.rows[i].sense, problem.rows[i].rhs) for i in working]
        sub += aux
        # The full elemental family implies h(A) >= 0 for every subset, so
        # solving the relaxation inside the nonnegative cone never cuts a
        # point that is feasible for the complete problem.
        res = simplex.solve(n_cols, objective, sub)

        if res.status == simplex.OPTIMAL:
            witness = {j + 1: x for j, x in enumerate(res.x) if x}
            # One scan of every row: it finds the rows to add and, once none
            # is left outside the working set, re-verifies the witness.
            bad = _violated_rows(problem, witness)
            violated = [i for i in bad if i not in in_working]
            if not violated:
                if bad:
                    names = [problem.rows[i].name for i in bad[:5]]
                    raise RuntimeError(f"internal error: witness fails rows {names}")
                value = _eval_row(problem.objective, witness)
                if value != res.value:
                    raise RuntimeError("internal error: objective mismatch")
                return LpSolution(status="optimal", value=res.value,
                                  witness=witness,
                                  source_masks=problem.source_masks, method="exact")
        elif res.status == simplex.UNBOUNDED:
            ray = {j + 1: x for j, x in enumerate(res.ray) if x}
            violated = [i for i in _violated_rows(problem, ray, ray=True)
                        if i not in in_working]
            if not violated:
                return LpSolution(status="unbounded", value=None, witness=None,
                                  source_masks=problem.source_masks, method="exact")
        else:
            return LpSolution(status="infeasible", value=None, witness=None,
                              source_masks=problem.source_masks, method="exact")

        for i in violated[:WORKING_SET_CHUNK]:
            working.append(i)
            in_working.add(i)


def _float_solve(problem: LpProblem):
    """Floating-point solve of the full problem (scipy), or None.

    Returns (result, ub_idx, eq_idx) where the index lists map scipy's
    inequality/equality row positions back to problem row indices.  Rows
    with sense '>=' are negated to '<=' on the way in.  Each number enters
    as ``numerator / denominator``, which is exactly ``float`` of it.  None
    also when scipy is missing or a number does not fit a float: this solve
    only suggests a certificate, and the exact path answers without it.
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None

    n = problem.dimension
    c = np.zeros(n)
    ub_idx, eq_idx = [], []
    ub_data, ub_r, ub_c, ub_b = [], [], [], []
    eq_data, eq_r, eq_c, eq_b = [], [], [], []
    try:
        for mask, w in problem.objective:
            c[mask - 1] = -(w.numerator / w.denominator)
        for i, (_, _, coeffs, sense, rhs) in enumerate(problem.rows):
            if sense == "=":
                r = len(eq_idx)
                eq_idx.append(i)
                for mask, v in coeffs:
                    eq_r.append(r); eq_c.append(mask - 1)
                    eq_data.append(v.numerator / v.denominator)
                eq_b.append(rhs.numerator / rhs.denominator)
            else:
                flip = -1.0 if sense == ">=" else 1.0
                r = len(ub_idx)
                ub_idx.append(i)
                for mask, v in coeffs:
                    ub_r.append(r); ub_c.append(mask - 1)
                    ub_data.append(flip * (v.numerator / v.denominator))
                ub_b.append(flip * (rhs.numerator / rhs.denominator))
    except OverflowError:
        return None
    A_ub = csr_matrix((ub_data, (ub_r, ub_c)), shape=(len(ub_idx), n)) if ub_idx else None
    A_eq = csr_matrix((eq_data, (eq_r, eq_c)), shape=(len(eq_idx), n)) if eq_idx else None
    try:
        res = linprog(c, A_ub=A_ub, b_ub=ub_b or None, A_eq=A_eq, b_eq=eq_b or None,
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

    In integers: the dual is scaled to its common denominator ``den``, the
    coefficients of its support rows to theirs (``coeff_den``) and the
    right-hand sides to theirs (``rhs_den``), so a column sum is an integer
    over ``den * coeff_den`` and the dual objective one over ``den * rhs_den``.
    """
    support = [(q, problem.rows[i]) for q, i in [*zip(u, ub_idx), *zip(v, eq_idx)] if q]
    den = lcm(*[q.denominator for q, _ in support])
    coeff_den = lcm(*[c.denominator for _, row in support for _, c in row.coeffs])
    rhs_den = lcm(*[row.rhs.denominator for _, row in support])
    column_sums = {}
    dual_value = 0
    for q, row in support:
        y = q.numerator * (den // q.denominator)
        if row.sense == ">=":  # negated to '<=' for the float solve
            y = -y
        for mask, c in row.coeffs:
            column_sums[mask] = (column_sums.get(mask, 0)
                                 + y * c.numerator * (coeff_den // c.denominator))
        dual_value += y * row.rhs.numerator * (rhs_den // row.rhs.denominator)
    if dual_value * value.denominator != value.numerator * den * rhs_den:
        return False
    objective = dict(problem.objective)
    for mask in set(column_sums) | set(objective):
        w = objective.get(mask, _ZERO)
        if column_sums.get(mask, 0) * w.denominator < w.numerator * den * coeff_den:
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
    decode = {}
    for row in problem.rows:
        if row.tag != DECODE:
            continue
        pos = next(m for m, c in row.coeffs if c > 0)
        neg = next(m for m, c in row.coeffs if c < 0)
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
    """Render num/den (lowest terms, ``den`` = 2^a 5^b) exactly as a decimal."""
    digits = _decimal_digits(den)
    if not digits:
        return str(num)
    scaled = num * 10 ** digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _scaled(q, scale: int) -> tuple[int, int]:
    """q * scale as (numerator, denominator); ``scale`` is 1 or a multiple
    of the denominator of q."""
    if scale == 1:
        return q.numerator, q.denominator
    return q.numerator * (scale // q.denominator), 1


def _render_terms(coeffs, scale: int) -> str:
    if not coeffs:
        return "0 h_1"
    parts = []
    for mask, c in coeffs:
        num, den = _scaled(c, scale)
        unit = den == 1 and (num == 1 or num == -1)
        mag = "" if unit else _decimal_exact(abs(num), den) + " "
        if num > 0:
            parts.append(f"+ {mag}h_{mask:x}" if parts else f"{mag}h_{mask:x}")
        else:
            parts.append(f"- {mag}h_{mask:x}")
    return " ".join(parts)


def _row_scale(coeffs, rhs) -> int:
    """1 when every number is an integer or an exact decimal, else the lcm
    of the denominators, which turns every number into an integer."""
    dens = [rhs.denominator, *[c.denominator for _, c in coeffs]]
    if all(d == 1 or _decimal_digits(d) is not None for d in dens):
        return 1
    return lcm(*dens)


def export_lp(problem: LpProblem) -> str:
    """Render the problem in CPLEX-style LP text, byte-deterministically.

    Row names are the tag-derived names from the problem; columns are named
    h_<subset-bitmask-in-hex>.  Every variable is declared free: the
    elemental rows imply nonnegativity, so the declaration only keeps
    external solvers from quietly adding their default lower bound.
    """
    lines = []
    obj_scale = _row_scale(problem.objective, _ZERO)
    if obj_scale != 1:
        lines.append(f"\\ objective scaled by {obj_scale}")
    lines += ["Maximize", f" obj: {_render_terms(problem.objective, obj_scale)}",
              "Subject To"]
    for name, _, coeffs, sense, rhs in problem.rows:
        scale = _row_scale(coeffs, rhs)
        lines.append(f" {name}: {_render_terms(coeffs, scale)} {sense} "
                     f"{_decimal_exact(*_scaled(rhs, scale))}")
    lines.append("Bounds")
    for mask in range(1, problem.dimension + 1):
        lines.append(f" h_{mask:x} free")
    lines.append("End")
    return "\n".join(lines) + "\n"
