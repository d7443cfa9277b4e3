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

Problem statistics are always computed from the rows actually generated,
never from the closed-form count, so the closed form stays available as an
independent oracle in the tests.  The solver is exact: a dense rational
simplex is driven through lazy row generation (the full elemental family is
enormous, but optima are supported on few of them), and every returned
witness is re-checked against every row of the full problem afterwards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
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


def build_lp(fdg: Fdg, weights: Weights, cap: int = DEFAULT_GENERATION_CAP) -> LpProblem:
    """Assemble the full LP for a dependence graph and objective weights."""
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
        parents = fdg.up(v)
        if not parents:
            raise ValueError(
                f"edge variable {v.name} has no parents; the underlying edge "
                f"leaves a node with no inputs")
        p = mask_of(parents)
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


def solve_cap() -> int:
    env = os.environ.get(MAX_N_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{MAX_N_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_SOLVE_CAP


def lp_solve(problem: LpProblem, max_n: int | None = None,
             chunk: int = 400) -> LpSolution:
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
    if max_n is None:
        max_n = solve_cap()
    if problem.n_vars > max_n:
        raise ValueError(
            f"problem has N={problem.n_vars} variables, above the in-process "
            f"solve cap {max_n}; reduce the graph or use the LP export with "
            f"an external solver (override with {MAX_N_ENV})")

    certified = _certified_from_float(problem)
    if certified is not None:
        return certified

    n_cols = problem.dimension
    seed = [i for i, row in enumerate(problem.rows)
            if row.tag not in (ELEMENTAL1, ELEMENTAL2)
            or row.tag == ELEMENTAL1
            or (row.tag == ELEMENTAL2 and len(row.coeffs) == 3)]
    working = list(seed)
    in_working = set(working)
    for i in _dual_support_rows(problem):
        if i not in in_working:
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
        res = simplex.solve(n_cols, objective, sub, maximize=True, nonneg=True)

        if res.status == simplex.OPTIMAL:
            witness = {j + 1: x for j, x in enumerate(res.x) if x}
            violated = [i for i, row in enumerate(problem.rows)
                        if i not in in_working
                        and not _row_ok(row, _eval_row(row.coeffs, witness))]
            if not violated:
                leftover = verify_witness(problem, witness)
                if leftover:
                    raise RuntimeError(
                        f"internal error: witness fails rows {leftover[:5]}")
                value = _eval_row(problem.objective, witness)
                if value != res.value:
                    raise RuntimeError("internal error: objective mismatch")
                return LpSolution(status="optimal", value=res.value,
                                  witness=witness,
                                  source_masks=problem.source_masks)
        elif res.status == simplex.UNBOUNDED:
            ray = {j + 1: x for j, x in enumerate(res.ray) if x}
            violated = [i for i, row in enumerate(problem.rows)
                        if i not in in_working
                        and _ray_violates(row, _eval_row(row.coeffs, ray))]
            if not violated:
                return LpSolution(status="unbounded", value=None, witness=None,
                                  source_masks=problem.source_masks)
        else:
            return LpSolution(status="infeasible", value=None, witness=None,
                              source_masks=problem.source_masks)

        for i in violated[:chunk]:
            working.append(i)
            in_working.add(i)


def _dual_support_rows(problem: LpProblem) -> list:
    """Rows with nonzero float dual, as a working-set warm start.

    By weak duality the dual support alone can certify the optimum, and
    unlike tightness it stays small at degenerate optima where thousands of
    rows are tight by accident.  Selection only steers which rows the exact
    simplex sees first; correctness never depends on it.
    """
    solved = _float_solve(problem)
    if solved is None:
        return []
    res, ub_idx, _ = solved
    if not res.success:
        return []
    duals = res.ineqlin.marginals if ub_idx else []
    return [i for r, i in enumerate(ub_idx) if abs(duals[r]) > 1e-9]


def _float_solve(problem: LpProblem):
    """Floating-point solve of the full problem (scipy), or None.

    Returns (result, ub_idx, eq_idx) where the index lists map scipy's
    inequality/equality row positions back to problem row indices.  Rows
    with sense '>=' are negated to '<=' on the way in.
    """
    try:
        import numpy as np
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None

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
    try:
        res = linprog(c, A_ub=A_ub, b_ub=ub_b or None, A_eq=A_eq, b_eq=eq_b or None,
                      bounds=(0, None), method="highs")
    except ValueError:  # pragma: no cover - defensive
        return None
    return res, ub_idx, eq_idx


def _round_vector(values, limits=(10 ** 4, 10 ** 8)):
    """Snap floats to small rationals, trying tight denominators first."""
    for limit in limits:
        yield [Fraction(float(v)).limit_denominator(limit) for v in values]


def _certified_from_float(problem: LpProblem) -> LpSolution | None:
    """Exact optimum via rounded float certificates, or None.

    The float solution only *suggests* a primal point and a dual vector;
    both are snapped to rationals and checked exactly.  When the witness
    satisfies every row, the dual is feasible with nonnegative multipliers
    on inequalities, and the two exact objectives coincide, weak duality
    certifies optimality outright.  Any failure falls back to the exact
    simplex path, so this routine can only accelerate, never corrupt.
    """
    solved = _float_solve(problem)
    if solved is None:
        return None
    res, ub_idx, eq_idx = solved
    if not res.success:
        return None

    dual_candidates = None
    for witness_vals in _round_vector(res.x):
        witness = {j + 1: v for j, v in enumerate(witness_vals) if v}
        if verify_witness(problem, witness):
            continue
        value = _eval_row(problem.objective, witness)

        if dual_candidates is None:
            u_float = [-m for m in res.ineqlin.marginals] if ub_idx else []
            v_float = [-m for m in res.eqlin.marginals] if eq_idx else []
            dual_candidates = list(zip(_round_vector(u_float), _round_vector(v_float)))
        for u, v in dual_candidates:
            u = [max(q, Fraction(0)) for q in u]
            if _dual_certifies(problem, ub_idx, eq_idx, u, v, value):
                return LpSolution(status="optimal", value=value, witness=witness,
                                  source_masks=problem.source_masks)
    return None


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
