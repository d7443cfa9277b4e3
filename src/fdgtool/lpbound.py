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
optimum upper-bounds the corresponding weighted rate sum.  Every row but a
CAPACITY row has right-hand side 0, and ``build_lp`` refuses a negative
capacity, so every LP it makes holds at h = 0, the zero-rate point.

``lp_stats`` counts the rows a problem holds; ``graph_lp_stats`` gives the
same counts from the graph alone, in closed form, so ``lp --stats`` never
generates the rows it only counts (unreduced fano's LP has about 1.1e8).
The tests hold the two equal.  The solver is exact: a float solve by the
HiGHS extension that scipy bundles, when scipy is installed, ends on an
optimal basis, whose basic point and dual are solved once in exact
arithmetic and checked in rationals; failing that,
a dense rational simplex is driven through lazy row generation (the full
elemental family is enormous, but optima are supported on few of them); it
starts from h = 0, so ``lp_solve`` refuses a problem that h = 0 violates.
Every returned witness is re-checked against every row of the full problem
afterwards.  The HiGHS module is loaded from its file, and HiGHS reads the
model from an MPS file and hands back lists, so a solve imports neither
numpy nor ``scipy.optimize`` nor ``scipy.sparse``: HiGHS gets the model and
options that ``scipy.optimize.linprog(method="highs")`` would give it, and
gives the same bits back, at a fraction of the start-up time.

A problem holds its rows once, in one integer table (``RowTable``): each
row times its scale, the lcm of its own denominators, flat as in a CSR
matrix.  ``build_lp`` writes the elemental rows straight into the table's
lists and adds the other rows one by one; ``problem.rows`` reads it as a
sequence of ``Row``s of ``Fraction``s, each built when asked for, and
every stage of the solve and the export reads the integers directly, the
exact simplex too: it takes ``integer_row``'s tuples as they are.  The
exact checks scale a point (witness or ray) once to the common denominator
of its values and compare it with those rows in integers; the certificate's
dual is one multiplier per row as stored, and weak duality is checked on
those multipliers over their common denominator, in integers too.  The
elemental rows, nearly all of the rows, have coefficients +-1, so their
scale is 1.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import comb, gcd, lcm
from typing import NamedTuple

from . import simplex
from .fdg import Fdg
from .netmodel import Weights, _cap_text, fraction_text

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
# scipy's HiGHS extension, loaded by ``_highs`` under the name scipy gives it.
_HIGHS_MODULE = "scipy.optimize._highspy._core"

_ZERO = Fraction(0)
_SENSES = frozenset(("<=", ">=", "="))


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
    is held, and read back, as a ``RowTable``.  A row whose sense is not
    '<=', '>=' or '=', or a row or objective term whose column mask is not
    in 1..2^N - 1, is refused with one ValueError that names it: when the
    problem is built, and by ``lp_solve`` and ``export_lp`` for a row added
    since."""

    n_vars: int
    var_names: tuple[str, ...]
    source_masks: tuple[tuple[int, int], ...]  # (source index, column mask)
    objective: tuple  # ((mask, Fraction), ...)
    rows: RowTable

    def __post_init__(self):
        if not isinstance(self.rows, RowTable):
            object.__setattr__(self, "rows", RowTable(self.rows))
        _check_rows(self)

    @property
    def dimension(self) -> int:
        return (1 << self.n_vars) - 1


def _check_rows(problem: LpProblem) -> None:
    """The check ``LpProblem`` documents: refuse a row or objective term
    that HiGHS and the exact checks would read two ways.  ``rows`` stays a
    mutable table, so ``lp_solve`` and ``export_lp`` check it again."""
    rows, top = problem.rows, problem.dimension
    if not set(rows.senses) <= _SENSES or \
            not 0 < min(rows.masks, default=1) <= max(rows.masks, default=1) <= top:
        for i, (name, sense) in enumerate(zip(rows.names, rows.senses)):
            if sense not in _SENSES:
                raise ValueError(f"row {name!r}: unknown sense {sense!r}")
            _check_masks(f"row {name!r}", rows.masks[rows.starts[i]:rows.starts[i + 1]], top)
    _check_masks("the objective", [mask for mask, _ in problem.objective], top)


def _check_masks(what: str, masks, top: int) -> None:
    for mask in masks:
        if not 0 < mask <= top:
            raise ValueError(f"{what}: column mask {mask} is not in 1..{top}")


@dataclass(frozen=True)
class LpStats:
    dimension: int
    counts: dict
    total: int


@dataclass(frozen=True)
class LpSolution:
    status: str                # 'optimal' | 'unbounded'; lp_solve refuses the rest
    value: Fraction | None
    witness: dict | None       # sparse: column mask -> Fraction, zeros omitted
    source_masks: tuple = ()
    method: str = "exact"      # 'certificate' (HiGHS's basis, solved exactly) | 'exact' (simplex)
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
        if v.cap < 0:  # worded as ``validate`` words it
            raise ValueError(f"edge {v.edge_id!r}: negative capacity {_cap_text(v.cap)}")


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
        rows.add(f"dec_{s.index}", DECODE, ((p, -1), (p | mask_of([s]), 1)), "=")

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

    1. certificate path: solve in floating point (HiGHS, when scipy is installed),
       take the optimal basis it ends on, solve that basis exactly for the
       basic point and for the dual, and check exactly that the witness
       satisfies every row and that the dual is feasible with matching
       objective.  Weak duality then pins the optimum; no conclusion rests
       on floats, and no float value is read.
    2. fallback path: exact simplex over a lazily grown working set of rows
       (the complete elemental family is huge, but optima are supported on
       few of its members), iterating until the exact witness or improving
       ray violates nothing.  The solution's ``rounds`` and ``pivots`` count
       its simplex solves and their pivots.

    Either way the returned witness is re-verified against every row of the
    full problem.  Before either path runs, a problem with a row that h = 0
    violates is refused with one ValueError that names at most five such
    rows: no LP that ``build_lp`` makes has one, the exact simplex starts
    from h = 0, and so the answer never depends on whether scipy is there.
    An LP that holds at h = 0 is never infeasible.
    """
    check_solve_cap(problem.n_vars, solve_cap() if max_n is None else max_n)
    _check_rows(problem)
    rows = problem.rows
    refused = [name for name, sense, rhs in zip(rows.names, rows.senses, rows.rhs)
               if (rhs < 0 and sense != ">=") or (rhs > 0 and sense != "<=")]
    if refused:
        raise ValueError(f"h = 0 violates {len(refused)} row(s), {', '.join(refused[:5])}: "
                         f"an entropy LP holds at the zero-rate point")

    certified = _certified_from_basis(problem, _float_solve(problem))
    if certified is not None:
        return certified

    # Column j is h of the subset with bitmask j, so column 0 is h(empty),
    # which no row touches: its reduced cost stays 0 and it never enters.
    n_cols = problem.dimension + 1
    seed = [i for i, (tag, a, b) in enumerate(zip(rows.tags, rows.starts, rows.starts[1:]))
            if tag != ELEMENTAL2 or b - a == 3]
    objective = dict(problem.objective)
    aux = _bounding_helpers(problem)
    working = {i: rows.integer_row(i) for i in seed}  # row index -> simplex row, in order
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
            witness = {j: x for j, x in enumerate(res.x) if x}
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
        else:
            ray = {j: x for j, x in enumerate(res.ray) if x}
            violated = [i for i in _violated_rows(problem, ray, ray=True)
                        if i not in working]
            if not violated:
                return LpSolution(status="unbounded", value=None, witness=None, **cost)

        working.update((i, rows.integer_row(i)) for i in violated)


class _HighsApi(NamedTuple):
    """What the float solve uses of scipy's HiGHS extension module."""

    solver: type  # ``_Highs``
    read_model: object  # ``_Highs.readModel``
    basis: object  # ``_Highs.getBasis``
    basic: object  # ``HighsBasisStatus.kBasic``
    optimal: object  # ``HighsModelStatus.kOptimal``
    ok: object  # ``HighsStatus.kOk``
    options: object  # a ``HighsOptions`` set to ``_highs_options``


def _highs() -> _HighsApi | None:
    """scipy's bundled HiGHS extension, or None without it.

    The module is loaded from its file, so neither ``scipy.optimize`` nor
    ``scipy.sparse`` is imported, and registered under its own name, so a
    later ``import scipy.optimize`` reuses it.  scipy is found through the
    import system: whatever hides scipy from an import hides HiGHS too.
    Every name the float solve reads is looked up here, so a scipy whose
    module lacks one takes the exact path as a missing scipy does.
    """
    try:
        core = sys.modules.get(_HIGHS_MODULE) or _load_highs()
        if core is None:
            return None
        options = core.HighsOptions()
        for name, value in _highs_options(core).items():
            setattr(options, name, value)
        return _HighsApi(core._Highs, core._Highs.readModel, core._Highs.getBasis,
                         core.HighsBasisStatus.kBasic, core.HighsModelStatus.kOptimal,
                         core.HighsStatus.kOk, options)
    except (ImportError, OSError, AttributeError):
        return None


def _load_highs():
    """Load ``optimize/_highspy/_core`` from scipy's directory, or None
    where there is no such file."""
    spec = importlib.util.find_spec("scipy")
    for base in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
                core = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(core)
                sys.modules[_HIGHS_MODULE] = core
                return core
    return None


def _highs_options(core) -> dict:
    """The HiGHS options ``linprog(method="highs")`` sets: presolve on, no
    output, no debug checks and the dual simplex."""
    return {"presolve": "on", "output_flag": False, "log_to_console": False,
            "highs_debug_level": core.HighsDebugLevel.kHighsDebugLevelNone,
            "simplex_strategy": core.simplex_constants.SimplexStrategy.kSimplexStrategyDual}


def _mps_text(problem: LpProblem):
    """The model that ``linprog(method="highs")`` builds for the problem, as
    free-format MPS text, with the problem row index of each of its rows:
    (text, order).

    The objective is negated to a minimum, and every column is declared
    with its cost, 0 included.  The rows come in ``linprog``'s order, the
    inequality rows then the equality rows, with '>=' rows negated to '<='
    (``L``) rows; each column lists its entries in ascending row order, two
    to a line, as a CSC matrix holds them.  A right-hand side is written
    unless it is +0.0, so a negated 0 reads back as linprog's -0.0.  Each
    number enters as an int division (a row's integer over its scale, made
    negative on a '>=' row), which is exactly ``float`` of it, and is
    written as its ``repr``, which reads back to the same bits; a number
    too large for a float raises ``OverflowError``.  One bit differs: a
    weight that rounds to a zero cost reads back as +0.0, not linprog's
    -0.0, as HiGHS's reader drops a zero objective entry.  The reader
    drops a zero matrix entry too, so a row coefficient that rounds to 0.0
    is an explicit entry in linprog's matrix and none in HiGHS's; the
    certificate checks the basis against the exact rows, so the answer
    stays exact.  Columns are named ``c<mask>`` and rows ``r<position>``.
    """
    rows = problem.rows
    senses, scales, starts, masks, coeffs = (rows.senses, rows.scales, rows.starts,
                                             rows.masks, rows.coeffs)
    order = [i for i, sense in enumerate(senses) if sense != "="]
    order += [i for i, sense in enumerate(senses) if sense == "="]
    columns = [["OBJ", "0.0"] for _ in range(problem.dimension + 1)]  # per mask: row, value, ...
    for mask, w in problem.objective:
        columns[mask][1] = repr(-(w.numerator / w.denominator))
    lines, rhs = ["NAME", "ROWS", " N OBJ"], []
    for at, i in enumerate(order):
        name, den = f"r{at}", -scales[i] if senses[i] == ">=" else scales[i]
        lines.append(f" E {name}" if senses[i] == "=" else f" L {name}")
        b = repr(rows.rhs[i] / den)
        if b != "0.0":
            rhs += (name, b)
        for k in range(starts[i], starts[i + 1]):
            columns[masks[k]] += (name, repr(coeffs[k] / den))
    lines.append("COLUMNS")
    for mask in range(1, len(columns)):
        column, head = columns[mask], f" c{mask} "
        lines += [head + " ".join(column[k:k + 4]) for k in range(0, len(column), 4)]
    lines.append("RHS")
    lines += [" RHS " + " ".join(rhs[k:k + 4]) for k in range(0, len(rhs), 4)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n", order


def _float_solve(problem: LpProblem):
    """Floating-point solve of the full problem (HiGHS), or None.

    Returns the optimal basis that HiGHS ends on as (basic, tight, support):
    the masks of the basic columns, ascending, then the problem row indices
    of the nonbasic (tight) rows and of the rows whose float dual is not
    zero, in the order HiGHS holds them.  No float is compared with
    anything but zero.  HiGHS reads the model that scipy's
    ``linprog(method="highs")`` gives it from an MPS file (``_mps_text``),
    under the same options, so it ends where that call does; nothing it
    hands over is a numpy array, so a solve never imports numpy.  None when
    scipy is missing, a number does not fit a float, the file cannot be
    written or read, or HiGHS reports no optimum or no valid basis: this
    solve only suggests a certificate, and the exact path answers without it.
    """
    highs = _highs()
    if highs is None:
        return None
    solver = highs.solver()
    solver.passOptions(highs.options)
    try:
        text, order = _mps_text(problem)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "lp.mps")
            with open(path, "w", encoding="ascii") as file:
                file.write(text)
            del text  # the file holds it, so the text is not kept through the solve
            if highs.read_model(solver, path) != highs.ok:
                return None
    except (OverflowError, OSError):
        return None
    solver.run()
    basis = highs.basis(solver)
    if solver.getModelStatus() != highs.optimal or not basis.valid:
        return None
    return ([mask for mask, s in enumerate(basis.col_status, 1) if s == highs.basic],
            [i for i, s in zip(order, basis.row_status) if s != highs.basic],
            [i for i, d in zip(order, solver.getSolution().row_dual) if d])


def _solve_unique(equations) -> dict | None:
    """The unique solution of linear ``equations``, as a dict unknown ->
    ``Fraction``, or None when they have none or more than one.

    Each equation is (terms, rhs): a dict unknown -> nonzero int and a
    rational right-hand side.  Sparse elimination: the shortest row left
    pivots on its unknown held by the fewest rows left, which every other
    row left then loses, fraction-free: such a row is scaled by the pivot
    over its gcd with the row's own coefficient when that does not divide,
    so the coefficients stay ints.  Back substitution, last pivot first,
    gives each unknown.
    """
    rows = [dict(terms) for terms, _ in equations]
    rhs = [b for _, b in equations]
    holders = {}  # unknown -> the rows left that hold it
    for r, terms in enumerate(rows):
        for k in terms:
            holders.setdefault(k, set()).add(r)
    heap = sorted((len(terms), r) for r, terms in enumerate(rows))
    pivots = []
    while heap:
        size, r = heappop(heap)
        row = rows[r]
        if not row or size != len(row):  # empty, pivoted already or pushed again since
            continue
        k = min(row, key=lambda k: len(holders[k]))
        for j in row:
            holders[j].discard(r)
        rows[r], a, b = None, row.pop(k), rhs[r]
        for s in holders.pop(k):
            other = rows[s]
            f = other.pop(k)
            g = gcd(a, f)
            p, m = a // g, f // g  # the row becomes p times itself less m pivot rows
            if p != 1:
                for j in other:
                    other[j] *= p
                rhs[s] *= p
            for j, c in row.items():
                other[j] = other.get(j, 0) - m * c
                holders[j].add(s)
                if not other[j]:
                    del other[j]
                    holders[j].discard(s)
            rhs[s] -= m * b
            heappush(heap, (len(other), s))
        pivots.append((k, a, row, b))
    # An unknown no row pivoted on is free; a row left is empty, so 0 = its rhs.
    if holders or any(rhs[r] for r, row in enumerate(rows) if row is not None):
        return None
    x = {}
    for k, a, row, b in reversed(pivots):
        total = b - sum(c * x[j] for j, c in row.items())
        x[k] = total // a if total % a == 0 else Fraction(total) / a
    return {k: Fraction(v) for k, v in x.items()}


def _certified_from_basis(problem: LpProblem, basis) -> LpSolution | None:
    """Exact optimum on HiGHS's optimal basis, or None.

    ``basis`` is the result of ``_float_solve``: the basic columns, the
    tight rows and the rows with a nonzero float dual.  The witness is the
    basic point: the tight rows, as stored, solved over the basic columns,
    with every other column 0.  The dual is one multiplier per row with a
    nonzero float dual, a multiplier of the row as stored, solved so that
    each basic column sums to its objective coefficient.  Each is solved
    once, exactly; no float value is read.  When the witness satisfies
    every row and ``_dual_certifies`` accepts the dual at the witness's
    objective, weak duality certifies optimality outright.  Any failure
    falls back to the exact simplex path, so this routine can only
    accelerate, never corrupt.
    """
    if basis is None:
        return None
    basic, tight, support = basis
    rows, is_basic = problem.rows, set(basic)
    primal = _solve_unique(
        [({mask: c for mask, c in zip(masks, coeffs) if mask in is_basic}, rhs)
         for masks, coeffs, rhs, _, _ in map(rows.integer_row, tight)])
    if primal is None:
        return None
    witness = {mask: x for mask, x in sorted(primal.items()) if x}
    if _violated_rows(problem, witness):
        return None
    columns = {mask: {} for mask in basic}  # basic column -> its dual equation
    for i in support:
        masks, coeffs, *_ = rows.integer_row(i)
        for mask, c in zip(masks, coeffs):
            if mask in columns:
                columns[mask][i] = c
    objective = dict(problem.objective)
    dual = _solve_unique([(terms, objective.get(mask, 0)) for mask, terms in columns.items()])
    value = _eval_row(problem.objective, witness)
    if dual is None or not _dual_certifies(problem, dual, value):
        return None
    return LpSolution(status="optimal", value=value, witness=witness,
                      source_masks=problem.source_masks, method="certificate")


def _dual_certifies(problem: LpProblem, dual: dict, value: Fraction) -> bool:
    """Exact weak-duality check: does ``dual`` prove that no feasible point
    has an objective above ``value``?

    ``dual`` maps problem row indices to multipliers of the rows as
    ``RowTable`` stores them.  It certifies when every multiplier on a '<='
    row is nonnegative and every one on a '>=' row nonpositive, every
    column sum is at least that column's objective coefficient (0 for a
    column outside the objective), and the dual objective equals ``value``.
    Checked in integers over the multipliers' common denominator ``den``.
    """
    rows = problem.rows
    den = lcm(*[y.denominator for y in dual.values()])
    column_sums, dual_value = {}, 0
    for i, y in dual.items():
        masks, coeffs, rhs, _, sense = rows.integer_row(i)
        if (sense == "<=" and y < 0) or (sense == ">=" and y > 0):
            return False
        y = y.numerator * (den // y.denominator)
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
    only and never appear in the problem's rows or statistics.  Each is a
    row as ``RowTable.integer_row`` returns it, over denominator 1.
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
        helpers.append(([ms, joint], [1, -1], 0, 1, "<="))
        bits = [1 << k for k in range(parents.bit_length()) if parents >> k & 1]
        if len(bits) > 1:
            helpers.append(([parents, *bits], [1] + [-1] * len(bits), 0, 1, "<="))
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
    _check_rows(problem)
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
