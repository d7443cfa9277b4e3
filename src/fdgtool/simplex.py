"""Exact rational simplex on a dense tableau of integer rows.

Solves  max c.x  subject to x >= 0 and rows of the form  a.x (<=|>=|=) b.
Equalities become inequality pairs, and infeasible starts go through a
standard phase-1 with artificial variables.  All arithmetic is exact and
fraction-free, as in exact vertex-enumeration codes (Edmonds 1967; Avis's
lrs): each tableau row, and the objective row, is a list of Python ints
over one positive denominator, divided through by the gcd of its entries
and denominator whenever it changes.  ``Fraction`` appears only where the
input is read and where the answer is built.

Entering columns follow Dantzig's rule; leaving rows break ratio ties with
the lexicographic rule over the initial identity block, which is equivalent
to an infinitesimal perturbation of the right-hand side.  That combination
cannot cycle and, unlike Bland's rule, does not crawl on the heavily
degenerate cones this package produces.  Each decision compares the same
rationals a tableau of fractions would hold, by cross-multiplying integers,
so the pivot path does not depend on how the rows are stored.  Everything
is deterministic: identical input always takes the identical pivot path.

The entry point reports one of three statuses.  For "optimal" the exact
objective value and a primal witness are returned; for "unbounded" a
feasible improving ray is returned so callers can reason about which missing
constraints would cut it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

# Hard safety stop; lexicographic simplex terminates long before this.
_MAX_PIVOTS = 2_000_000

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class SimplexResult:
    status: str
    value: Fraction | None
    x: list | None
    ray: list | None
    pivots: int        # phase 1 and phase 2 together


def _normalised(row, den):
    """row / den with the gcd of the entries and den divided out."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [e // g for e in row], den // g


def _eliminate(row, den, f, p, nz):
    """row/den minus f/den times the pivot row, whose nonzero numerators
    are nz over the denominator p: a normalised integer row over den*p.
    f is row's own entry in the pivot column, which this zeroes."""
    if p != 1:
        row = [p * e for e in row]
        den *= p
    for j, e in nz:
        row[j] -= f * e
    return _normalised(row, den)


def _least_ratios(entries):
    """The indices i, in order, of the (i, num, den) entries whose num/den
    is least.  Every den is positive, so n1/d1 < n2/d2 exactly when
    n1*d2 < n2*d1."""
    best = []
    for i, num, den in entries:
        if best:
            lhs, rhs = num * best_den, best_num * den
        if not best or lhs < rhs:
            best_num, best_den, best = num, den, [i]
        elif lhs == rhs:
            best.append(i)
    return best


class _Tableau:
    """Dense simplex tableau over exact rationals, held as integer rows.

    Row i stands for the rational row ``rows[i] / dens[i]`` and the
    objective row for ``obj / obj_den``; every denominator is positive.
    Columns are laid out as [structural | slack | artificial | rhs]; the
    objective row is in reduced-cost form (entry < 0 means the column
    improves the objective).
    """

    def __init__(self, n_struct, rows_le):
        self.n_struct = n_struct
        art_rows = [i for i, (_, b) in enumerate(rows_le) if b < 0]
        first_art = n_struct + len(rows_le)
        self.art_cols = list(range(first_art, first_art + len(art_rows)))
        self.width = first_art + len(art_rows)
        self.rows = []
        self.dens = []
        self.basis = []
        for i, (coeffs, b) in enumerate(rows_le):
            # The row's scale stays its denominator.  Multiplying it into the
            # row instead would divide slack i's reduced cost by it and change
            # Dantzig's choice between slack and structural columns.
            den = lcm(b.denominator, *(v.denominator for v in coeffs.values()))
            row = [0] * (self.width + 1)
            for j, val in coeffs.items():
                row[j] = val.numerator * (den // val.denominator)
            row[n_struct + i] = den
            row[-1] = b.numerator * (den // b.denominator)
            if b < 0:
                row = [-e for e in row]
            self.rows.append(row)
            self.dens.append(den)
            self.basis.append(n_struct + i)
        for col, i in zip(self.art_cols, art_rows):
            self.rows[i][col] = self.dens[i]
            self.basis[i] = col
        self.obj = [0] * (self.width + 1)
        self.obj_den = 1
        self.pivots = 0

    def set_objective_max(self, coeffs) -> None:
        """Load reduced costs for maximizing coeffs.x given the current basis."""
        coeffs = {j: Fraction(val) for j, val in coeffs.items() if val}
        c_den = lcm(*(v.denominator for v in coeffs.values()))
        c = [0] * self.width
        for j, val in coeffs.items():
            c[j] = val.numerator * (c_den // val.denominator)
        basic = [(c[b], i) for i, b in enumerate(self.basis) if c[b]]
        scale = lcm(*(self.dens[i] for _, i in basic))
        obj = [-e * scale for e in c] + [0]
        for f, i in basic:
            f *= scale // self.dens[i]
            for j, e in enumerate(self.rows[i]):
                if e:
                    obj[j] += f * e
        self.obj, self.obj_den = _normalised(obj, c_den * scale)

    def _entering(self, forbidden=frozenset()):
        # The candidates share the objective row's denominator, so their
        # numerators order them.
        obj = self.obj
        best, best_j = 0, None
        for j in range(self.width):
            if obj[j] < best and j not in forbidden:
                best, best_j = obj[j], j
        return best_j

    def _leaving(self, pc):
        # Row i's ratio rhs/a is rows[i][-1] / rows[i][pc]: the row's
        # denominator cancels.
        rows = self.rows
        cand = _least_ratios((i, row[-1], row[pc]) for i, row in enumerate(rows)
                             if row[pc] > 0)
        if len(cand) <= 1:
            return cand[0] if cand else None
        # Lexicographic tie-break: compare rows scaled by the pivot entry
        # over the initial identity block (slacks, then artificials).  Those
        # columns hold the current basis inverse, whose rows are linearly
        # independent, so the tie always resolves.
        for c in range(self.n_struct, self.width):
            if not any(rows[i][c] for i in cand):
                continue  # every ratio is 0: still tied
            cand = _least_ratios((i, rows[i][c], rows[i][pc]) for i in cand)
            if len(cand) == 1:
                return cand[0]
        return min(cand)

    def _pivot(self, pr, pc) -> None:
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        # Dividing row pr by its pivot entry rows[pr][pc] / dens[pr] keeps
        # the numerators and makes rows[pr][pc] the denominator, positive
        # because the ratio test only picks positive entries.
        row, p = _normalised(self.rows[pr], self.rows[pr][pc])
        self.rows[pr], self.dens[pr] = row, p
        nz = [(j, e) for j, e in enumerate(row) if e]
        for i, other in enumerate(self.rows):
            if i == pr:
                continue
            f = other[pc]
            if f:
                self.rows[i], self.dens[i] = _eliminate(other, self.dens[i], f, p, nz)
        f = self.obj[pc]
        if f:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, f, p, nz)
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
        x = [Fraction(0)] * self.width
        for i, b in enumerate(self.basis):
            x[b] = Fraction(self.rows[i][-1], self.dens[i])
        return x

    def ray(self, pc):
        """Improving feasible direction when column pc has no blocking row."""
        d = [Fraction(0)] * self.width
        d[pc] = Fraction(1)
        for i, b in enumerate(self.basis):
            d[b] = Fraction(-self.rows[i][pc], self.dens[i])
        return d


def solve(n_cols: int, objective: dict, rows) -> SimplexResult:
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

    tab = _Tableau(n_cols, rows_le)

    if tab.art_cols:
        tab.set_objective_max({c: -1 for c in tab.art_cols})
        pc = tab.run()
        if pc is not None:
            raise RuntimeError("phase 1 cannot be unbounded")
        if tab.obj[-1] < 0:
            return SimplexResult(status=INFEASIBLE, value=None, x=None, ray=None,
                                 pivots=tab.pivots)
        # No artificial is left basic, so no clean-up pivot is needed.  The
        # lexicographic rule keeps every row's (rhs, slack and artificial
        # entries) lexicographically positive, and a row's slack entries are
        # its multipliers of the input rows, up to sign.  So a basic
        # artificial at level 0 has a positive slack entry, and the first
        # such slack column over those rows would still improve phase 1.
        if set(tab.art_cols) & set(tab.basis):
            raise RuntimeError("internal error: artificial basic after phase 1")

    tab.set_objective_max(objective)
    pc = tab.run(forbidden=tab.art_cols)
    if pc is not None:
        ray = tab.ray(pc)[:n_cols]
        return SimplexResult(status=UNBOUNDED, value=None, x=None, ray=ray,
                             pivots=tab.pivots)
    return SimplexResult(status=OPTIMAL, value=Fraction(tab.obj[-1], tab.obj_den),
                         x=tab.solution()[:n_cols], ray=None, pivots=tab.pivots)
