"""Exact rational simplex for entropy LPs, on a dense tableau of integer rows.

Solves  max c.x  subject to x >= 0 and rows of the form  a.x (<=|>=|=) b
that all hold at x = 0.  Every LP that ``lpbound.build_lp`` makes is of
that kind: the elemental, INDEP, ENCODE and DECODE rows are homogeneous and
the CAPACITY rows bound an entropy by a capacity >= 0.  So the slack basis
is feasible, and the solve starts from it: there is no phase 1.  A row
arrives as ``RowTable.integer_row`` gives it, ``(cols, coeffs, rhs, den,
sense)`` in integers with ``den > 0``: the row
sum(coeffs[k] / den * x[cols[k]]) (sense) rhs / den.  A row that x = 0
violates raises ValueError.

All arithmetic is exact and fraction-free, as in exact vertex-enumeration
codes (Edmonds 1967; Avis's lrs): each tableau row, and the objective row,
is a list of Python ints over one positive denominator, kept in lowest
terms.  A pivot on an entry of 1, the common case on entropy LPs, updates a
row in place over the pivot row's nonzeros; a larger pivot entry scales the
row by it first.  The gcd of a changed row's entries and denominator is
divided out only when that denominator is above 1, since otherwise it is 1.
``Fraction`` appears only where the objective is read and where the answer
is built.

Entering columns follow Dantzig's rule; leaving rows break ratio ties with
the lexicographic rule over the slack block, which is equivalent to an
infinitesimal perturbation of the right-hand side.  That combination cannot
cycle and, unlike Bland's rule, does not crawl on the heavily degenerate
cones this package produces.  Each decision compares the same rationals a
tableau of fractions would hold, by cross-multiplying integers, so the
pivot path does not depend on how the rows are stored.  Everything is
deterministic: identical input always takes the identical pivot path.

The entry point reports one of two statuses.  For "optimal" the exact
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


@dataclass
class SimplexResult:
    status: str
    value: Fraction | None
    x: list | None
    ray: list | None
    pivots: int


def _normalised(row, den):
    """row / den with the gcd of the entries and den divided out."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [e // g for e in row], den // g


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

    Row i stands for the rational row ``rows[i] / dens[i]``, and every
    denominator is positive.  Rows 0..m-1 are the constraints; the last
    row, ``rows[m]``, is the objective in reduced-cost form (entry < 0 means
    the column improves the objective).  Columns are laid out as
    [structural | slack | rhs].
    """

    def __init__(self, n_struct, rows_le):
        """rows_le holds (cols, coeffs, rhs, den) for the row coeffs.x <= rhs
        with every number over den > 0 and rhs >= 0: coeffs[k] is the integer
        numerator of column cols[k]."""
        self.n_struct = n_struct
        self.m = len(rows_le)
        self.width = n_struct + self.m
        self.rows = []
        self.dens = []
        for i, (cols, coeffs, b, den) in enumerate(rows_le):
            # The row's scale stays its denominator.  Multiplying it into the
            # row instead would divide slack i's reduced cost by it and change
            # Dantzig's choice between slack and structural columns.
            row = [0] * (self.width + 1)
            for j, val in zip(cols, coeffs):
                row[j] = val
            row[n_struct + i] = den
            row[-1] = b
            self.rows.append(row)
            self.dens.append(den)
        self.basis = list(range(n_struct, self.width))
        self.rows.append([0] * (self.width + 1))
        self.dens.append(1)
        self.pivots = 0

    def set_objective_max(self, coeffs) -> None:
        """Load reduced costs for maximizing coeffs.x on the slack basis,
        where they are -c."""
        coeffs = {j: Fraction(val) for j, val in coeffs.items() if val}
        c_den = lcm(*(v.denominator for v in coeffs.values()))
        obj = [0] * (self.width + 1)
        for j, val in coeffs.items():
            obj[j] = -val.numerator * (c_den // val.denominator)
        self.rows[self.m], self.dens[self.m] = _normalised(obj, c_den)

    def objective_value(self) -> Fraction:
        return Fraction(self.rows[self.m][-1], self.dens[self.m])

    def _entering(self):
        # Dantzig's rule, ties to the lowest index.  The candidates share
        # the objective row's denominator, so their numerators order them.
        obj = self.rows[self.m]
        best = min(obj[:self.width], default=0)
        return obj.index(best) if best < 0 else None

    def _leaving(self, pc):
        # Row i's ratio rhs/a is rows[i][-1] / rows[i][pc]: the row's
        # denominator cancels.
        rows = self.rows
        tied = _least_ratios([(i, row[-1], row[pc])
                              for i, row in enumerate(rows[:self.m]) if row[pc] > 0])
        if len(tied) <= 1:
            return tied[0] if tied else None
        # Lexicographic tie-break: compare rows scaled by the pivot entry
        # over the slack block, one column of the tied rows at a time.  Those
        # columns hold the current basis inverse, whose rows are linearly
        # independent, so the tie always resolves.  A column that is zero on
        # every tied row leaves every ratio at 0, so it is skipped.
        pivot = [rows[i][pc] for i in tied]
        alive = range(len(tied))  # positions in tied still at the least ratio
        for col in zip(*(rows[i][self.n_struct:self.width] for i in tied)):
            if any(col):
                alive = _least_ratios((k, col[k], pivot[k]) for k in alive)
                if len(alive) == 1:
                    break
        return tied[alive[0]]

    def _pivot(self, pr, pc) -> None:
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        rows, dens = self.rows, self.dens
        # Dividing row pr by its pivot entry rows[pr][pc] / dens[pr] keeps
        # the numerators and makes rows[pr][pc] the denominator, positive
        # because the ratio test only picks positive entries.
        row = rows[pr]
        p = row[pc]
        if p != 1:
            row, p = _normalised(row, p)
            rows[pr] = row
        dens[pr] = p
        nz = [(j, e) for j, e in enumerate(row) if e]
        # Every other row, the objective included, becomes row/den minus
        # f/den times the pivot row, where f is its entry in column pc: an
        # integer row over den*p.  When p divides f (always, for p = 1) that
        # is row - (f/p) * pivot row over den, an in-place update over the
        # pivot row's nonzeros, and a row over den = 1 stays normalised.
        for i, other in enumerate(rows):
            f = other[pc]
            if not f or i == pr:
                continue
            den = dens[i]
            k, rem = divmod(f, p)
            if not rem:
                for j, e in nz:
                    other[j] -= k * e
                if den != 1:
                    rows[i], dens[i] = _normalised(other, den)
            else:
                other = [p * e for e in other]
                for j, e in nz:
                    other[j] -= f * e
                rows[i], dens[i] = _normalised(other, den * p)
        self.basis[pr] = pc

    def run(self):
        """Pivot to optimality.  Returns None or, when unbounded, the
        entering column that certifies it."""
        while True:
            pc = self._entering()
            if pc is None:
                return None
            pr = self._leaving(pc)
            if pr is None:
                return pc
            self._pivot(pr, pc)

    def solution(self):
        x = [Fraction(0)] * self.width
        for b, row, den in zip(self.basis, self.rows, self.dens):
            x[b] = Fraction(row[-1], den)
        return x

    def ray(self, pc):
        """Improving feasible direction when column pc has no blocking row."""
        d = [Fraction(0)] * self.width
        d[pc] = Fraction(1)
        for b, row, den in zip(self.basis, self.rows, self.dens):
            d[b] = Fraction(-row[pc], den)
        return d


def solve(n_cols: int, objective: dict, rows) -> SimplexResult:
    """Maximise objective.x over x >= 0 with exact rational arithmetic.

    objective maps column index to coefficient, an int or a Fraction; rows
    are (cols, coeffs, rhs, den, sense) tuples as ``RowTable.integer_row``
    returns them, with sense one of '<=', '>=', '=', and each must hold at
    x = 0.  The solve starts from the slack basis.
    """
    rows_le = []  # (cols, coeffs, rhs, den): the row coeffs.x <= rhs, numerators over den
    for cols, coeffs, rhs, den, sense in rows:
        if sense not in ("<=", ">=", "="):
            raise ValueError(f"unknown sense {sense!r}")
        if den < 1:
            raise ValueError(f"row denominator {den} is not positive")
        if (rhs < 0 and sense != ">=") or (rhs > 0 and sense != "<="):
            raise ValueError(f"x = 0 violates the row {coeffs} {sense} {rhs} over {den}")
        if sense != ">=":
            rows_le.append((cols, coeffs, rhs, den))
        if sense != "<=":
            rows_le.append((cols, [-c for c in coeffs], -rhs, den))

    tab = _Tableau(n_cols, rows_le)
    tab.set_objective_max(objective)
    pc = tab.run()
    if pc is not None:
        return SimplexResult(status=UNBOUNDED, value=None, x=None,
                             ray=tab.ray(pc)[:n_cols], pivots=tab.pivots)
    return SimplexResult(status=OPTIMAL, value=tab.objective_value(),
                         x=tab.solution()[:n_cols], ray=None, pivots=tab.pivots)
