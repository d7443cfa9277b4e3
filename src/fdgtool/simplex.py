"""Exact rational simplex on a dense tableau.

Solves  max c.x  subject to x >= 0 and rows of the form  a.x (<=|>=|=) b.
Equalities become inequality pairs, and infeasible starts go through a
standard phase-1 with artificial variables.  All arithmetic is exact, in
fractions.Fraction.

Entering columns follow Dantzig's rule; leaving rows break ratio ties with
the lexicographic rule over the initial identity block, which is equivalent
to an infinitesimal perturbation of the right-hand side.  That combination
cannot cycle and, unlike Bland's rule, does not crawl on the heavily
degenerate cones this package produces.  Everything is deterministic:
identical input always takes the identical pivot path.

The entry point reports one of three statuses.  For "optimal" the exact
objective value and a primal witness are returned; for "unbounded" a
feasible improving ray is returned so callers can reason about which missing
constraints would cut it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

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


class _Tableau:
    """Dense simplex tableau over exact rationals.

    Columns are laid out as [structural | slack | artificial | rhs]; the
    objective row is stored separately in reduced-cost form (entry < 0 means
    the column improves the objective).
    """

    def __init__(self, n_struct, rows_le):
        self.m = len(rows_le)
        self.n_struct = n_struct
        self.art_cols = []
        width = n_struct + self.m
        self.rows = []
        self.basis = []
        art_rows = []
        for i, (coeffs, b) in enumerate(rows_le):
            row = [_ZERO] * width
            for j, val in coeffs.items():
                row[j] = val
            row[n_struct + i] = _ONE
            if b < 0:
                row = [-e for e in row]
                b = -b
                art_rows.append(i)
            row.append(b)
            self.rows.append(row)
            self.basis.append(n_struct + i)
        for k, i in enumerate(art_rows):
            col = width + k
            for r in self.rows:
                r.insert(len(r) - 1, _ZERO)
            self.rows[i][col] = _ONE
            self.basis[i] = col
            self.art_cols.append(col)
        self.width = width + len(art_rows)
        self.obj = [_ZERO] * (self.width + 1)
        self.pivots = 0

    def set_objective_max(self, coeffs) -> None:
        """Load reduced costs for maximizing coeffs.x given the current basis."""
        c = [_ZERO] * self.width
        for j, val in coeffs.items():
            c[j] = Fraction(val)
        obj = [-e for e in c] + [_ZERO]
        for i, b in enumerate(self.basis):
            f = c[b]
            if f:
                row = self.rows[i]
                for j in range(self.width + 1):
                    if row[j]:
                        obj[j] += f * row[j]
        self.obj = obj

    def _entering(self, forbidden=frozenset()):
        obj = self.obj
        best, best_j = _ZERO, None
        for j in range(self.width):
            if obj[j] < best and j not in forbidden:
                best, best_j = obj[j], j
        return best_j

    def _leaving(self, pc):
        best_ratio = None
        cand = []
        for i, row in enumerate(self.rows):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if best_ratio is None or ratio < best_ratio:
                    best_ratio, cand = ratio, [i]
                elif ratio == best_ratio:
                    cand.append(i)
        if not cand:
            return None
        if len(cand) == 1:
            return cand[0]
        # Lexicographic tie-break: compare rows scaled by the pivot entry
        # over the initial identity block (slacks, then artificials).  Those
        # columns hold the current basis inverse, whose rows are linearly
        # independent, so the tie always resolves.
        for c in range(self.n_struct, self.width):
            best_val = None
            keep = []
            for i in cand:
                val = self.rows[i][c] / self.rows[i][pc]
                if best_val is None or val < best_val:
                    best_val, keep = val, [i]
                elif val == best_val:
                    keep.append(i)
            cand = keep
            if len(cand) == 1:
                return cand[0]
        return min(cand)

    def _pivot(self, pr, pc) -> None:
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise RuntimeError("pivot limit exceeded")
        row = self.rows[pr]
        inv = _ONE / row[pc]
        if inv != 1:
            row = [e * inv for e in row]
            self.rows[pr] = row
        nz = [(j, e) for j, e in enumerate(row) if e]
        for i, other in enumerate(self.rows):
            if i == pr:
                continue
            f = other[pc]
            if f:
                for j, e in nz:
                    other[j] -= f * e
        f = self.obj[pc]
        if f:
            obj = self.obj
            for j, e in nz:
                obj[j] -= f * e
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
        x = [_ZERO] * self.width
        for i, b in enumerate(self.basis):
            x[b] = self.rows[i][-1]
        return x

    def ray(self, pc):
        """Improving feasible direction when column pc has no blocking row."""
        d = [_ZERO] * self.width
        d[pc] = _ONE
        for i, b in enumerate(self.basis):
            d[b] = -self.rows[i][pc]
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
        art = set(tab.art_cols)
        tab.set_objective_max({c: -1 for c in tab.art_cols})
        pc = tab.run()
        if pc is not None:
            raise RuntimeError("phase 1 cannot be unbounded")
        if tab.obj[-1] < 0:
            return SimplexResult(status=INFEASIBLE, value=None, x=None, ray=None)
        for i in range(tab.m):
            if tab.basis[i] in art:
                row = tab.rows[i]
                pivot_col = next((j for j in range(tab.width)
                                  if j not in art and row[j] != 0), None)
                if pivot_col is not None:
                    tab._pivot(i, pivot_col)

    tab.set_objective_max(objective)
    pc = tab.run(forbidden=tab.art_cols)
    if pc is not None:
        ray = tab.ray(pc)[:n_cols]
        return SimplexResult(status=UNBOUNDED, value=None, x=None, ray=ray)
    return SimplexResult(status=OPTIMAL, value=tab.obj[-1],
                         x=tab.solution()[:n_cols], ray=None)
