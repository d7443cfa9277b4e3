import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import conftest as ref
from fdgtool import lpbound, simplex
from fdgtool.fdg import build_fdg, reduce
from fdgtool.netmodel import Weights, load_fixture


def scipy_reference(n, obj, rows):
    c = np.zeros(n)
    for j, v in obj.items():
        c[j] = -float(v)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in rows:
        a = np.zeros(n)
        for j, v in coeffs.items():
            a[j] = float(v)
        if sense == "<=":
            A_ub.append(a); b_ub.append(float(rhs))
        elif sense == ">=":
            A_ub.append(-a); b_ub.append(-float(rhs))
        else:
            A_eq.append(a); b_eq.append(float(rhs))
    res = linprog(c, A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
                  A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
                  bounds=(0, None),
                  method="highs")
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status], res


@pytest.mark.parametrize("seed", range(6))
def test_random_lps_agree_with_scipy(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 5)
        rng.random()  # an unused draw, kept so each seed generates the same LPs
        obj = {j: Fraction(rng.randint(-4, 4)) for j in range(n)}
        rows = []
        for _ in range(rng.randint(1, 7)):
            coeffs = {j: Fraction(rng.randint(-3, 3))
                      for j in range(n) if rng.random() < 0.8}
            rows.append((coeffs, rng.choice(["<=", ">=", "="]),
                         Fraction(rng.randint(-5, 5))))
        got = simplex.solve(n, obj, rows)
        want_status, ref = scipy_reference(n, obj, rows)
        assert got.status == want_status
        if got.status == simplex.OPTIMAL:
            assert abs(float(got.value) + ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
            for coeffs, sense, rhs in rows:
                lhs = sum(v * got.x[j] for j, v in coeffs.items())
                assert (lhs <= rhs if sense == "<=" else
                        lhs >= rhs if sense == ">=" else lhs == rhs)
            assert sum(v * got.x[j] for j, v in obj.items()) == got.value
        if got.status == simplex.UNBOUNDED:
            assert sum(v * got.ray[j] for j, v in obj.items()) > 0
            for coeffs, sense, rhs in rows:
                d = sum(v * got.ray[j] for j, v in coeffs.items())
                assert (d <= 0 if sense == "<=" else
                        d >= 0 if sense == ">=" else d == 0)


def test_exact_fractional_optimum():
    res = simplex.solve(1, {0: Fraction(1)},
                        [({0: Fraction(3)}, "<=", Fraction(1))])
    assert res.status == "optimal"
    assert res.value == Fraction(1, 3)
    assert res.x[0] == Fraction(1, 3)
    assert res.pivots == 1


def test_infeasible_detected():
    res = simplex.solve(1, {0: Fraction(1)},
                        [({0: Fraction(1)}, "<=", Fraction(-1))])
    assert res.status == "infeasible"


def test_unbounded_ray_for_free_variable():
    res = simplex.solve(2, {0: Fraction(1), 1: Fraction(0)},
                        [({1: Fraction(1)}, "<=", Fraction(1))])
    assert res.status == "unbounded"
    assert res.ray[0] > 0


def test_highly_degenerate_cone_terminates():
    # many tight rows at the origin: the lexicographic rule must not cycle
    n = 6
    rows = [({i: Fraction(1), j: Fraction(-1)}, "<=", Fraction(0))
            for i in range(n) for j in range(n) if i != j]
    rows.append(({i: Fraction(1) for i in range(n)}, "<=", Fraction(1)))
    res = simplex.solve(n, {i: Fraction(1) for i in range(n)}, rows)
    assert res.status == "optimal"
    assert res.value == 1


@st.composite
def _lps(draw):
    """A small LP for ``solve``.  Each row has its own denominator for its
    coefficients and another for its right-hand side, so rows enter at
    different scales; objective weights are fractions.  A right-hand side
    is sometimes the row's value at a fixed point x >= 0, which makes ratio
    ties and keeps a share of the LPs feasible.  Negative right-hand sides
    send the solve through phase 1, and an equality drawn twice gives
    phase 1 two artificials on the same hyperplane.  Infeasible and
    unbounded LPs come up as well as optimal ones."""
    n = draw(st.integers(1, 4))
    cols = st.integers(0, n - 1)
    objective = draw(st.dictionaries(
        cols, st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=n))
    point = [Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 3))) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        den = draw(st.sampled_from([1, 2, 3, 5, 6]))
        coeffs = {j: Fraction(v, den)
                  for j, v in draw(st.dictionaries(cols, st.integers(-6, 6),
                                                   max_size=n)).items()}
        if draw(st.booleans()):
            rhs = sum(v * point[j] for j, v in coeffs.items())
        else:
            rhs = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 4, 7])))
        rows.append((coeffs, draw(st.sampled_from(["<=", ">=", "="])), Fraction(rhs)))
    equalities = [row for row in rows if row[1] == "="]
    if equalities and draw(st.booleans()):
        rows.append(draw(st.sampled_from(equalities)))
    return n, objective, rows


@settings(max_examples=400, deadline=None)
@given(_lps())
# Multiplying the last row by 2 to clear its denominator changes phase 1's
# reduced costs, and Dantzig's rule then takes 3 pivots instead of 2.
@example((2, {}, [({0: Fraction(1)}, "<=", Fraction(1)),
                  ({0: Fraction(-1), 1: Fraction(1)}, "<=", Fraction(-1)),
                  ({1: Fraction(-1)}, "<=", Fraction(-1, 2))]))
def test_integer_rows_equal_the_fraction_reference(lp):
    # Equal status, value, x, ray and pivot count: the same pivot path.
    assert simplex.solve(*lp) == ref.reference_simplex_solve(*lp)


# The exact-path solves of the benchmark's lp-exact workload, each at three
# weightings: lp_solve makes 64 simplex calls for them without scipy.
EXACT_SOLVES = (("parallel_relay", "shannon"), ("parallel_relay", "linear"),
                ("two_unicast_chain", "shannon"), ("two_unicast_chain", "linear"),
                ("two_unicast_side", "linear"), ("butterfly", "linear"))


def test_exact_path_calls_equal_the_fraction_reference(monkeypatch):
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    calls = []
    solve = simplex.solve

    def capture(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(simplex, "solve", capture)
    for fixture, mode in EXACT_SOLVES:
        g, _ = reduce(build_fdg(load_fixture(fixture)), mode)
        for weights in ({1: 1, 2: 1}, {1: 2, 2: 1}, {1: Fraction(1, 3), 2: Fraction(2, 7)}):
            lpbound.lp_solve(lpbound.build_lp(g, Weights.of(weights)))
    assert len(calls) == 64
    for args, got in calls:
        assert got == ref.reference_simplex_solve(*args)


@st.composite
def _kernel_lps(draw):
    """A small LP whose rows are mostly over denominator 1, whose
    right-hand sides are mostly 0, and whose numbers are ints or Fractions
    at random.  Most pivot entries are then 1 and most ratio tests tie, as
    on the entropy LPs; the other rows put denominators above 1 and pivot
    entries above 1 in the mix."""
    n = draw(st.integers(1, 5))
    cols = st.integers(0, n - 1)
    objective = draw(st.dictionaries(cols, st.integers(-2, 2), max_size=n))

    def number(num, den):
        return num if den == 1 and draw(st.booleans()) else Fraction(num, den)

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        den = draw(st.sampled_from([1, 1, 1, 2, 3]))
        coeffs = {j: number(v, den)
                  for j, v in draw(st.dictionaries(cols, st.integers(-2, 3),
                                                   max_size=n)).items()}
        rhs = number(draw(st.sampled_from([0, 0, 0, 1, 2, -1])), den)
        rows.append((coeffs, draw(st.sampled_from(["<=", "<=", ">=", "="])), rhs))
    return n, objective, rows


# One LP per branch of the elimination: pivot entry 1 with the other row
# over denominator 1 (updated in place); pivot entry 1 with the other row
# over denominator 2 (updated in place, then normalised); pivot entry 3
# (every other row scaled by it).  Then a degenerate cone, x_i <= x_j for
# every i != j under sum(x) <= 1: every ratio test ties at 0, and the
# lexicographic tie-break walks across the slack columns of up to four
# tied rows.
_KERNEL_EXAMPLES = (
    (2, {0: 1}, [({0: 1, 1: 1}, "<=", 2), ({0: 1, 1: -1}, "<=", 1)]),
    (2, {0: 1}, [({0: Fraction(1, 2), 1: Fraction(1, 2)}, "<=", 1), ({0: 1}, "<=", 1)]),
    (2, {0: 1}, [({0: 3}, "<=", 1), ({0: 1, 1: 1}, "<=", 1)]),
    (5, {i: 1 for i in range(5)},
     [({i: 1, j: -1}, "<=", 0) for i in range(5) for j in range(5) if i != j]
     + [({i: 1 for i in range(5)}, "<=", 1)]),
)


@settings(max_examples=300, deadline=None)
@given(_kernel_lps())
@example(_KERNEL_EXAMPLES[0])
@example(_KERNEL_EXAMPLES[1])
@example(_KERNEL_EXAMPLES[2])
@example(_KERNEL_EXAMPLES[3])
def test_pivot_kernel_equals_the_fraction_reference(lp):
    assert simplex.solve(*lp) == ref.reference_simplex_solve(*lp)


def test_tableau_rows_stay_in_lowest_terms(monkeypatch):
    # Equal rationals (the reference tests above) in lowest terms over a
    # positive denominator are equal integers, so this pins every integer
    # of the tableau, not only the answers read from it.
    pivot = simplex._Tableau._pivot

    def checked(tab, pr, pc):
        pivot(tab, pr, pc)
        for row, den in zip(tab.rows, tab.dens):
            assert den > 0 and math.gcd(den, *row) == 1

    monkeypatch.setattr(simplex._Tableau, "_pivot", checked)
    for lp in _KERNEL_EXAMPLES:
        simplex.solve(*lp)
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    for fixture, mode in EXACT_SOLVES:
        g, _ = reduce(build_fdg(load_fixture(fixture)), mode)
        lpbound.lp_solve(lpbound.build_lp(g, Weights.of({1: 1, 2: 1})))


@settings(max_examples=200, deadline=None)
@given(_lps())
def test_int_and_fraction_numbers_give_equal_results(lp):
    # The same LP scaled to integer rows, written once with ints and once
    # with Fractions: the two solves agree, also in their pivot counts.
    n, objective, rows = lp
    as_ints = []
    for coeffs, sense, rhs in rows:
        scale = math.lcm(rhs.denominator, *(v.denominator for v in coeffs.values()))
        as_ints.append(({j: int(v * scale) for j, v in coeffs.items()}, sense,
                        int(rhs * scale)))
    as_fractions = [({j: Fraction(v) for j, v in coeffs.items()}, sense, Fraction(rhs))
                    for coeffs, sense, rhs in as_ints]
    assert simplex.solve(n, objective, as_ints) == simplex.solve(n, objective, as_fractions)
