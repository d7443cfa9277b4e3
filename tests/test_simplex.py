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
