import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from fdgtool import simplex


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
