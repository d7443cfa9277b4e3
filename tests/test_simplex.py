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


def _solve(n, objective, rows):
    """``simplex.solve`` on (coeffs, sense, rhs) triples."""
    return simplex.solve(n, objective, ref.simplex_rows(rows))


def _assert_equals_scipy(n, obj, rows):
    got = _solve(n, obj, rows)
    want_status, res = scipy_reference(n, obj, rows)
    assert got.status == want_status
    if got.status == simplex.OPTIMAL:
        assert abs(float(got.value) + res.fun) <= 1e-7 * max(1.0, abs(res.fun))
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


def _assert_equals_the_reference(lp):
    # Equal status, value, x, ray and pivot count: the same pivot path.  An
    # LP that x = 0 violates is refused, where the reference runs phase 1.
    if ref.holds_at_origin(lp[2]):
        assert _solve(*lp) == ref.reference_simplex_solve(*lp)
    else:
        with pytest.raises(ValueError, match="x = 0 violates"):
            _solve(*lp)


@pytest.mark.parametrize("seed", range(6))
def test_random_lps_agree_with_scipy(seed):
    # An LP that x = 0 violates is refused; the same rows with each
    # right-hand side moved to hold at 0 are then compared with the
    # Fraction reference (HiGHS reports some of them as status 4, unknown).
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
        if ref.holds_at_origin(rows):
            _assert_equals_scipy(n, obj, rows)
        else:
            _assert_equals_the_reference((n, obj, rows))
            _assert_equals_the_reference((n, obj, ref.moved_to_origin(rows)))


def test_exact_fractional_optimum():
    res = _solve(1, {0: Fraction(1)}, [({0: Fraction(3)}, "<=", Fraction(1))])
    assert res.status == "optimal"
    assert res.value == Fraction(1, 3)
    assert res.x[0] == Fraction(1, 3)
    assert res.pivots == 1


def test_infeasible_detected():
    # x0 <= -1 over x0 >= 0 is infeasible, and x = 0 violates it: refused.
    with pytest.raises(ValueError, match="x = 0 violates"):
        simplex.solve(1, {0: 1}, [([0], [1], -1, 1, "<=")])
    # So is a row that x = 0 violates among rows that it satisfies, in
    # each sense, and a row over a denominator that is not positive.
    for row in (([0], [1], 1, 1, ">="), ([0], [2], 1, 3, "="), ([0], [1], 1, -1, "<=")):
        with pytest.raises(ValueError):
            simplex.solve(1, {0: 1}, [([0], [1], 1, 1, "<="), row])


def test_an_unknown_sense_is_refused():
    # ``lp_solve`` never passes one (``LpProblem`` refuses it); a direct
    # caller gets the refusal, not a row read as '='.
    with pytest.raises(ValueError, match=r"^unknown sense '=<'$"):
        simplex.solve(1, {0: 1}, [([0], [1], 1, 1, "<="), ([0], [1], 0, 1, "=<")])


def test_the_pivot_limit_stops_the_solve(monkeypatch):
    # max x0 + x1 over x0 <= 1, x1 <= 1 takes two pivots; a limit of one
    # stops it on the second.
    rows = [([0], [1], 1, 1, "<="), ([1], [1], 1, 1, "<=")]
    assert simplex.solve(2, {0: 1, 1: 1}, rows).pivots == 2
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 1)
    with pytest.raises(RuntimeError, match="^pivot limit exceeded$"):
        simplex.solve(2, {0: 1, 1: 1}, rows)


def test_unbounded_ray_for_free_variable():
    res = _solve(2, {0: Fraction(1), 1: Fraction(0)}, [({1: Fraction(1)}, "<=", Fraction(1))])
    assert res.status == "unbounded"
    assert res.ray[0] > 0


def test_highly_degenerate_cone_terminates():
    # many tight rows at the origin: the lexicographic rule must not cycle
    n = 6
    rows = [({i: Fraction(1), j: Fraction(-1)}, "<=", Fraction(0))
            for i in range(n) for j in range(n) if i != j]
    rows.append(({i: Fraction(1) for i in range(n)}, "<=", Fraction(1)))
    res = _solve(n, {i: Fraction(1) for i in range(n)}, rows)
    assert res.status == "optimal"
    assert res.value == 1


@st.composite
def _lps(draw):
    """A small LP for ``solve``.  Each row has its own denominator for its
    coefficients and another for its right-hand side, so rows enter at
    different scales; objective weights are fractions.  A right-hand side
    is sometimes the row's value at a fixed point x >= 0, which makes ratio
    ties, and an equality is sometimes drawn twice.  In about half of the
    LPs every right-hand side is then moved to hold at x = 0, so those
    reach the comparison with the reference; of the rest, the ones that
    x = 0 violates are refused.  Unbounded LPs come up as well as optimal
    ones."""
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
    if draw(st.booleans()):
        rows = ref.moved_to_origin(rows)
    return n, objective, rows


@settings(max_examples=400, deadline=None)
@given(_lps())
# x = 0 violates the last two rows, one over denominator 2: a refusal case.
@example((2, {}, [({0: Fraction(1)}, "<=", Fraction(1)),
                  ({0: Fraction(-1), 1: Fraction(1)}, "<=", Fraction(-1)),
                  ({1: Fraction(-1)}, "<=", Fraction(-1, 2))]))
def test_integer_rows_equal_the_fraction_reference(lp):
    _assert_equals_the_reference(lp)


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
    for (n_cols, objective, rows), got in calls:
        assert got == ref.reference_simplex_solve(n_cols, objective, ref.fraction_rows(rows))


@st.composite
def _kernel_lps(draw):
    """A small LP whose rows are mostly over denominator 1, whose
    right-hand sides are mostly 0, and whose numbers are ints or Fractions
    at random.  Most pivot entries are then 1 and most ratio tests tie, as
    on the entropy LPs; the other rows put denominators above 1 and pivot
    entries above 1 in the mix.  In about half of the LPs every right-hand
    side is moved to hold at x = 0, as in ``_lps``."""
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
    if draw(st.booleans()):
        rows = ref.moved_to_origin(rows)
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
    _assert_equals_the_reference(lp)


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
        _solve(*lp)
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    for fixture, mode in EXACT_SOLVES:
        g, _ = reduce(build_fdg(load_fixture(fixture)), mode)
        lpbound.lp_solve(lpbound.build_lp(g, Weights.of({1: 1, 2: 1})))
