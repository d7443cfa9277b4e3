import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conftest as ref
from fdgtool import lpbound, netmodel
from fdgtool.fdg import build_fdg, reduce
from fdgtool.lpbound import (LpProblem, Row, build_lp, elemental_inequalities,
                             export_lp, graph_lp_stats, lp_solve, lp_stats,
                             verify_witness)
from fdgtool.netmodel import Weights, load_fixture, parse_network

from conftest import UNIT_FIXTURES, random_network, scipy_solve_exported

W11 = Weights.of({1: 1, 2: 1})
MODES = ("none", "shannon", "linear")
# Every fixture x reduce mode whose graph has N <= 10: the solves and exports
# of the benchmark's lp-certified workload.  Fano is N=21 unreduced and N=13
# after Shannon reduction.
SMALL_FIXTURE_MODES = [(f, m) for f in UNIT_FIXTURES for m in MODES
                       if not (f == "fano" and m != "linear")]
KNOWN_OPTIMA = {"butterfly": 2, "two_unicast_side": 1, "two_unicast_chain": 1,
                "parallel_relay": 1, "fano": 3, "single_edge": 1}
# The reduced LPs of the benchmark's lp-exact workload, which the exact
# simplex solves in about a second together.
EXACT_FIXTURE_MODES = [("parallel_relay", "shannon"), ("parallel_relay", "linear"),
                       ("two_unicast_chain", "shannon"), ("two_unicast_chain", "linear"),
                       ("two_unicast_side", "linear"), ("butterfly", "linear")]


def elemental_count_formula(n):
    return n + math.comb(n, 2) * 2 ** (n - 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_elemental_count_matches_formula(n):
    rows = elemental_inequalities(n)
    assert len(rows) == elemental_count_formula(n)


def test_elemental_rows_for_two_variables():
    rows = elemental_inequalities(2)
    as_sets = [dict(r.coeffs) for r in rows]
    assert as_sets == [
        {0b11: 1, 0b10: -1},            # h(AB) - h(B) >= 0
        {0b11: 1, 0b01: -1},            # h(AB) - h(A) >= 0
        {0b01: 1, 0b10: 1, 0b11: -1},   # h(A) + h(B) - h(AB) >= 0
    ]
    assert all(r.sense == ">=" and r.rhs == 0 for r in rows)


def test_elemental_generation_cap():
    with pytest.raises(ValueError, match="cap"):
        elemental_inequalities(25)
    with pytest.raises(ValueError, match="cap"):
        elemental_inequalities(7, cap=6)


def test_single_edge_problem_shape():
    g = build_fdg(load_fixture("single_edge"))
    p = build_lp(g, Weights.of({1: 1}))
    st = lp_stats(p)
    assert p.dimension == 3
    assert st.total == 7
    assert st.counts == {"ELEMENTAL1": 2, "ELEMENTAL2": 1, "INDEP": 1,
                         "ENCODE": 1, "DECODE": 1, "CAPACITY": 1}


def test_stats_computed_from_rows_not_formula():
    # single sink demanding two sources: decode rows follow demanded sources
    g = build_fdg(load_fixture("parallel_relay"))
    st = lp_stats(build_lp(g, W11))
    assert st.counts["DECODE"] == 2
    assert st.total == elemental_count_formula(7) + 1 + 5 + 5 + 2


@pytest.mark.parametrize("fixture,mode", SMALL_FIXTURE_MODES + [("fano", "shannon")])
def test_graph_stats_count_the_generated_rows(fixture, mode):
    g = build_fdg(load_fixture(fixture))
    if mode != "none":
        g, _ = reduce(g, mode)
    assert graph_lp_stats(g) == lp_stats(build_lp(g, Weights.of({1: 1})))


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["shannon", "linear"]))
def test_graph_stats_count_the_generated_rows_on_random_networks(seed, mode):
    g, _ = reduce(build_fdg(random_network(random.Random(seed))), mode)
    if g.order <= 12:
        assert graph_lp_stats(g) == lp_stats(build_lp(g, W11))


def test_dangling_edge_is_a_hard_error():
    net = parse_network(json.dumps({
        "nodes": ["s", "a", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "t", "cap": "1"},
                  {"id": "e2", "tail": "a", "head": "t", "cap": "1"}],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}],
    }))
    with pytest.raises(ValueError, match="no parents"):
        build_lp(build_fdg(net), Weights.of({1: 1}))
    with pytest.raises(ValueError, match="no parents"):
        graph_lp_stats(build_fdg(net))


def test_single_edge_optimum_is_the_capacity():
    for cap, want in [("1", Fraction(1)), ("3/7", Fraction(3, 7)), ("2.5", Fraction(5, 2))]:
        text = netmodel.fixture_text("single_edge").replace('"cap": "1"', f'"cap": "{cap}"')
        g = build_fdg(parse_network(text))
        sol = lp_solve(build_lp(g, Weights.of({1: 1})))
        assert sol.status == "optimal"
        assert sol.value == want
        assert sol.rate(1) == want


def test_witness_is_reverified_and_sparse():
    g = build_fdg(load_fixture("two_unicast_side"))
    p = build_lp(g, W11)
    sol = lp_solve(p)
    assert sol.status == "optimal"
    assert verify_witness(p, sol.witness) == []
    assert all(v != 0 for v in sol.witness.values())
    obj = sum(c * sol.witness.get(m, Fraction(0)) for m, c in p.objective)
    assert obj == sol.value


def test_exact_fallback_without_float_presolve(monkeypatch):
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    g = build_fdg(load_fixture("butterfly"))
    lin, _ = reduce(g, "linear")
    p = build_lp(lin, W11)
    sol = lp_solve(p)
    assert sol.status == "optimal" and sol.value == 2
    assert verify_witness(p, sol.witness) == []

    g2 = build_fdg(load_fixture("single_edge"))
    sol2 = lp_solve(build_lp(g2, Weights.of({1: 1})))
    assert sol2.value == 1


def test_certificate_and_fallback_agree(monkeypatch):
    g = build_fdg(load_fixture("two_unicast_side"))
    red, _ = reduce(g, "shannon")
    for wmap in [{1: 1, 2: 0}, {1: 1, 2: 1}, {1: 2, 2: 1}]:
        p = build_lp(red, Weights.of(wmap))
        fast = lp_solve(p)
        with monkeypatch.context() as m:
            m.setattr(lpbound, "_float_solve", lambda problem: None)
            slow = lp_solve(p)
        assert fast.status == slow.status == "optimal"
        assert fast.value == slow.value


def test_failed_certificate_reuses_the_float_solve(monkeypatch):
    calls = []
    float_solve = lpbound._float_solve
    monkeypatch.setattr(lpbound, "_float_solve",
                        lambda problem: calls.append(1) or float_solve(problem))
    monkeypatch.setattr(lpbound, "_dual_certifies", lambda *args: False)
    lin, _ = reduce(build_fdg(load_fixture("butterfly")), "linear")
    p = build_lp(lin, W11)
    sol = lp_solve(p)
    assert sol.status == "optimal" and sol.value == 2
    assert len(calls) == 1


def test_unbounded_when_a_weighted_source_is_undemanded(recwarn):
    net = parse_network(json.dumps({
        "nodes": ["s1", "s2", "t"],
        "edges": [{"id": "e1", "tail": "s1", "head": "t", "cap": "1"},
                  {"id": "e2", "tail": "s2", "head": "t", "cap": "1"}],
        "sources": [{"index": 1, "at": "s1"}, {"index": 2, "at": "s2"}],
        "sinks": [{"at": "t", "demands": [1]}],
    }))
    sol = lp_solve(build_lp(build_fdg(net), W11))
    assert sol.status == "unbounded"
    assert sol.value is None and sol.witness is None


def test_solve_cap_refusal_and_env_override(monkeypatch):
    g = build_fdg(load_fixture("butterfly"))
    p = build_lp(g, W11)
    with pytest.raises(ValueError, match="export"):
        lp_solve(p, max_n=5)
    monkeypatch.setenv(lpbound.MAX_N_ENV, "5")
    with pytest.raises(ValueError, match="FDGTOOL_MAX_N"):
        lp_solve(p)
    monkeypatch.setenv(lpbound.MAX_N_ENV, "16")
    assert lp_solve(p).value == 2


def test_capacity_scaling_linearity():
    for name in ["single_edge", "two_unicast_side", "butterfly"]:
        base_text = netmodel.fixture_text(name)
        weights = Weights.of({s.index: 1 for s in parse_network(base_text).sources})
        base = lp_solve(build_lp(build_fdg(parse_network(base_text)), weights))
        for k in (Fraction(2), Fraction(1, 2), Fraction(3, 7)):
            scaled_text = base_text.replace('"cap": "1"', f'"cap": "{k}"')
            scaled = lp_solve(build_lp(build_fdg(parse_network(scaled_text)), weights))
            assert scaled.value == k * base.value, (name, k)


def test_weight_monotonicity():
    g = build_fdg(load_fixture("two_unicast_side"))
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    last = None
    for w1 in grid:
        sol = lp_solve(build_lp(g, Weights.of({1: w1, 2: 1})))
        if last is not None:
            assert sol.value >= last
        last = sol.value


@pytest.mark.filterwarnings("ignore:source")
def test_reduction_preserves_optimum_on_random_networks():
    rng = random.Random(2024)
    checked = 0
    while checked < 6:
        net = random_network(rng, max_edges=5)
        g = build_fdg(net)
        if g.order > 7:
            continue
        reduced, trace = reduce(g, "shannon")
        if not trace.steps:
            continue
        demanded = {d for t in net.sinks for d in t.demands}
        w = Weights.of({s: 1 for s in demanded})
        a = lp_solve(build_lp(g, w))
        b = lp_solve(build_lp(reduced, w))
        assert a.status == b.status == "optimal"
        assert a.value == b.value
        checked += 1


def test_export_single_edge_exact_text():
    g = build_fdg(load_fixture("single_edge"))
    text = export_lp(build_lp(g, Weights.of({1: 1})))
    assert text == (
        "Maximize\n"
        " obj: h_1\n"
        "Subject To\n"
        " elem1_1: - h_2 + h_3 >= 0\n"
        " elem1_2: - h_1 + h_3 >= 0\n"
        " elem2_1: h_1 + h_2 - h_3 >= 0\n"
        " indep: 0 h_1 = 0\n"
        " enc_e1: - h_1 + h_3 = 0\n"
        " dec_1: - h_2 + h_3 = 0\n"
        " cap_e1: h_2 <= 1\n"
        "Bounds\n"
        " h_1 free\n"
        " h_2 free\n"
        " h_3 free\n"
        "End\n"
    )


def test_export_rational_rows_scaled_to_integers():
    text = netmodel.fixture_text("single_edge").replace('"cap": "1"', '"cap": "1/3"')
    g = build_fdg(parse_network(text))
    out = export_lp(build_lp(g, Weights.of({1: 1})))
    assert " cap_e1: 3 h_2 <= 1\n" in out
    text = netmodel.fixture_text("single_edge").replace('"cap": "1"', '"cap": "0.5"')
    g = build_fdg(parse_network(text))
    out = export_lp(build_lp(g, Weights.of({1: 1})))
    assert " cap_e1: h_2 <= 0.5\n" in out


def test_export_deterministic_and_complete():
    g = build_fdg(load_fixture("butterfly"))
    p = build_lp(g, W11)
    a = export_lp(p)
    b = export_lp(p)
    assert a == b
    lines = a.splitlines()
    n_rows = sum(1 for ln in lines[lines.index("Subject To") + 1:] if ln.startswith(" ") and ":" in ln)
    assert n_rows == 4634
    assert sum(1 for ln in lines if ln.endswith(" free")) == 511


def test_exported_problem_reproduces_exact_optimum():
    g = build_fdg(load_fixture("butterfly"))
    lin, _ = reduce(g, "linear")
    p = build_lp(lin, W11)
    sol = lp_solve(p)
    ext = scipy_solve_exported(export_lp(p))
    assert abs(ext - float(sol.value)) <= 1e-7


def test_export_with_fractional_weights_notes_scaling():
    g = build_fdg(load_fixture("single_edge"))
    p = build_lp(g, Weights.of({1: Fraction(1, 3)}))
    out = export_lp(p)
    assert out.startswith("\\ objective scaled by 3\n")
    ext = scipy_solve_exported(out)
    assert abs(ext - 1 / 3) <= 1e-9
    assert lp_solve(p).value == Fraction(1, 3)


def _fixture_problem(name, mode, weights=None, text=None):
    net = parse_network(text if text is not None else netmodel.fixture_text(name))
    graph = build_fdg(net)
    if mode != "none":
        graph, _ = reduce(graph, mode)
    if weights is None:
        weights = Weights.of({s.index: 1 for s in net.sources})
    return build_lp(graph, weights)


def _reference_cases(name, mode):
    """Unit weights, weights 1/3,2/7 and 0.5,1.25, and for modes that allow
    them fractional capacities: one exact decimal and one that needs integer
    scaling."""
    n_sources = len(parse_network(netmodel.fixture_text(name)).sources)
    thirds = Weights.of({1: Fraction(1, 3), 2: Fraction(2, 7)}
                        if n_sources > 1 else {1: Fraction(1, 3)})
    yield _fixture_problem(name, mode)
    yield _fixture_problem(name, mode, thirds)
    yield _fixture_problem(name, mode, Weights.of({1: Fraction(1, 2), 2: Fraction(5, 4)}
                                                  if n_sources > 1 else {1: Fraction(1, 2)}))
    if mode != "linear":  # linear reduction requires unit capacities
        text = netmodel.fixture_text(name).replace('"cap": "1"', '"cap": "2.5"', 1)
        text = text.replace('"cap": "1"', '"cap": "3/7"', 1)
        yield _fixture_problem(name, mode, thirds, text=text)


@pytest.mark.parametrize("n", range(1, 11))
def test_elemental_rows_equal_the_fraction_reference(n):
    rows = elemental_inequalities(n)
    assert rows == ref.elemental_inequalities(n)
    assert all(type(c) is Fraction for row in rows for _, c in row.coeffs)
    assert all(type(row.rhs) is Fraction for row in rows)


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_rows_and_export_equal_the_fraction_reference(fixture, mode):
    for p in _reference_cases(fixture, mode):
        elemental = ref.elemental_inequalities(p.n_vars)
        assert list(p.rows[:len(elemental)]) == elemental
        assert export_lp(p) == ref.export_lp(p)


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_float_solve_hands_linprog_the_reference_arrays(fixture, mode, monkeypatch):
    import scipy.optimize

    def same(a, b):
        if a is None or b is None:
            return a is b
        if hasattr(a, "tocsr"):
            return all(same(getattr(a, k), getattr(b, k))
                       for k in ("shape", "indptr", "indices", "data"))
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    calls = []

    def linprog(c, **kwargs):
        calls.append((c, kwargs))
        raise ValueError("arguments captured")  # _float_solve then returns None

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    for p in _reference_cases(fixture, mode):
        calls.clear()
        assert lpbound._float_solve(p) is None and len(calls) == 1
        (c, kwargs), (ref_c, ref_kwargs) = calls[0], ref.reference_linprog_inputs(p)
        assert same(c, ref_c)
        assert kwargs.keys() == ref_kwargs.keys()
        for key in ("A_ub", "b_ub", "A_eq", "b_eq"):
            assert same(kwargs[key], ref_kwargs[key]), key
        assert kwargs["bounds"] == ref_kwargs["bounds"] == (0, None)
        assert kwargs["method"] == ref_kwargs["method"] == "highs"


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def _rows_and_points(draw):
    """A problem of random rows over N <= 3 and a sparse point whose values
    include zeros, negatives and fractions.  A row's right-hand side is
    sometimes its exact value at the point, so the boundary of every sense
    is hit."""
    n = draw(st.integers(1, 3))
    masks = st.integers(1, (1 << n) - 1)
    point = draw(st.dictionaries(masks, _RATIONALS, max_size=(1 << n) - 1))
    rows = []
    for k in range(draw(st.integers(1, 8))):
        coeffs = tuple(sorted(draw(st.dictionaries(
            masks, _RATIONALS.filter(bool), max_size=(1 << n) - 1)).items()))
        rhs = draw(st.one_of(_RATIONALS, st.none()))
        if rhs is None:
            rhs = ref._eval_row(coeffs, point)
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        rows.append(Row(f"r{k}", "TEST", coeffs, sense, rhs))
    problem = LpProblem(n_vars=n, var_names=tuple(f"v{i}" for i in range(n)),
                        source_masks=(), objective=(), rows=tuple(rows))
    return problem, point


@settings(max_examples=300, deadline=None)
@given(_rows_and_points())
def test_integer_row_checks_equal_the_fraction_reference(case):
    problem, point = case
    assert verify_witness(problem, point) == ref.verify_witness(problem, point)
    assert lpbound._violated_rows(problem, point, ray=True) == [
        i for i, row in enumerate(problem.rows)
        if ref._ray_violates(row, ref._eval_row(row.coeffs, point))]


@st.composite
def _dual_checks(draw):
    """Arguments for ``_dual_certifies`` over random rows with fractional
    coefficients and right-hand sides.  The objective and the value are the
    dual's own column sums and objective, each sometimes moved off them, so
    the check both passes and fails."""
    problem, _ = draw(_rows_and_points())
    ub_idx = [i for i, row in enumerate(problem.rows) if row.sense != "="]
    eq_idx = [i for i, row in enumerate(problem.rows) if row.sense == "="]
    u = [abs(draw(_RATIONALS)) for _ in ub_idx]
    v = [draw(_RATIONALS) for _ in eq_idx]
    sums, value = {}, Fraction(0)
    for q, i in [*zip(u, ub_idx), *zip(v, eq_idx)]:
        row = problem.rows[i]
        q = -q if row.sense == ">=" else q
        for mask, c in row.coeffs:
            sums[mask] = sums.get(mask, Fraction(0)) + q * c
        value += q * row.rhs
    objective = tuple((mask, s - draw(st.sampled_from([0, 0, Fraction(1, 7), -1])))
                      for mask, s in sorted(sums.items()))
    value += draw(st.sampled_from([0, 0, Fraction(1, 3)]))
    problem = LpProblem(n_vars=problem.n_vars, var_names=problem.var_names,
                        source_masks=(), objective=objective, rows=problem.rows)
    return problem, ub_idx, eq_idx, u, v, value


@settings(max_examples=300, deadline=None)
@given(_dual_checks())
def test_integer_dual_check_equals_the_fraction_reference(args):
    assert lpbound._dual_certifies(*args) == ref._dual_certifies(*args)


def test_negative_float_multipliers_never_certify():
    # max h_1 s.t. h_1 <= 2, h_1 >= 0.  The point h_1 = 1 is feasible but not
    # optimal; only a negative multiplier on the >= row would "certify" it.
    from types import SimpleNamespace
    rows = (Row("upper", lpbound.CAPACITY, ((1, Fraction(1)),), "<=", Fraction(2)),
            Row("lower", lpbound.CAPACITY, ((1, Fraction(1)),), ">=", Fraction(0)))
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=(),
                        objective=((1, Fraction(1)),), rows=rows)
    res = SimpleNamespace(success=True, x=np.array([1.0]),
                          ineqlin=SimpleNamespace(marginals=np.array([-0.5, 0.5])))
    assert lpbound._dual_certifies(problem, [0, 1], [], [Fraction(1, 2), Fraction(-1, 2)],
                                   [], Fraction(1))
    assert lpbound._certified_from_float(problem, (res, [0, 1], [])) is None


def test_a_witness_that_rounds_only_at_the_first_limit_certifies():
    # HiGHS's value for 11521/3000 in a column of the reduced LP of a
    # 9-edge network (nodes s1 s2 m1 m2 t1 t2, capacities 3/2, 1/2, 2/7,
    # 1/3, 5/11, 2, 7/1000, 2, 5/11) under -w 2/7,2/7.  It rounds back to
    # 11521/3000 at 10^4; at 10^8 it rounds to a point that is feasible
    # but not optimal, so no dual certifies it.
    from types import SimpleNamespace
    cap = Fraction(11521, 3000)
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=(),
                        objective=((1, Fraction(1)),),
                        rows=(Row("upper", lpbound.CAPACITY, ((1, Fraction(1)),), "<=", cap),))
    res = SimpleNamespace(success=True, x=np.array([3.840333333331596]),
                          ineqlin=SimpleNamespace(marginals=np.array([-1.0])))
    sol = lpbound._certified_from_float(problem, (res, [0], []))
    assert sol is not None and sol.method == "certificate"
    assert sol.value == cap


def _first_capacity_set(name, cap):
    doc = json.loads(netmodel.fixture_text(name))
    doc["edges"][0]["cap"] = cap
    return build_fdg(parse_network(json.dumps(doc)))


@pytest.mark.parametrize("name, cap, weights, value", [
    # At 10^4 the witness rounds to 0, which no dual certifies.
    ("single_edge", "1/123457", {1: 1}, Fraction(1, 123457)),
    # The witness rounds at 10^4, the dual only at 10^8.
    ("two_unicast_chain", "1/9973", {1: Fraction(1, 3), 2: Fraction(2, 7)},
     Fraction(59839, 209433)),
])
def test_rounding_limits_certify(name, cap, weights, value, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the exact simplex ran: the certificate failed")
    monkeypatch.setattr(lpbound.simplex, "solve", solve)
    sol = lp_solve(build_lp(_first_capacity_set(name, cap), Weights.of(weights)))
    assert sol.status == "optimal" and sol.method == "certificate"
    assert sol.value == value


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_benchmark_solves_answer_by_certificate(fixture, mode, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the exact simplex ran: the certificate failed")
    monkeypatch.setattr(lpbound.simplex, "solve", solve)
    sol = lp_solve(_fixture_problem(fixture, mode))
    assert sol.status == "optimal" and sol.value == KNOWN_OPTIMA[fixture]
    assert sol.method == "certificate"


@pytest.mark.parametrize("fixture, mode", EXACT_FIXTURE_MODES)
def test_solves_without_the_float_solve_answer_exactly(fixture, mode, monkeypatch):
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    sol = lp_solve(_fixture_problem(fixture, mode))
    assert sol.status == "optimal" and sol.value == KNOWN_OPTIMA[fixture]
    assert sol.method == "exact"
