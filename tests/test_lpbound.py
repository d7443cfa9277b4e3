import json
import math
import random
from fractions import Fraction

import pytest

from fdgtool import lpbound, netmodel
from fdgtool.fdg import build_fdg, reduce
from fdgtool.lpbound import (build_lp, elemental_inequalities, export_lp,
                             lp_solve, lp_stats, verify_witness)
from fdgtool.netmodel import Weights, load_fixture, parse_network

from conftest import random_network, scipy_solve_exported

W11 = Weights.of({1: 1, 2: 1})


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
