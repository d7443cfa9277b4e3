"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; numeric checks on rationals are
exact equality.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from fdgtool import netmodel
from fdgtool.algebra import (Poly, build_transfer_system, reduction_stats,
                             solvability_search, transfer_matrix)
from fdgtool.fdg import build_fdg, cor1, cor2, cor3, cor4, reduce
from fdgtool.lpbound import build_lp, export_lp, lp_solve, lp_stats, verify_witness
from fdgtool.netmodel import Weights, load_fixture

from conftest import (_identity, _mat_mul, propagate_messages, random_network,
                      scipy_solve_exported, series_inverse)

W11 = Weights.of({1: 1, 2: 1})

WEIGHT_GRID_2 = [{1: 1, 2: 0}, {1: 0, 2: 1}, {1: 1, 2: 1}, {1: 1, 2: 2}, {1: 2, 2: 1}]


def report(criterion, text):
    print(f"[criterion {criterion}] {text}")


def test_criterion_1_butterfly_constraint_counting():
    """Original butterfly graph: exactly 4634 rows by 511 columns, under 5 s."""
    t0 = time.time()
    g = build_fdg(load_fixture("butterfly"))
    assert g.order == 9
    problem = build_lp(g, W11)
    stats = lp_stats(problem)
    elapsed = time.time() - t0
    assert stats.total == 4634
    assert problem.dimension == 511
    assert len(g.edge_vars()) == 7 and stats.counts["DECODE"] == 2
    assert elapsed < 5.0
    report(1, f"butterfly original LP is {stats.total} x {problem.dimension} "
              f"({elapsed:.2f}s) PASS")


def test_criterion_2_dimension_collapse():
    """Reduced butterfly LP dimension 31.

    Finding (recorded in the project notes): the order-5 reduced graph of
    the butterfly requires the linear-coding rules; the capacity rules alone
    stop at order 7 (dimension 127) because the four source-adjacent edge
    variables are protected by their source parents.  Both fixpoints are
    asserted; the headline dimension-31 problem is the linear-mode one.
    Our audited row count for it is 94 (85 elemental + 1 independence +
    3 encoding + 2 decoding + 3 capacity).
    """
    g = build_fdg(load_fixture("butterfly"))
    linear, _ = reduce(g, "linear")
    assert linear.order == 5
    p5 = build_lp(linear, W11)
    st5 = lp_stats(p5)
    assert p5.dimension == 31
    assert st5.total == 94
    assert st5.counts == {"ELEMENTAL1": 5, "ELEMENTAL2": 80, "INDEP": 1,
                          "ENCODE": 3, "DECODE": 2, "CAPACITY": 3}

    shannon, _ = reduce(g, "shannon")
    assert shannon.order == 7
    assert build_lp(shannon, W11).dimension == 127
    report(2, "reduced butterfly dimension 31 (94 rows audited); "
              "capacity-rule fixpoint is order 7 / dimension 127 PASS")


@pytest.mark.parametrize("name", ["butterfly", "two_unicast_side",
                                  "two_unicast_chain", "parallel_relay", "fano"])
def test_criterion_3_reduction_soundness(name):
    """Exact equality of LP optima, original graph versus capacity-reduced."""
    if name == "fano":
        pytest.skip(
            "fano original graph has N=21 (about 1.1e8 elemental rows) and its "
            "capacity-rule fixpoint has N=13 (159781 x 8191): both sides are "
            "beyond exact in-process solving and beyond honest export here; "
            "soundness for the same rules is covered on the other four "
            "fixtures, on random networks, and by the structural rule tests")
    net = load_fixture(name)
    g = build_fdg(net)
    reduced, _ = reduce(g, "shannon")
    for wmap in WEIGHT_GRID_2:
        w = Weights.of(wmap)
        a = lp_solve(build_lp(g, w))
        b = lp_solve(build_lp(reduced, w))
        assert a.status == b.status == "optimal"
        assert a.value == b.value, (name, wmap)
    report(3, f"{name}: optima match exactly on the 5-vector weight grid "
              f"(original N={g.order} vs reduced N={reduced.order}) PASS")


def test_criterion_3_external_solver_cross_check():
    """Exported original butterfly LP, solved externally, matches the exact
    in-process reduced optimum within float tolerance."""
    g = build_fdg(load_fixture("butterfly"))
    reduced, _ = reduce(g, "shannon")
    exact = lp_solve(build_lp(reduced, W11))
    external = scipy_solve_exported(export_lp(build_lp(g, W11)))
    assert abs(external - float(exact.value)) <= 1e-6 * max(1.0, abs(external))
    report(3, f"external solve of exported original ({external:.9f}) matches "
              f"exact reduced optimum {exact.value} PASS")


def test_criterion_4_two_unicast_chain_bound():
    """Linear-mode reduction exposes the funnel: one edge variable holds both
    source variables as children, and the sum-rate LP bound is exactly 1."""
    g = build_fdg(load_fixture("two_unicast_chain"))
    reduced, _ = reduce(g, "linear")
    funnel = [v for v in reduced.edge_vars()
              if {c.name for c in reduced.down(v)} >= {"Y1", "Y2"}]
    assert funnel, "no edge variable has both sources as children"
    assert funnel[0].name == "U:e8"
    sol = lp_solve(build_lp(reduced, W11))
    assert sol.status == "optimal"
    assert sol.value == 1
    report(4, f"{funnel[0].name} decodes both sources; sum-rate bound = 1 "
              f"exactly PASS")


def test_criterion_5_transfer_matrix_sizes_and_entries():
    """Reduced coding system: 15 indeterminates, 5x5 adjacency, and the
    expected transfer matrix entrywise; original: 28 indeterminates, 18x18;
    dimension reduction 46%."""
    g = build_fdg(load_fixture("fano"))
    original = build_transfer_system(g)
    assert original.indeterminate_count() == 28
    assert original.adjacency_dim == 18

    reduced_graph, _ = reduce(g, "linear")
    ts = build_transfer_system(reduced_graph)
    assert ts.indeterminate_count() == 15
    assert ts.adjacency_dim == 5

    stats = reduction_stats(original, ts)
    assert stats.var_reduction_pct == 46
    assert stats.complexity_reduction_pct == 92

    M = transfer_matrix(ts)

    def mono(*names):
        out = Poly.const(1)
        for n in names:
            out = out * Poly.var(n)
        return out

    a1, a2, a3 = "eps[Y1->e1]", "eps[Y1->e2]", "eps[Y2->e2]"
    a4, a5, a6 = "eps[Y2->e3]", "eps[Y3->e3]", "eps[Y3->e5]"
    b1, b2, b3 = "eps[e2->e4]", "eps[e2->e5]", "eps[e3->e4]"
    g1, g2, g3 = "eps[e1->t3:Y3]", "eps[e4->t3:Y3]", "eps[e4->t2:Y2]"
    g4, g5, g6 = "eps[e5->t2:Y2]", "eps[e5->t1:Y1]", "eps[e3->t1:Y1]"
    expected = (
        (mono(a2, b2, g5),
         mono(a2, b1, g3) + mono(a2, b2, g4),
         mono(a1, g1) + mono(a2, b1, g2)),
        (mono(a4, g6) + mono(a3, b2, g5),
         mono(a3, b1, g3) + mono(a4, b3, g3) + mono(a3, b2, g4),
         mono(a3, b1, g2) + mono(a4, b3, g2)),
        (mono(a5, g6) + mono(a6, g5),
         mono(a5, b3, g3) + mono(a6, g4),
         mono(a5, b3, g2)),
    )
    assert M == expected
    report(5, "reduced system 15 indeterminates / 5x5, original 28 / 18x18, "
              "46% dimension reduction, matrix matches entrywise PASS")


def test_criterion_6_characteristic_two_solvability():
    """GF(2) assignment found in under a second; GF(3) exhausts in under
    ten minutes (empirically seconds)."""
    g = build_fdg(load_fixture("fano"))
    ts = build_transfer_system(reduce(g, "linear")[0])
    M = transfer_matrix(ts)

    t0 = time.time()
    gf2 = solvability_search(M, ts.demand, 2, order=ts.indeterminates)
    gf2_time = time.time() - t0
    assert gf2.status == "found"
    assert gf2_time < 1.0
    for i, row in enumerate(M):
        for j, entry in enumerate(row):
            assert entry.eval_mod(gf2.assignment, 2) == ts.demand[i][j]

    t0 = time.time()
    gf3 = solvability_search(M, ts.demand, 3, order=ts.indeterminates)
    gf3_time = time.time() - t0
    assert gf3.status == "exhausted"
    assert gf3_time < 600.0
    report(6, f"GF(2) found in {gf2_time:.2f}s, GF(3) exhausted in "
              f"{gf3_time:.2f}s ({gf3.evaluations_tried} nodes) PASS")


UNIT_FIXTURES = ("butterfly", "two_unicast_side", "two_unicast_chain",
                 "parallel_relay", "fano", "single_edge")


def test_criterion_7a_rule_specialization_equivalence():
    """On unit-capacity graphs the unit rules equal the capacity rules,
    exhaustively over variables and over identical-neighborhood groups."""
    vars_checked = groups_checked = 0
    for name in UNIT_FIXTURES:
        g = build_fdg(load_fixture(name))
        for v in g.edge_vars():
            assert cor3(g, v) == cor1(g, v)
            vars_checked += 1
        classes = {}
        for v in g.edge_vars():
            classes.setdefault((frozenset(g.up(v)), frozenset(g.down(v))),
                               []).append(v)
        for members in classes.values():
            for size in range(1, len(members) + 1):
                for group in itertools.combinations(members, size):
                    assert cor4(g, group) == cor2(g, group)
                    groups_checked += 1
        for pair in itertools.combinations(g.edge_vars(), 2):
            assert cor4(g, pair) == cor2(g, pair)
            groups_checked += 1
    report("7a", f"unit rules match capacity rules on {vars_checked} variables "
                 f"and {groups_checked} groups PASS")


@pytest.mark.filterwarnings("ignore:source")
def test_criterion_7b_transfer_oracle_equivalence():
    """Transfer matrix equals independent forward propagation on 100 random
    acyclic networks with at most 8 edges; exact polynomial equality."""
    rng = random.Random(424242)
    for k in range(100):
        net = random_network(rng, max_edges=8)
        ts = build_transfer_system(build_fdg(net))
        want, slots = propagate_messages(net)
        assert ts.slots == slots
        assert transfer_matrix(ts) == want, f"network {k}"
    report("7b", "100 random networks: matrix equals propagation oracle PASS")


@pytest.mark.filterwarnings("ignore:source")
def test_criterion_7c_series_inverse_identity():
    """(I - F) times the truncated series is the identity on every system."""
    systems = []
    for name in UNIT_FIXTURES:
        g = build_fdg(load_fixture(name))
        systems.append(build_transfer_system(g))
        systems.append(build_transfer_system(reduce(g, "linear")[0]))
    rng = random.Random(7)
    for _ in range(20):
        systems.append(build_transfer_system(build_fdg(random_network(rng))))
    for ts in systems:
        n = ts.adjacency_dim
        I = _identity(n)
        ImF = tuple(tuple(I[i][j] - ts.F[i][j] for j in range(n))
                    for i in range(n))
        assert _mat_mul(ImF, series_inverse(ts)) == I
    report("7c", f"series identity holds on {len(systems)} systems PASS")


def test_criterion_7d_witness_feasibility_reverified():
    """Every optimal solve yields a witness that passes the independent
    row-by-row exact re-verification."""
    solves = 0
    for name in ("single_edge", "two_unicast_side", "parallel_relay",
                 "two_unicast_chain"):
        net = load_fixture(name)
        g = build_fdg(net)
        reduced, _ = reduce(g, "shannon")
        for graph in (g, reduced):
            for wmap in WEIGHT_GRID_2[:3]:
                w = Weights.of({k: v for k, v in wmap.items()
                                if any(s.index == k for s in net.sources)})
                p = build_lp(graph, w)
                sol = lp_solve(p)
                assert sol.status == "optimal"
                assert verify_witness(p, sol.witness) == []
                assert sum(c * sol.witness.get(m, Fraction(0))
                           for m, c in p.objective) == sol.value
                solves += 1
    report("7d", f"{solves} solves re-verified row by row PASS")


def test_criterion_7e_capacity_scaling_linearity():
    """Scaling all capacities by rational k scales the optimum by exactly k."""
    for name in ("single_edge", "two_unicast_side", "butterfly"):
        base_text = netmodel.fixture_text(name)
        net = netmodel.parse_network(base_text)
        w = Weights.of({s.index: 1 for s in net.sources})
        base = lp_solve(build_lp(build_fdg(net), w))
        for k in (Fraction(2), Fraction(1, 2), Fraction(3, 7)):
            scaled_text = base_text.replace('"cap": "1"', f'"cap": "{k}"')
            scaled_net = netmodel.parse_network(scaled_text)
            scaled = lp_solve(build_lp(build_fdg(scaled_net), w))
            assert scaled.value == k * base.value, (name, k)
    report("7e", "optimum scales linearly with capacities (k = 2, 1/2, 3/7) PASS")
