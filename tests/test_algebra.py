import itertools
import random
import time

import pytest

from fdgtool import netmodel
from fdgtool.algebra import (Poly, TransferSystem, build_transfer_system,
                             reduction_stats, solvability_search, transfer_matrix)
from fdgtool.fdg import build_fdg, reduce
from fdgtool.netmodel import load_fixture, parse_network

from conftest import (UNIT_FIXTURES, _identity, _mat_mul, nilpotency_index,
                      propagate_messages, random_network, series_inverse,
                      series_transfer_matrix)


def random_poly(rng, names, max_terms=4):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        mono = Poly.const(rng.randint(-3, 3))
        for name in rng.sample(names, rng.randint(0, 2)):
            mono = mono * Poly.var(name)
        p = p + mono
    return p


@pytest.mark.parametrize("seed", range(3))
def test_ring_laws(seed):
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    for _ in range(40):
        a, b, c = (random_poly(rng, names) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero()
        assert a * Poly.const(1) == a
        assert a * Poly.zero() == Poly.zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_evaluation_is_a_ring_homomorphism(p):
    rng = random.Random(p)
    names = ["x", "y", "z"]
    for _ in range(30):
        a, b, c = (random_poly(rng, names) for _ in range(3))
        assign = {n: rng.randrange(p) for n in names}
        lhs = (a * b + c).eval_mod(assign, p)
        rhs = (a.eval_mod(assign, p) * b.eval_mod(assign, p)
               + c.eval_mod(assign, p)) % p
        assert lhs == rhs


def test_poly_render():
    p = Poly.var("a") * Poly.var("b") + Poly.const(-2) * Poly.var("c")
    assert p.render() == "a*b - 2*c"
    assert Poly.zero().render() == "0"


_x, _y, _z = (Poly.var(name) for name in "xyz")


# Transfer matrices are multilinear, so only these pin how powers print.
# A term sorts by its (name, exponent) pairs: x*y comes before x^2.
@pytest.mark.parametrize("poly, text, values", [
    (_x * _x, "x^2", [0, 1, 4, 4, 1]),
    (_x * _x * _x * _y * _y - Poly.const(1), "-1 + x^3*y^2", [1, 2, 1, 1, 5]),
    (_x * _x + _x * _y, "x*y + x^2", [0, 1, 0, 3, 0]),
    ((_x + _y) * (_x + _y) * (_x + _y), "3*x*y^2 + 3*x^2*y + x^3 + y^3", [1, 2, 0, 6, 0]),
    ((_x - _y) * (_x - _y) * _z - Poly.const(2), "-2 - 2*x*y*z + x^2*z + y^2*z",
     [0, 2, 2, 2, 4]),
    (Poly.const(7) - Poly.const(3) * _x * _x * _z - _y * _y * _y, "7 - 3*x^2*z - y^3",
     [0, 1, 2, 2, 5]),
])
def test_poly_render_and_evaluation_with_powers(poly, text, values):
    assert poly.render() == text
    at = {"x": 2, "y": 3, "z": 4}
    assert [poly.eval_mod(at, p) for p in (2, 3, 5, 7)] == values[:4]
    assert poly.eval_mod({"x": 6, "y": 1, "z": 5}, 7) == values[4]


def test_a_merging_rename_is_canonical():
    square = (_x * _y).rename({"x": "y"})
    assert square == _y * _y
    assert square.render() == "y^2"
    assert square.eval_mod({"y": 3}, 5) == 4
    merged = (_x * _y + _y * _y).rename({"x": "y"})
    assert merged == Poly.const(2) * _y * _y
    assert merged.render() == "2*y^2"


def test_fano_system_sizes():
    g = build_fdg(load_fixture("fano"))
    original = build_transfer_system(g)
    assert original.indeterminate_count() == 28
    assert original.adjacency_dim == 18
    reduced = build_transfer_system(reduce(g, "linear")[0])
    assert reduced.indeterminate_count() == 15
    assert reduced.adjacency_dim == 5
    stats = reduction_stats(original, reduced)
    assert stats.var_reduction_pct == 46
    assert stats.complexity_reduction_pct == 92
    assert reduction_stats(original, original).var_reduction_pct == 0


def test_sparsity_mirrors_dependence_edges():
    g = build_fdg(load_fixture("fano"))
    ts = build_transfer_system(g)
    nz = (sum(1 for row in ts.A for e in row if e)
          + sum(1 for row in ts.F for e in row if e)
          + sum(1 for row in ts.B for e in row if e))
    assert nz == ts.indeterminate_count() == g.dependence_edge_count()


def test_adjacency_is_strictly_triangular_in_topological_order():
    g = build_fdg(load_fixture("fano"))
    ts = build_transfer_system(g)
    order = {}
    # edge variables in dependence order: a nonzero F entry must point forward
    depth = nilpotency_index(ts)
    assert depth >= 1
    for i, j in itertools.product(range(ts.adjacency_dim), repeat=2):
        if ts.F[i][j]:
            order.setdefault(i, set()).add(j)
    def reaches(i, j):
        return any(k == j or reaches(k, j) for k in order.get(i, ()))
    for i in order:
        assert not reaches(i, i)


def test_single_edge_matrix_is_a_times_b():
    g = build_fdg(load_fixture("single_edge"))
    ts = build_transfer_system(g)
    M = transfer_matrix(ts)
    expected = Poly.var("eps[Y1->e1]") * Poly.var("eps[e1->t:Y1]")
    assert M == ((expected,),)
    found = solvability_search(M, ts.demand, 2, order=ts.indeterminates)
    assert found.status == "found"
    assert found.assignment == {"eps[Y1->e1]": 1, "eps[e1->t:Y1]": 1}


def test_non_unit_capacity_refused():
    text = netmodel.fixture_text("single_edge").replace('"cap": "1"', '"cap": "2"')
    g = build_fdg(parse_network(text))
    with pytest.raises(ValueError, match="unit"):
        build_transfer_system(g)


@pytest.mark.filterwarnings("ignore:source")
def test_transfer_matrix_matches_forward_propagation_oracle():
    rng = random.Random(99)
    for _ in range(100):
        net = random_network(rng, max_edges=8)
        g = build_fdg(net)
        ts = build_transfer_system(g)
        got = transfer_matrix(ts)
        want, slots = propagate_messages(net)
        assert ts.slots == slots
        assert got == want


@pytest.mark.filterwarnings("ignore:source")
def test_series_inverse_identity_on_fixtures_and_random():
    systems = []
    for name in ("fano", "butterfly", "two_unicast_chain"):
        g = build_fdg(load_fixture(name))
        systems.append(build_transfer_system(g))
        systems.append(build_transfer_system(reduce(g, "linear")[0]))
    rng = random.Random(5)
    for _ in range(20):
        systems.append(build_transfer_system(build_fdg(random_network(rng))))
    for ts in systems:
        n = ts.adjacency_dim
        inv = series_inverse(ts)
        I = _identity(n)
        ImF = tuple(tuple(I[i][j] - ts.F[i][j] for j in range(n)) for i in range(n))
        assert _mat_mul(ImF, inv) == I


@pytest.mark.parametrize("mode", ["none", "shannon", "linear"])
@pytest.mark.parametrize("name", UNIT_FIXTURES)
def test_transfer_matrix_equals_series_reference_on_fixtures(name, mode):
    g = build_fdg(load_fixture(name))
    if mode != "none":
        g = reduce(g, mode)[0]
    ts = build_transfer_system(g)
    assert transfer_matrix(ts) == series_transfer_matrix(ts)


@pytest.mark.filterwarnings("ignore:source")
def test_transfer_matrix_equals_series_reference_on_random_networks():
    rng = random.Random(2003)
    for _ in range(100):
        ts = build_transfer_system(build_fdg(random_network(rng)))
        assert transfer_matrix(ts) == series_transfer_matrix(ts)


def test_cyclic_adjacency_is_refused():
    a, f1, f2, b = (Poly.var(name) for name in ("a", "f1", "f2", "b"))
    zero = Poly.zero()
    ts = TransferSystem(source_indices=(1,), edge_ids=("e1", "e2"), slots=(("t", 1),),
                        A=((a, zero),), F=((zero, f1), (f2, zero)), B=((b,), (zero,)),
                        demand=((1,),), indeterminates=("a", "f1", "f2", "b"))
    with pytest.raises(ValueError, match="cycle"):
        transfer_matrix(ts)


def fano_reduced_system():
    g = build_fdg(load_fixture("fano"))
    return build_transfer_system(reduce(g, "linear")[0])


def test_search_caps_and_argument_checks():
    ts = fano_reduced_system()
    M = transfer_matrix(ts)
    with pytest.raises(ValueError, match="not prime"):
        solvability_search(M, ts.demand, 4)
    with pytest.raises(ValueError, match="cap"):
        solvability_search(M, ts.demand, 11)
    with pytest.raises(ValueError, match="cap"):
        solvability_search(M, ts.demand, 2, indet_cap=10)
    with pytest.raises(ValueError, match="pinned"):
        solvability_search(M, ts.demand, 2, pinned={"nope": 1})


def test_pinning_restricts_the_search():
    g = build_fdg(load_fixture("single_edge"))
    ts = build_transfer_system(g)
    M = transfer_matrix(ts)
    blocked = solvability_search(M, ts.demand, 2, order=ts.indeterminates,
                                 pinned={"eps[Y1->e1]": 0})
    assert blocked.status == "exhausted"
    ok = solvability_search(M, ts.demand, 2, order=ts.indeterminates,
                            pinned={"eps[Y1->e1]": 1})
    assert ok.status == "found"


def test_search_agrees_with_brute_force_on_small_system():
    g = build_fdg(load_fixture("two_unicast_chain"))
    ts = build_transfer_system(reduce(g, "linear")[0])
    M = transfer_matrix(ts)
    for p in (2, 3):
        got = solvability_search(M, ts.demand, p, order=ts.indeterminates)
        brute = None
        for values in itertools.product(range(p), repeat=len(ts.indeterminates)):
            assign = dict(zip(ts.indeterminates, values))
            if all(M[i][j].eval_mod(assign, p) == ts.demand[i][j]
                   for i in range(len(M)) for j in range(len(M[0]))):
                brute = assign
                break
        if brute is None:
            assert got.status == "exhausted"
        else:
            assert got.status == "found"
            assert got.assignment == brute  # lexicographically smallest


def test_search_is_structural_not_name_dependent():
    ts = fano_reduced_system()
    M = transfer_matrix(ts)
    base = solvability_search(M, ts.demand, 2, order=ts.indeterminates)
    assert base.status == "found"
    mapping = {n: f"w{i}" for i, n in enumerate(ts.indeterminates)}
    renamed_M = tuple(tuple(e.rename(mapping) for e in row) for row in M)
    renamed_order = tuple(mapping[n] for n in ts.indeterminates)
    renamed = solvability_search(renamed_M, ts.demand, 2, order=renamed_order)
    assert renamed.status == "found"
    assert renamed.assignment == {mapping[k]: v for k, v in base.assignment.items()}


def test_characteristic_two_solvability():
    ts = fano_reduced_system()
    M = transfer_matrix(ts)
    t0 = time.time()
    gf2 = solvability_search(M, ts.demand, 2, order=ts.indeterminates)
    assert gf2.status == "found"
    assert time.time() - t0 < 5
    assign = gf2.assignment
    for i in range(3):
        for j in range(3):
            assert M[i][j].eval_mod(assign, 2) == ts.demand[i][j]
    gf3 = solvability_search(M, ts.demand, 3, order=ts.indeterminates)
    assert gf3.status == "exhausted"
