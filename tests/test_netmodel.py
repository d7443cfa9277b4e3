import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdgtool import netmodel
from fdgtool.netmodel import (InvalidNetworkError, NetworkFormatError, Weights,
                              in_edges, load_fixture, out_edges, parse_network,
                              serialize_network, topological_order, validate)

from conftest import random_network, reference_topological_order, reference_validate


def doc(**overrides):
    base = {
        "nodes": ["s", "m", "t"],
        "edges": [
            {"id": "e1", "tail": "s", "head": "m", "cap": "1"},
            {"id": "e2", "tail": "m", "head": "t", "cap": "1"},
        ],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}],
    }
    base.update(overrides)
    return json.dumps(base)


def test_butterfly_fixture_shape(butterfly):
    assert len(butterfly.edges) == 7
    assert len(butterfly.sources) == 2
    assert len(butterfly.sinks) == 2
    assert validate(butterfly) == []


def test_malformed_json_rejected():
    with pytest.raises(NetworkFormatError, match="malformed"):
        parse_network("{not json")


def test_deeply_nested_json_rejected():
    with pytest.raises(NetworkFormatError, match="nested too deeply"):
        parse_network("[" * 200000 + "]" * 200000)


def test_unknown_key_rejected_unless_comment():
    with pytest.raises(NetworkFormatError, match="unknown key"):
        parse_network(doc(bogus=1))
    net = parse_network(json.dumps({**json.loads(doc()), "_note": "fine"}))
    assert len(net.edges) == 2


def test_capacity_must_be_string():
    bad = json.loads(doc())
    bad["edges"][0]["cap"] = 1
    with pytest.raises(NetworkFormatError, match="cap"):
        parse_network(json.dumps(bad))


def test_rational_and_decimal_capacities():
    good = json.loads(doc())
    good["edges"][0]["cap"] = "3/4"
    good["edges"][1]["cap"] = "0.5"
    net = parse_network(json.dumps(good))
    assert net.edges[0].cap == Fraction(3, 4)
    assert net.edges[1].cap == Fraction(1, 2)


@pytest.mark.parametrize("text", ["1e99999999", "2E-4301", "1.5e+9_999_999", "1e" + "9" * 5000])
def test_a_huge_decimal_exponent_is_refused_at_once(text):
    # Fraction would build the power of ten first: 1e10000000 alone takes about 12 s.
    bad = json.loads(doc())
    bad["edges"][0]["cap"] = text
    with pytest.raises(NetworkFormatError, match="bad capacity"):
        parse_network(json.dumps(bad))
    with pytest.raises(ValueError, match="digits"):
        Weights.parse(f"1,{text}")
    assert netmodel.parse_fraction("1e4300") == 10 ** 4300


def test_zero_edges_with_source_equal_sink_rejected():
    bad = json.dumps({
        "nodes": ["x"],
        "edges": [],
        "sources": [{"index": 1, "at": "x"}],
        "sinks": [{"at": "x", "demands": [1]}],
    })
    with pytest.raises(InvalidNetworkError, match="hosts both"):
        parse_network(bad)


def test_cycle_detected():
    bad = json.dumps({
        "nodes": ["s", "a", "b", "t"],
        "edges": [
            {"id": "e0", "tail": "s", "head": "a", "cap": "1"},
            {"id": "e1", "tail": "a", "head": "b", "cap": "1"},
            {"id": "e2", "tail": "b", "head": "a", "cap": "1"},
            {"id": "e3", "tail": "b", "head": "t", "cap": "1"},
        ],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}],
    })
    with pytest.raises(InvalidNetworkError, match="cycle detected"):
        parse_network(bad)


def test_validate_reports_all_violations_in_order():
    net = netmodel.Network(
        nodes=("s", "m", "t"),
        edges=(netmodel.Edge("e1", "m", "s", Fraction(1)),
               netmodel.Edge("e2", "t", "m", Fraction(-1))),
        sources=(netmodel.Source(1, "s"),),
        sinks=(netmodel.Sink("t", (1, 3)),),
    )
    violations = validate(net)
    assert any("negative capacity" in v for v in violations)
    assert any("In(S) nonempty" in v for v in violations)
    assert any("Out(T) nonempty" in v for v in violations)
    assert any("unknown source 3" in v for v in violations)
    assert violations == validate(net)


def test_source_index_range_enforced():
    bad = json.loads(doc())
    bad["sources"] = [{"index": 2, "at": "s"}]
    with pytest.raises(InvalidNetworkError, match="source indices"):
        parse_network(json.dumps(bad))


@pytest.mark.parametrize("name", netmodel.FIXTURE_NAMES)
def test_round_trip_all_fixtures(name):
    net = load_fixture(name)
    again = parse_network(serialize_network(net))
    assert again == net


def test_in_out_edges_on_butterfly(butterfly):
    assert in_edges(butterfly, "e_c") == ["e_a", "e_b"]
    assert out_edges(butterfly, "e_c") == ["e_d", "e_e"]
    assert in_edges(butterfly, "s1") == []
    assert out_edges(butterfly, "t1") == []
    assert in_edges(butterfly, "n") == ["e_c"]
    with pytest.raises(KeyError):
        in_edges(butterfly, "nope")


@pytest.mark.parametrize("name", netmodel.FIXTURE_NAMES)
def test_edge_level_in_out_identities(name):
    net = load_fixture(name)
    for e in net.edges:
        assert in_edges(net, e.id) == in_edges(net, e.tail)
        assert out_edges(net, e.id) == out_edges(net, e.head)


@pytest.mark.parametrize("name", netmodel.FIXTURE_NAMES)
def test_topological_order_stable(name):
    net = load_fixture(name)
    order = topological_order(net)
    assert sorted(order) == sorted(net.nodes)
    pos = {n: i for i, n in enumerate(order)}
    for e in net.edges:
        assert pos[e.tail] < pos[e.head]
    assert topological_order(parse_network(serialize_network(net))) == order


def test_weights_parse_and_validate(butterfly):
    w = Weights.parse("1,2")
    assert w.get(1) == 1 and w.get(2) == 2 and w.get(3) == 0
    w.check_against(butterfly)
    with pytest.raises(ValueError, match="negative"):
        Weights.of({1: -1})
    with pytest.raises(ValueError, match="unknown source"):
        Weights.parse("1,1,1").check_against(butterfly)


def _order_or_error(order, net):
    try:
        return order(net)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _same_as_reference(net):
    assert validate(net) == reference_validate(net)
    assert (_order_or_error(topological_order, net)
            == _order_or_error(reference_topological_order, net))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_checks_equal_the_reference_on_random_networks(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_edges=12)
    _same_as_reference(net)
    nodes = list(net.nodes)
    rng.shuffle(nodes)
    _same_as_reference(dataclasses.replace(net, nodes=tuple(nodes)))


@st.composite
def _malformed_network(draw):
    """Few node names, so duplicate ids, self-loops and cycles are common;
    ``x`` is never a node, so it makes unknown endpoints."""
    nodes = draw(st.lists(st.sampled_from("abcde"), max_size=7))
    ends = st.sampled_from([*nodes, "x"])
    indices = st.integers(0, 3)
    edges = draw(st.lists(st.builds(
        netmodel.Edge, st.sampled_from(["e1", "e2", "e3", "a"]), ends, ends,
        st.integers(-1, 2).map(Fraction)), max_size=10))
    sources = draw(st.lists(st.builds(netmodel.Source, indices, ends), max_size=3))
    sinks = draw(st.lists(st.builds(
        netmodel.Sink, ends, st.frozensets(indices).map(lambda d: tuple(sorted(d)))),
        max_size=3))
    return netmodel.Network(nodes=tuple(nodes), edges=tuple(edges),
                            sources=tuple(sources), sinks=tuple(sinks))


@settings(max_examples=1000, deadline=None)
@given(net=_malformed_network())
def test_checks_equal_the_reference_on_malformed_networks(net):
    _same_as_reference(net)
