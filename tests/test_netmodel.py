import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(NetworkFormatError, match="^top-level JSON value must be an object$"):
        parse_network("[]")


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


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
def test_a_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="^zero denominator$"):
        netmodel.parse_fraction(text)
    with pytest.raises(ValueError, match="^zero denominator$"):
        Weights.parse(f"1,{text}")
    bad = json.loads(doc())
    bad["edges"][0]["cap"] = text
    with pytest.raises(NetworkFormatError) as refused:
        parse_network(json.dumps(bad))
    assert str(refused.value) == f"bad capacity {text!r}: zero denominator"


def test_fraction_from_text_reads_what_fraction_text_prints():
    # 10**4300 prints as 4301 digits, past Python's default limit on integer strings.
    for q in (Fraction(0), Fraction(-7, 3), Fraction(10 ** 4300), Fraction(3, 10 ** 4300 + 1)):
        assert netmodel.fraction_from_text(netmodel.fraction_text(q)) == q
    for text in ("abc", "1/x", ""):
        with pytest.raises(ValueError):
            netmodel.fraction_from_text(text)


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
    validate(net).clear()
    assert validate(net) == violations


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


@pytest.mark.parametrize("cap", ["1e4300", "25e4299", "1e-4300", "1234.5e-4300"])
def test_a_capacity_past_the_digit_limit_round_trips(cap):
    # str() of each raises: a numerator or denominator has 4301 digits or more.
    net = parse_network(doc(edges=[{"id": "e1", "tail": "s", "head": "m", "cap": cap},
                                   {"id": "e2", "tail": "m", "head": "t", "cap": "1"}]))
    text = serialize_network(net)
    assert [e["cap"] for e in json.loads(text)["edges"]] == [cap, "1"]
    assert parse_network(text) == net


_ODD_NAMES = netmodel.Network(
    nodes=("s", "é\u0001", "☃ t"),
    edges=(netmodel.Edge("e\"1\\", "s", "é\u0001", Fraction(-1, 3)),
           netmodel.Edge("\U0001f600", "é\u0001", "☃ t", Fraction(10) ** 4300)),
    sources=(netmodel.Source(1, "s"),),
    sinks=(netmodel.Sink("☃ t", ()),))

# SHA-256 of ``serialize_network``, recorded while it was
# ``json.dumps(doc, indent=2, sort_keys=True)``.  ``odd-names`` is
# ``_ODD_NAMES``: non-ASCII and control characters, quotes and a backslash
# in names, a negative capacity, one past the digit limit and no demands.
_SERIALIZED_DIGESTS = {
    "butterfly":
        "5d83373f55802e356cf150002b82ecae07be3c7efeb1aae32d7ea00588330140",
    "two_unicast_side":
        "6b66b48f4a20c41ff56ca0a6f391039ef10ea8b95bd54dab6f1c43fde3a5079e",
    "two_unicast_chain":
        "1c6beee4059cd4261538230475e7a5c4a13c60633ed9dacd7f3141aac921aad4",
    "parallel_relay":
        "da1261a57e667a62fecd26fbb19de243c394362856a3c2b129732c77e483535e",
    "fano":
        "dfcecfd56192c2f1ec9ede79ecfd885e256fb9b042a8530fafd6c9dd59f19eea",
    "single_edge":
        "ce07ca5557a70c78a9e985a123f914ff1fedbc1f5cbce647b9b20814f376f8da",
    "odd-names":
        "5ec83fe09bee467b29f8131c753958b6f42cddb6e971249133c4931817748142",
}


@pytest.mark.parametrize("name", _SERIALIZED_DIGESTS)
def test_serialized_networks_are_pinned(name):
    net = _ODD_NAMES if name == "odd-names" else load_fixture(name)
    text = serialize_network(net)
    assert hashlib.sha256(text.encode()).hexdigest() == _SERIALIZED_DIGESTS[name]


# Any code point, surrogates included, and the characters JSON escapes.
_TEXT = st.text(st.characters(blacklist_categories=())
                | st.sampled_from('"\\/\x00\x1f\x7f\ud800é☃'), max_size=6)
_KEYS = (_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
         | st.tuples(st.integers()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | _TEXT
    | st.integers() | st.integers(min_value=10 ** 100) | st.integers(max_value=-10 ** 120),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)
                      | st.dictionaries(_KEYS, children, max_size=3)),
    max_leaves=40)


def _nested(depth: int):
    """``depth`` lists and dicts, each holding the next and a string."""
    value = []
    for level in range(depth):
        value = [value, "x"] if level % 2 else {"k": value, "ü": ()}
    return value


def _text_or_error(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
@example(value=_nested(150))
@example(value={"a": [], "b": {}, "c": (), "d": [[]], "e": [{}], "f": ["", 0, 10 ** 300]})
@example(value=[True, 1, 1.0, None, "1"])
@example(value={1: "int", 2.5: "float", None: "null"})
@example(value={True: 1, False: 0})
@example(value={"a": 1, 2: "b"})
@example(value=[object()])
@example(value={(1,): 1})
@example(value=[10 ** 4300])
@example(value=[float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
def test_the_writer_writes_what_json_dumps_writes(value):
    assert (_text_or_error(netmodel._json_text, value)
            == _text_or_error(lambda v: json.dumps(v, indent=2, sort_keys=True), value))


_CAP_TEXTS = ["1", "2", "1/3", "0.25", "7e-2", "1e4300"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_serialized_network_parses_back_to_itself(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_edges=12)
    assert parse_network(serialize_network(net)) == net
    net = dataclasses.replace(net, edges=tuple(
        dataclasses.replace(e, cap=netmodel.parse_fraction(rng.choice(_CAP_TEXTS)))
        for e in net.edges))
    assert parse_network(serialize_network(net)) == net


def test_a_repeated_bad_capacity_is_refused_on_each_edge():
    # The first edge's text is read once per document; a later edge with the
    # same good text, then a bad text seen twice, gives the same error.
    good = json.loads(doc())
    good["edges"].append({"id": "e3", "tail": "s", "head": "t", "cap": "1"})
    assert [e.cap for e in parse_network(json.dumps(good)).edges] == [1, 1, 1]
    for first in ("1", "x/2"):
        bad = json.loads(doc())
        bad["edges"][0]["cap"] = first
        bad["edges"][1]["cap"] = "x/2"
        bad["edges"].append({"id": "e3", "tail": "s", "head": "t", "cap": "x/2"})
        with pytest.raises(NetworkFormatError) as refused:
            parse_network(json.dumps(bad))
        assert str(refused.value) == "bad capacity 'x/2': Invalid literal for Fraction: 'x/2'"


def test_in_out_edges_on_butterfly(butterfly):
    assert in_edges(butterfly, "e_c") == ["e_a", "e_b"]
    assert out_edges(butterfly, "e_c") == ["e_d", "e_e"]
    assert in_edges(butterfly, "s1") == []
    assert out_edges(butterfly, "t1") == []
    assert in_edges(butterfly, "n") == ["e_c"]
    with pytest.raises(KeyError):
        in_edges(butterfly, "nope")
    with pytest.raises(KeyError, match="unknown node or edge id: 'nope'"):
        out_edges(butterfly, "nope")


def test_edge_looks_an_edge_up_by_id(butterfly):
    assert butterfly.edge("e_c") is butterfly.edges[2]
    with pytest.raises(KeyError, match="unknown edge id: 'nope'"):
        butterfly.edge("nope")


def test_fixture_text_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="unknown fixture 'nope'; have "):
        netmodel.fixture_text("nope")


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
        # -(10**4301) prints past the int-to-string digit limit.
        st.sampled_from([-1, 0, 1, 2, -(10 ** 4301)]).map(Fraction)), max_size=10))
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
