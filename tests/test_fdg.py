import dataclasses
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fdgtool import fdg as F
from fdgtool import netmodel
from fdgtool.fdg import (EdgeVar, Fdg, ReductionTrace, SourceVar,
                         UnitCapacityError, build_fdg, cor1, cor2, cor3, cor4,
                         cor5a, cor5b, reduce, remove_group, remove_var, removable,
                         replay)
from fdgtool.netmodel import in_edges, load_fixture, parse_network

from conftest import (FORGED_STEPS, UNIT_FIXTURES, head_first_path_text, random_network,
                      reference_reduce, reference_removable, reference_replay, relay_grid)


def test_orders_match_edge_plus_source_count():
    for name in netmodel.FIXTURE_NAMES:
        net = load_fixture(name)
        g = build_fdg(net)
        assert g.order == len(net.edges) + len(net.sources)


def test_single_edge_two_cycle():
    g = build_fdg(load_fixture("single_edge"))
    assert g.order == 2
    y, u = g.var_by_name("Y1"), g.var_by_name("U:e1")
    assert g.up(u) == (y,)
    assert g.up(y) == (u,)


@pytest.mark.parametrize("net", [
    *(pytest.param(load_fixture(name), id=name) for name in netmodel.FIXTURE_NAMES),
    *(pytest.param(random_network(random.Random(seed), max_edges=12), id=f"random{seed}")
      for seed in range(40))])
def test_parent_sets_mirror_network_structure(net, recwarn):
    g = build_fdg(net)
    for e in net.edges:
        v = g.var_by_name(f"U:{e.id}")
        hosted = net.sources_at(e.tail)
        if hosted:
            assert set(g.up(v)) == {SourceVar(s.index) for s in hosted}
        else:
            assert set(p.name for p in g.up(v)) == {
                f"U:{f}" for f in in_edges(net, e.id)}
    for s in net.sources:
        y = g.var_by_name(f"Y{s.index}")
        expected = set()
        for t in net.sinks:
            if s.index in t.demands:
                expected |= {f"U:{eid}" for eid in in_edges(net, t.at)}
        assert {p.name for p in g.up(y)} == expected


@pytest.mark.parametrize("name", netmodel.FIXTURE_NAMES)
def test_every_demanded_source_on_a_cycle(name):
    g = build_fdg(load_fixture(name))
    for y in g.source_vars():
        frontier = set(g.down(y))
        seen = set(frontier)
        while frontier and y not in seen:
            nxt = set()
            for v in frontier:
                for c in g.down(v):
                    if c not in seen:
                        seen.add(c)
                        nxt.add(c)
            frontier = nxt
        assert y in seen, f"{y.name} not on a cycle in {name}"


def test_build_fdg_reuses_the_checks_parse_network_ran(monkeypatch):
    calls = []
    check = netmodel._check_network
    monkeypatch.setattr(netmodel, "_check_network", lambda net: calls.append(net) or check(net))
    net = parse_network(netmodel.fixture_text("butterfly"))
    build_fdg(net)
    build_fdg(net)
    assert len(calls) == 1


def test_build_fdg_refuses_a_hand_built_invalid_network():
    net = dataclasses.replace(load_fixture("butterfly"), sinks=())
    with pytest.raises(ValueError) as refused:
        build_fdg(net)
    assert str(refused.value) == "invalid network: network has no sinks"


def test_shared_demand_merges_decoder_inputs():
    # two sinks demanding the same source: its variable conditions on the
    # union of both sinks' in-edges
    net = netmodel.parse_network(json.dumps({
        "nodes": ["s", "a", "t1", "t2"],
        "edges": [{"id": "e1", "tail": "s", "head": "a", "cap": "1"},
                  {"id": "e2", "tail": "a", "head": "t1", "cap": "1"},
                  {"id": "e3", "tail": "a", "head": "t2", "cap": "1"}],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t1", "demands": [1]}, {"at": "t2", "demands": [1]}],
    }))
    g = build_fdg(net)
    y = g.var_by_name("Y1")
    assert {p.name for p in g.up(y)} == {"U:e2", "U:e3"}
    assert g.demand_origin[y] == frozenset({"t1", "t2"})


def test_unreached_demand_warns():
    text = json.dumps({
        "nodes": ["s1", "s2", "t"],
        "edges": [{"id": "e1", "tail": "s1", "head": "t", "cap": "1"}],
        "sources": [{"index": 1, "at": "s1"}, {"index": 2, "at": "s2"}],
        "sinks": [{"at": "t", "demands": [1]}],
    })
    net = netmodel.parse_network(text)
    with pytest.warns(UserWarning, match="source 2"):
        build_fdg(net)


def test_undecodable_sources_share_one_warning():
    net = netmodel.parse_network(json.dumps({
        "nodes": ["s1", "s2", "m", "t"],
        "edges": [{"id": "e1", "tail": "s1", "head": "m", "cap": "1"},
                  {"id": "e2", "tail": "s2", "head": "m", "cap": "1"}],
        "sources": [{"index": 1, "at": "s1"}, {"index": 2, "at": "s2"}],
        "sinks": [{"at": "t", "demands": [1, 2]}],
    }))
    with pytest.warns(UserWarning) as record:
        build_fdg(net)
    assert [str(w.message) for w in record] == [
        "sources 1, 2 have no decodable sink in-edges; their variables lie on no cycle"]


_ABSENT = EdgeVar("zz", Fraction(1))


@pytest.mark.parametrize("call, error, message", [
    (lambda g: reduce(g, "bogus"), ValueError, "^unknown mode 'bogus'$"),
    (lambda g: g.var_by_name("nope"), KeyError, "no variable named 'nope'"),
    (lambda g: remove_var(g, _ABSENT), ValueError, "^U:zz is not in the graph$"),
    (lambda g: remove_group(g, (_ABSENT,)), ValueError, "^U:zz is not in the graph$"),
], ids=["reduce-mode", "var-by-name", "remove-var", "remove-group"])
def test_graph_operations_refuse_an_unknown_mode_or_variable(call, error, message):
    with pytest.raises(error, match=message):
        call(build_fdg(load_fixture("butterfly")))


def test_remove_var_rewires_butterfly_decoder():
    g = build_fdg(load_fixture("butterfly"))
    after = remove_var(g, g.var_by_name("U:e_d"))
    y1 = after.var_by_name("Y1")
    assert {p.name for p in after.up(y1)} == {"U:e_g", "U:e_c"}
    assert after.order == g.order - 1


def test_remove_var_pure_deletion_when_no_children():
    y = SourceVar(1)
    a = EdgeVar("a", Fraction(1))
    b = EdgeVar("b", Fraction(1))
    g = Fdg([y, a, b], {a: (y,), b: (a,), y: ()})
    after = remove_var(g, b)
    assert after.vars == (y, a)
    assert after.up(a) == (y,)


def test_remove_var_never_creates_self_loop():
    g = build_fdg(load_fixture("single_edge"))
    after = remove_var(g, g.var_by_name("U:e1"))
    y = after.var_by_name("Y1")
    assert after.up(y) == ()


def test_remove_var_refuses_sources():
    g = build_fdg(load_fixture("single_edge"))
    with pytest.raises(ValueError, match="source variable"):
        remove_var(g, g.var_by_name("Y1"))


def test_remove_group_refuses_members_with_other_children():
    g = build_fdg(load_fixture("butterfly"))
    group = (g.var_by_name("U:e_d"), g.var_by_name("U:e_e"))
    assert g.up(group[0]) == g.up(group[1]) and g.down(group[0]) != g.down(group[1])
    with pytest.raises(ValueError, match="identical parent and child sets"):
        remove_group(g, group)


def test_rule_predicates_on_butterfly():
    g = build_fdg(load_fixture("butterfly"))
    e_d = g.var_by_name("U:e_d")
    e_c = g.var_by_name("U:e_c")
    e_a = g.var_by_name("U:e_a")
    assert cor3(g, e_d) and cor1(g, e_d) and cor5a(g, e_d)
    assert not cor1(g, e_c)  # unit capacity below its two parents' total
    for rule in ("COR1", "COR3", "COR5a"):
        assert not removable(g, e_a, rule)  # source parent blocks condition 1
    assert removable(g, [e_d], "COR4") == removable(g, [e_d], "COR2")
    with pytest.raises(ValueError, match="unknown rule"):
        removable(g, e_d, "COR9")


def test_a_group_with_a_repeated_variable_or_a_source_is_not_removable():
    # {e_d} alone passes COR2; the same variable twice, or with a source,
    # is no group of distinct edge variables.
    g = build_fdg(load_fixture("butterfly"))
    e_d = g.var_by_name("U:e_d")
    assert removable(g, [e_d], "COR2")
    assert not removable(g, [e_d, e_d], "COR2")
    assert not removable(g, [g.source_vars()[0], e_d], "COR2")


def test_unit_rules_refuse_general_capacities():
    text = netmodel.fixture_text("single_edge").replace('"cap": "1"', '"cap": "2"')
    g = build_fdg(netmodel.parse_network(text))
    v = g.var_by_name("U:e1")
    for call in (lambda: cor3(g, v), lambda: cor4(g, [v]),
                 lambda: cor5a(g, v), lambda: cor5b(g, v)):
        with pytest.raises(UnitCapacityError):
            call()
    with pytest.raises(UnitCapacityError):
        reduce(g, "linear")
    reduce(g, "shannon")  # capacity rules remain available


def _identical_neighborhood_classes(g):
    classes = {}
    for v in g.edge_vars():
        classes.setdefault((frozenset(g.up(v)), frozenset(g.down(v))), []).append(v)
    return classes


# An edge variable with no parent at all: COR1 removes it, so COR3 must too.
_PARENTLESS_EDGE = json.dumps({
    "nodes": ["s", "a", "m", "t"],
    "edges": [{"id": "e0", "tail": "a", "head": "m", "cap": "1"},
              {"id": "e1", "tail": "s", "head": "m", "cap": "1"},
              {"id": "e2", "tail": "m", "head": "t", "cap": "1"}],
    "sources": [{"index": 1, "at": "s"}],
    "sinks": [{"at": "t", "demands": [1]}]})


@pytest.mark.parametrize("name", [*UNIT_FIXTURES, "parentless_edge"])
def test_unit_specializations_match_capacity_rules(name):
    net = (netmodel.parse_network(_PARENTLESS_EDGE) if name == "parentless_edge"
           else load_fixture(name))
    g = build_fdg(net)
    for v in g.edge_vars():
        assert cor3(g, v) == cor1(g, v)
    for members in _identical_neighborhood_classes(g).values():
        for size in range(1, len(members) + 1):
            for group in itertools.combinations(members, size):
                assert cor4(g, group) == cor2(g, group)
    vs = g.edge_vars()
    for pair in itertools.combinations(vs, 2):
        assert cor4(g, pair) == cor2(g, pair)


def test_group_rule_fires_on_parallel_relay():
    g = build_fdg(load_fixture("parallel_relay"))
    reduced, trace = reduce(g, "shannon")
    assert [s.rule for s in trace.steps] == ["COR2"]
    assert set(trace.steps[0].removed) == {"U:e3", "U:e4"}
    assert reduced.order == 5


EXPECTED_ORDERS = {
    "butterfly": (9, 7, 5),
    "two_unicast_side": (8, 6, 4),
    "two_unicast_chain": (10, 5, 3),
    "parallel_relay": (7, 5, 3),
    "fano": (21, 13, 8),
    "single_edge": (2, 2, 2),
}


@pytest.mark.parametrize("name", UNIT_FIXTURES)
def test_reduction_fixpoints(name):
    g = build_fdg(load_fixture(name))
    shannon, st = reduce(g, "shannon")
    linear, lt = reduce(g, "linear")
    want = EXPECTED_ORDERS[name]
    assert (g.order, shannon.order, linear.order) == want
    assert shannon.order == g.order - st.delta_v
    assert linear.order <= shannon.order
    for mode, red in (("shannon", shannon), ("linear", linear)):
        again, _ = reduce(g, mode)
        assert again == red
        final, _ = reduce(red, mode)
        assert final == red  # fixpoint


@pytest.mark.parametrize("name", UNIT_FIXTURES)
@pytest.mark.parametrize("mode", ["shannon", "linear"])
def test_trace_replays_exactly(name, mode):
    g = build_fdg(load_fixture(name))
    reduced, trace = reduce(g, mode)
    assert replay(g, trace) == reduced
    rebuilt = ReductionTrace.from_jsonl(trace.to_jsonl(), delta_v=trace.delta_v,
                                        delta_e=trace.delta_e)
    assert replay(g, rebuilt) == reduced
    read_back = ReductionTrace.from_jsonl(trace.to_jsonl())
    assert (read_back.delta_v, read_back.delta_e) == (trace.delta_v, trace.delta_e)


def test_replay_detects_tampering():
    g = build_fdg(load_fixture("two_unicast_chain"))
    _, trace = reduce(g, "shannon")
    lines = trace.to_jsonl().splitlines()
    first = json.loads(lines[0])
    first["up"] = ["Y1"]
    bad = ReductionTrace.from_jsonl("\n".join([json.dumps(first)] + lines[1:]))
    with pytest.raises(F.ReplayError):
        replay(g, bad)


@pytest.mark.parametrize("case", FORGED_STEPS)
def test_replay_rechecks_the_rules(case):
    text, step = FORGED_STEPS[case]
    g = build_fdg(netmodel.parse_network(text))
    with pytest.raises(F.ReplayError, match="step 0"):
        replay(g, ReductionTrace.from_jsonl(json.dumps(step)))


def _random_graph(seed):
    return build_fdg(random_network(random.Random(seed), max_edges=12))


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["shannon", "linear"]))
def test_replay_of_reduce_is_the_reduction(seed, mode):
    g = _random_graph(seed)
    reduced, trace = reduce(g, mode)
    assert replay(g, trace) == reduced
    read_back = ReductionTrace.from_jsonl(trace.to_jsonl())
    assert read_back == trace
    assert replay(g, read_back) == reduced


def test_deeply_nested_trace_line_is_a_format_error():
    with pytest.raises(F.TraceFormatError, match="line 2: JSON nested too deeply"):
        ReductionTrace.from_jsonl("\n" + "[" * 200000 + "]" * 200000 + "\n")


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cor5a_implies_cor1_so_reduce_never_records_it(seed):
    g = build_fdg(random_network(random.Random(seed), max_edges=20))
    for v in g.edge_vars():
        assert not cor5a(g, v) or cor1(g, v)
    _, trace = reduce(g, "linear")
    assert all(step.rule != F.COR5A for step in trace.steps)


def _mutate(data, cur, step):
    """A copy of ``step`` that is wrong for the graph ``cur`` it applies to."""
    first = cur.var_by_name(step.removed[0])
    kind = data.draw(st.sampled_from(["rule", "swap", "drop-added", "add-added", "empty"]))
    if kind == "rule":
        group = tuple(cur.var_by_name(n) for n in step.removed)
        refused = [r for r in F.RULES if not F.RULES[r](cur, group)]
        return dataclasses.replace(step, rule=data.draw(st.sampled_from(refused + ["COR9"])))
    if kind == "swap":
        # a variable whose parent or child set differs from the removed one's
        def sets(v):
            return set(cur.up(v)), set(cur.down(v))
        others = [v.name for v in cur.vars
                  if v.name not in step.removed and sets(v) != sets(first)]
        assume(others)
        removed = list(step.removed)
        removed[data.draw(st.integers(0, len(removed) - 1))] = data.draw(st.sampled_from(others))
        return dataclasses.replace(step, removed=tuple(removed))
    if kind == "drop-added":
        assume(step.added)
        drop = data.draw(st.integers(0, len(step.added) - 1))
        return dataclasses.replace(step, added=step.added[:drop] + step.added[drop + 1:])
    if kind == "add-added":
        extra = [(a, b) for a in step.up for b in step.down if (a, b) not in step.added]
        pair = data.draw(st.sampled_from(extra + [(first.name, first.name)]))
        return dataclasses.replace(step, added=step.added + (pair,))
    return dataclasses.replace(step, removed=())


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["shannon", "linear"]), st.data())
def test_mutated_trace_is_rejected(seed, mode, data):
    g = _random_graph(seed)
    _, trace = reduce(g, mode)
    assume(trace.steps)
    i = data.draw(st.integers(0, len(trace.steps) - 1))
    before = replay(g, dataclasses.replace(trace, steps=trace.steps[:i]))
    steps = list(trace.steps)
    steps[i] = _mutate(data, before, steps[i])
    with pytest.raises(F.ReplayError, match=f"step {i}:"):
        replay(g, dataclasses.replace(trace, steps=tuple(steps)))


@pytest.mark.parametrize("name", UNIT_FIXTURES)
def test_added_edges_had_two_step_paths(name):
    g = build_fdg(load_fixture(name))
    _, trace = reduce(g, "linear")
    cur = g
    for step in trace.steps:
        removed = [cur.var_by_name(n) for n in step.removed]
        up = {p.name for p in cur.up(removed[0])} - set(step.removed)
        down = {c.name for c in cur.down(removed[0])} - set(step.removed)
        for a, b in step.added:
            assert a in up and b in down
            assert a != b
        cur = F.remove_group(cur, removed)


def test_delta_e_matches_dependence_edge_count():
    g = build_fdg(load_fixture("fano"))
    reduced, trace = reduce(g, "linear")
    assert trace.delta_e == g.dependence_edge_count() - reduced.dependence_edge_count()
    assert trace.delta_e == 13


def test_fdg_json_round_trip():
    for name in netmodel.FIXTURE_NAMES:
        g = build_fdg(load_fixture(name))
        assert Fdg.from_json(g.to_json()) == g
        reduced, _ = reduce(g, "shannon")
        assert Fdg.from_json(reduced.to_json()) == reduced


def test_fdg_equality_compares_the_demand_origins():
    g = build_fdg(load_fixture("butterfly"))
    doc = g.to_dict()
    doc["demand_origin"] = {name: [] for name in doc["demand_origin"]}
    assert Fdg.from_json(json.dumps(doc)) != g
    # A source with no entry has the empty origin, as the document writes it.
    y, e = SourceVar(1), EdgeVar("e1", Fraction(1))
    hand_built = Fdg([y, e], {e: (y,)})
    assert Fdg.from_json(hand_built.to_json()) == hand_built
    assert hand_built != Fdg([y, e], {e: (y,)}, {y: {"t"}})


@pytest.mark.parametrize("cap", ["1e4300", "1/3"])
def test_fdg_json_round_trip_keeps_the_capacity(cap):
    # 1e4300 prints as 4301 digits, one more than Python's default limit on
    # integer strings.
    net = parse_network(netmodel.fixture_text("single_edge")
                        .replace('"cap": "1"', f'"cap": "{cap}"'))
    g = build_fdg(net)
    read_back = Fdg.from_json(g.to_json())
    assert read_back == g
    assert read_back.edge_vars()[0].cap == netmodel.parse_fraction(cap)


def test_fdg_json_round_trip_of_a_capacity_past_the_digit_limit():
    # A numerator of 4301 digits over 7: not a decimal, so it is written as p/q.
    cap = Fraction(10 ** 4301 - 1, 7)
    y, e = SourceVar(1), EdgeVar("e1", cap)
    g = Fdg([y, e], {e: (y,), y: (e,)}, {y: {"t"}})
    read_back = Fdg.from_json(g.to_json())
    assert read_back == g and read_back.edge_vars()[0].cap == cap


def _single_edge_doc(**changes):
    doc = json.loads(build_fdg(load_fixture("single_edge")).to_json())
    doc.update(changes)
    return json.dumps(doc)


_MALFORMED_FDG_DOCUMENTS = {  # id -> (document, what the message says)
    "list": ("[1]", "is a JSON object"),
    "nested": ("[" * 200_000, "nested too deeply"),
    "not-json": ("{", "Expecting"),
    "no-capacity": (_single_edge_doc(capacities={}), "^edge variable U:e1 has no capacity$"),
    "infinity": (_single_edge_doc(capacities={"U:e1": "Infinity"}), "invalid fraction 'Infinity'"),
    "zero-denominator": (_single_edge_doc(capacities={"U:e1": "1/0"}), "invalid fraction '1/0'"),
    "huge-exponent": (_single_edge_doc(capacities={"U:e1": "1e10000000"}), "exponent 10000000"),
    "huge-exponent-below": (_single_edge_doc(capacities={"U:e1": "1/1e10000000"}),
                            "exponent 10000000"),
    "number-capacity": (_single_edge_doc(capacities={"U:e1": 1}), "an object of strings"),
    "vars-string": (_single_edge_doc(vars="Y1"), "vars, a list of names"),
    "parents-list": (_single_edge_doc(parents=[]), "parents"),
    "origin-string": (_single_edge_doc(demand_origin={"Y1": "t"}), "demand_origin"),
    "bad-name": (_single_edge_doc(vars=["Y1", "Z1"]), "bad variable name 'Z1'"),
    # Source names that SourceVar(k).name does not write back.
    "leading-zero": (_single_edge_doc(vars=["Y01", "U:e1"]), "bad variable name 'Y01'"),
    "inner-space": (_single_edge_doc(vars=["Y 1", "U:e1"]), "bad variable name 'Y 1'"),
    "plus-sign": (_single_edge_doc(vars=["Y+1", "U:e1"]), r"bad variable name 'Y\+1'"),
    "no-index": (_single_edge_doc(vars=["Yx", "U:e1"]), "bad variable name 'Yx'"),
    "huge-index": (_single_edge_doc(vars=["Y" + "1" * 100_000, "U:e1"]), "bad variable name"),
    # Keys that to_json would drop.
    "origin-unknown-source": (_single_edge_doc(demand_origin={"Y1": ["t"], "Y7": ["t"]}),
                              "^demand_origin key Y7 is not a source variable of the graph$"),
    "origin-edge": (_single_edge_doc(demand_origin={"U:e1": ["t"]}),
                    "^demand_origin key U:e1 is not a source variable of the graph$"),
    "parents-unknown-key": (_single_edge_doc(parents={"Y1": ["U:e1"], "U:e1": ["Y1"], "Y7": []}),
                            "^parents key Y7 is not a variable of the graph$"),
    "capacity-unknown-edge": (_single_edge_doc(capacities={"U:e1": "1", "U:extra": "1"}),
                              "^capacity for U:extra, which is not an edge variable"),
    "capacity-source": (_single_edge_doc(capacities={"U:e1": "1", "Y1": "1"}),
                        "^capacity for Y1, which is not an edge variable"),
    "unknown-key": (_single_edge_doc(extra={}), "^unknown key 'extra' in a dependence graph"),
}


@pytest.mark.parametrize("case", _MALFORMED_FDG_DOCUMENTS)
def test_a_malformed_fdg_document_is_a_value_error(case):
    text, message = _MALFORMED_FDG_DOCUMENTS[case]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        Fdg.from_json(text)
    assert time.perf_counter() - start < 1.0


def test_a_comment_key_is_skipped_and_valid_documents_keep_their_bytes():
    text = build_fdg(load_fixture("single_edge")).to_json()
    assert Fdg.from_json(text).to_json() == text
    assert Fdg.from_json(_single_edge_doc(_comment="a note")).to_json() == text


@pytest.mark.parametrize("key, name", [(SourceVar(2), "Y2"), (EdgeVar("e9", Fraction(1)), "U:e9"),
                                       ("Y1", "'Y1'")])
def test_a_parents_key_that_is_not_a_variable_is_refused(key, name):
    # Fdg reads parents by variable, so such a key would be dropped.
    y, e = SourceVar(1), EdgeVar("e1", Fraction(1))
    with pytest.raises(ValueError, match=f"^parents key {name} is not a variable of the graph$"):
        Fdg([y, e], {e: (y,), y: (e,), key: ()})


@pytest.mark.parametrize("key, name", [(SourceVar(2), "Y2"), (EdgeVar("e1", Fraction(1)), "U:e1"),
                                       ("Y1", "'Y1'")])
def test_a_demand_origin_key_that_is_not_a_source_variable_is_refused(key, name):
    # to_json writes demand_origin for the source variables only, so such a
    # key would be dropped on the way out.
    y, e = SourceVar(1), EdgeVar("e1", Fraction(1))
    with pytest.raises(ValueError, match=f"^demand_origin key {name} is not a source variable"):
        Fdg([y, e], {e: (y,), y: (e,)}, {y: {"t"}, key: {"t"}})


# SHA-256 of ``Fdg.to_json`` for every fixture's graph, unreduced and
# reduced in each mode, recorded while it was ``json.dumps(doc, indent=2,
# sort_keys=True)``.
_FDG_JSON_DIGESTS = {
    ("butterfly", "none"):
        "a925abf6861793f1bcb0d479a0ef8a43287e3fe728798010bfaf742a70a8ce14",
    ("butterfly", "shannon"):
        "7a57858b83f67f2b5bab78a555c676440ae9bca0597ed635fa79cdbe94286934",
    ("butterfly", "linear"):
        "0d3e49a866f0c8a56adad205498a3424ba05bb11cc0a3e0cabb55e50d0686b9f",
    ("two_unicast_side", "none"):
        "4a20eaf046296abeadc48bf1d7973dd6ca08be24d5c1eb79198a244c33fc79d1",
    ("two_unicast_side", "shannon"):
        "9dfece86e5d015c0ff482fae722edb630cd331d8383c8319a6c4663793dbdc42",
    ("two_unicast_side", "linear"):
        "0ea5ade01f695cc3c993b725805cd44adb50e1775ce985d01c025b35ec666080",
    ("two_unicast_chain", "none"):
        "419d51fe2e3d31f2858b92caa69d58f045d5da9435af19121d2bbbabbf8c5373",
    ("two_unicast_chain", "shannon"):
        "0667b23230cfbf5f4c1e3943835deffd17e8bf69d6cabfc61852d2294637926b",
    ("two_unicast_chain", "linear"):
        "bd432f3e58cf04a591c137baa78286531f6edc76f974ca4b9e3de8f899ca01f3",
    ("parallel_relay", "none"):
        "9807788eecf46006c4a524e86bea899fc5e2433d7876f7db5f902887544e4e24",
    ("parallel_relay", "shannon"):
        "1632ceddb40f25942e4a7f85ff3f45950ee2d6635f79b3ed38b357b51b993342",
    ("parallel_relay", "linear"):
        "37046c2109b4545c88fd3638c80c6955bf0fc10fc939cbd742210c8f51a90103",
    ("fano", "none"):
        "a7bfa1fd4354347e5663bc0c336bc8c83eaef20de8c492900f6f04a3207515a8",
    ("fano", "shannon"):
        "a953ed403238fe0303ae0b4fd801ed2414b42bde113919f7bdf9dcc28cfd7f47",
    ("fano", "linear"):
        "953317aa707836fcaee28859f1b28c3686de752f6a33f6f4a759e727f2df0cb4",
    ("single_edge", "none"):
        "4b39054df72ac29a0cb5e889219c1a0435e978fb6e514b4edaea6288660c1f79",
    ("single_edge", "shannon"):
        "4b39054df72ac29a0cb5e889219c1a0435e978fb6e514b4edaea6288660c1f79",
    ("single_edge", "linear"):
        "4b39054df72ac29a0cb5e889219c1a0435e978fb6e514b4edaea6288660c1f79",
}


@pytest.mark.parametrize("key", _FDG_JSON_DIGESTS, ids="-".join)
def test_fdg_json_is_pinned(key):
    name, mode = key
    g = build_fdg(load_fixture(name))
    if mode != "none":
        g, _ = reduce(g, mode)
    assert hashlib.sha256(g.to_json().encode()).hexdigest() == _FDG_JSON_DIGESTS[key]


def test_irreducible_graph_has_empty_trace():
    g = build_fdg(load_fixture("single_edge"))
    reduced, trace = reduce(g, "shannon")
    assert reduced == g
    assert trace.steps == ()
    assert trace.delta_v == 0 and trace.delta_e == 0


# Coprime denominators and zero, so that a capacity scaled to the wrong
# common denominator changes a comparison.
_CAPACITIES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(3, 2),
               Fraction(1, 3), Fraction(1, 6), Fraction(2, 7), Fraction(1, 123456789),
               Fraction(0))


def _with_capacities(net, rng):
    """``net`` with each edge capacity drawn from ``_CAPACITIES``."""
    return dataclasses.replace(net, edges=tuple(
        dataclasses.replace(e, cap=rng.choice(_CAPACITIES)) for e in net.edges))


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from(["shannon", "linear"]))
def test_reduce_equals_the_rebuild_per_step_reference(seed, unit, mode):
    rng = random.Random(seed)
    net = random_network(rng, max_edges=30)
    if not unit:
        net = _with_capacities(net, rng)
    g = build_fdg(net)
    if mode == "linear" and not g.unit_capacities():
        for run in (reduce, reference_reduce):
            with pytest.raises(UnitCapacityError):
                run(g, mode)
        return
    reduced, trace = reduce(g, mode)
    want, want_trace = reference_reduce(g, mode)
    assert reduced == want
    assert reduced.to_json() == want.to_json()
    assert trace.steps == want_trace.steps
    assert trace.to_jsonl() == want_trace.to_jsonl()
    assert (trace.delta_v, trace.delta_e) == (want_trace.delta_v, want_trace.delta_e)
    assert replay(g, trace) == want
    assert reference_replay(g, trace) == want


def _outcome(predicate, *args):
    try:
        return predicate(*args)
    except UnitCapacityError:
        return UnitCapacityError


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_rules_agree_with_their_definitions(seed, unit):
    rng = random.Random(seed)
    net = random_network(rng, max_edges=20)
    g = build_fdg(net if unit else _with_capacities(net, rng))
    groups = [(v,) for v in g.edge_vars()]
    groups += [tuple(c) for c in _identical_neighborhood_classes(g).values() if len(c) > 1]
    for group in groups:
        for rule in F.RULES:
            want = _outcome(reference_removable, g, group, rule)
            assert _outcome(removable, g, group, rule) == want, (rule, group)
            assert _outcome(F.RULES[rule], g, group) == want, (rule, group)


def _cor2_boundary(raised: bool):
    """e5 and e6 (1/3 and 1/6) share the parents e3 and e4, whose capacities
    sum to 1/2, or to 1/2 + 1/123456789 when ``raised``; nothing else is
    removable."""
    e3 = "1/4" if not raised else str(Fraction(1, 4) + Fraction(1, 123456789))
    return build_fdg(netmodel.parse_network(json.dumps({
        "nodes": ["s", "x", "y", "a", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "x", "cap": "1"},
                  {"id": "e2", "tail": "s", "head": "y", "cap": "1"},
                  {"id": "e3", "tail": "x", "head": "a", "cap": e3},
                  {"id": "e4", "tail": "y", "head": "a", "cap": "1/4"},
                  {"id": "e5", "tail": "a", "head": "t", "cap": "1/3"},
                  {"id": "e6", "tail": "a", "head": "t", "cap": "1/6"}],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}]})))


def test_cor2_at_the_exact_capacity_boundary():
    g = _cor2_boundary(raised=False)
    reduced, trace = reduce(g, "shannon")
    assert [(s.rule, s.removed) for s in trace.steps] == [("COR2", ("U:e5", "U:e6"))]
    assert replay(g, trace) == reduced
    raised = _cor2_boundary(raised=True)
    unchanged, none = reduce(raised, "shannon")
    assert none.steps == () and unchanged == raised
    with pytest.raises(F.ReplayError, match="step 0: COR2 does not permit"):
        replay(raised, trace)


# SHA-256 of ``trace.to_jsonl()`` and ``reduced.to_json()``, recorded with
# the reduction that summed capacities as Fractions.  Keys: the relay grid,
# or a ``random_network(max_edges=30)`` seed with unit capacities or with
# ``_with_capacities`` drawn from the same generator; then the mode.
_GOLDEN = {
    ("relay_grid", "shannon"): (
        "35bc3ee5f59bf93124fcf6400d2781aed93eaba6a1f40ba6979fa085c162ee8d",
        "caaee4049d50d9e9299ad70eda5bee075eafed7e2daf2e0b26672dcbd655fcd7"),
    ("relay_grid", "linear"): (
        "35bc3ee5f59bf93124fcf6400d2781aed93eaba6a1f40ba6979fa085c162ee8d",
        "caaee4049d50d9e9299ad70eda5bee075eafed7e2daf2e0b26672dcbd655fcd7"),
    (3, "unit", "shannon"): (
        "67bc8d8f4d5e5d48555a2bf901f1e7328170204bfaa3c9f775e51ed9905c91e7",
        "8c190ce978f38d38a7e06e91bfaa11c548a8de7ecd3ccc177dfc922b124862fb"),
    (3, "unit", "linear"): (
        "67bc8d8f4d5e5d48555a2bf901f1e7328170204bfaa3c9f775e51ed9905c91e7",
        "8c190ce978f38d38a7e06e91bfaa11c548a8de7ecd3ccc177dfc922b124862fb"),
    (3, "capacities", "shannon"): (
        "801f91bf7e0a6c41464053f071bba2486baf08d4f828126da79082f392140a20",
        "8545801fb08b0834ab10344bb8204d713820366e085c6d7917de4c2b5822fea8"),
    (6, "unit", "shannon"): (
        "5c69a5c19699d3cfdc97398e9b8c589045d1c0223346e7445544a1dc7edcd8b2",
        "516398d234a7358c04f576bd0d6ad8f55f02ff23b2220068180123412d6b552d"),
    (6, "unit", "linear"): (
        "5c69a5c19699d3cfdc97398e9b8c589045d1c0223346e7445544a1dc7edcd8b2",
        "516398d234a7358c04f576bd0d6ad8f55f02ff23b2220068180123412d6b552d"),
    (6, "capacities", "shannon"): (
        "6489558d6c4edbb6ee03bbafb8062164e97b29a310463c9dd1ec382ffa766d0b",
        "97b3dca1de96047a26124f79343729c43dfe949d6f6c6571903109191f36782b"),
    (9, "unit", "shannon"): (
        "66662ca65d0f8b9d282f3aa86e21a95c82d848203822c08fb031aa7a8e615b1f",
        "5df59e4480c6a21253b03c9af9dc1cd17c391e1932128d3978fff9bd6d087dd4"),
    (9, "unit", "linear"): (
        "9a3a4aa39ae31a53e6951deb2ef22d55ba5b57059db887b7ff622040d5a86d3d",
        "e6b045e7c26dfb6880bd31546d02a6e80ec905203ee9d9f3a678015d589d7d2e"),
    (9, "capacities", "shannon"): (
        "d505c346b2c6004b79a098152dda27ca7461442cb6bd35e2297fccc7411fc666",
        "9cbf09a1eba0cc796881433874c4a3d6932f87a8508eae7b54b7780c2efadd29"),
    (10, "unit", "shannon"): (
        "f255e385e37cb314be2844f73d79f0e150e51b3a16dfc69f9bf7b1a66bc04528",
        "5c3d316866eb1e07ba9b8c221d68d5b0b68af097eaecfa9265d083e18c974009"),
    (10, "unit", "linear"): (
        "f255e385e37cb314be2844f73d79f0e150e51b3a16dfc69f9bf7b1a66bc04528",
        "5c3d316866eb1e07ba9b8c221d68d5b0b68af097eaecfa9265d083e18c974009"),
    (10, "capacities", "shannon"): (
        "b7f3e51240c70179fce26e75e232424e442e918442e210f229ba9d1ebf9371ba",
        "18509a6ab67cc8e7e7fdfe8465cfc307c8f2d47717c2097a0e6f30d4699409eb"),
    (11, "unit", "shannon"): (
        "fb5f118411776f44f4668c26f61c98f668a441d61ca5080f74c154ad39f58106",
        "1538232280bcc9299610399698c5255a8dbf310532e576f96530e9d984cbe86c"),
    (11, "unit", "linear"): (
        "fb5f118411776f44f4668c26f61c98f668a441d61ca5080f74c154ad39f58106",
        "1538232280bcc9299610399698c5255a8dbf310532e576f96530e9d984cbe86c"),
    (11, "capacities", "shannon"): (
        "a8727f38b1d20db3b5947beefce05c4ed0c8def87be183b1b374524b64f4fafb",
        "0f815cc81b423752c0edbe9a10691020550a94b2c3c78467ab06ee04f3f67f92"),
    (16, "unit", "shannon"): (
        "696711b54839a88346bb9ae74b49480f02ce395cc27f687ed8ce905d69757ce6",
        "fdb0029b5199936344cec6c72f6c1cbb06806461d81d5d550e99d88d19e67a63"),
    (16, "unit", "linear"): (
        "696711b54839a88346bb9ae74b49480f02ce395cc27f687ed8ce905d69757ce6",
        "fdb0029b5199936344cec6c72f6c1cbb06806461d81d5d550e99d88d19e67a63"),
    (16, "capacities", "shannon"): (
        "5aa987a60b833a4682696a14077d9b337abb4ecab7dec9734bc5ddb531928e60",
        "542cc94ca9f16b96e0d668a64217ba9c1d8a6b071ae88760cf28ab92c19d6fa0"),
    (21, "unit", "shannon"): (
        "f741900b3a5c35424212f58d151f97b904f8b913f53a3c21a6a1b5b7a8886180",
        "6f732db3e2b72355cf43ba58967265250d1d3807d97a0a2588b7cbbbfadb7af8"),
    (21, "unit", "linear"): (
        "f741900b3a5c35424212f58d151f97b904f8b913f53a3c21a6a1b5b7a8886180",
        "6f732db3e2b72355cf43ba58967265250d1d3807d97a0a2588b7cbbbfadb7af8"),
    (21, "capacities", "shannon"): (
        "47cf62a3c2ca89c1dfacf1c75b06c1ef044f91074caa6b2ceca7c9d43aa00926",
        "b42e9fbe2fa75f3a0dff39a0e4799ba594b40c872e3cb6939deeb1bfeec8bf05"),
    (26, "unit", "shannon"): (
        "c2ab3aba16933fefe6e691d8349bf3f7c5866add3a3b03714a6edc7018005758",
        "efdbd33f557f47136e598ce96cf61169627335cfa4c60c620a329d98a16aa747"),
    (26, "unit", "linear"): (
        "2364e886001d547d56e0dbb3ee3c70ace5ccd46efac35778321708f8db064d78",
        "4b0a662a31ac3e0e62d0ac17a9e48082b28f5479ad8c9738e757fa0317de18d2"),
    (26, "capacities", "shannon"): (
        "1b830e1ce54bfd16f9632d2dc51e89f8a6d66b066e1fc8b6f47cb02d9058c552",
        "cc68a91320fcbec63ce206b7c64cbf962d4d72415fd5d8da8c0c43efb3690b10"),
    (28, "unit", "shannon"): (
        "d7736e5f9c332da92c67088c8060d833cc881c654891cf503c0e403fbbe66daf",
        "2cf348b92e556023ce91abf8b2d243b45bc1f923d052ce29aca44f3a270f9cf2"),
    (28, "unit", "linear"): (
        "3efe87c5f2f88efdb8457827cdf9e8c8edf8521f1e55eaf7051933d85c2ae9b4",
        "22cc287a5d5cbb916e161259c14039e06c8011d4845670ceab9d6b7995d1df03"),
    (28, "capacities", "shannon"): (
        "ae911511d95e966775da61c651fbc52085c7b430cd49c203ed7c010d2b0d4bc1",
        "4c4292bbeec14374642e678aa3180d0900768fca422735e0b489065fbba9e00c"),
    (29, "unit", "shannon"): (
        "092326c8c744fa0be43dede2e21616c86c964a5dddc1b0e4cc101d6dc88e1d40",
        "08b214ce3fd361ac74f838c645d92d3cb1f7fb04265977689caa12ab9d09b75a"),
    (29, "unit", "linear"): (
        "092326c8c744fa0be43dede2e21616c86c964a5dddc1b0e4cc101d6dc88e1d40",
        "08b214ce3fd361ac74f838c645d92d3cb1f7fb04265977689caa12ab9d09b75a"),
    (29, "capacities", "shannon"): (
        "092326c8c744fa0be43dede2e21616c86c964a5dddc1b0e4cc101d6dc88e1d40",
        "0e36a8bcc9e27552f797520ba056763ec551e15c3a5640f131dee6563c7c4099"),
}


@pytest.mark.filterwarnings("ignore:source")
@pytest.mark.parametrize("key", _GOLDEN, ids=lambda key: "-".join(map(str, key)))
def test_reduction_matches_recorded_digests(key):
    *network, mode = key
    if network == ["relay_grid"]:
        net = relay_grid(5, 6)
    else:
        seed, caps = network
        rng = random.Random(seed)
        net = random_network(rng, max_edges=30)
        if caps == "capacities":
            net = _with_capacities(net, rng)
    reduced, trace = reduce(build_fdg(net), mode)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (trace.to_jsonl(), reduced.to_json()))
    assert digests == _GOLDEN[key]


def test_replay_sees_unit_capacities_once_the_others_are_removed():
    # COR1 removes the only capacity-2 variable; the unit rule COR5a then
    # applies to the rest, as it does on the graph rebuilt after that step
    net = netmodel.parse_network(json.dumps({
        "nodes": ["s", "a", "b", "c", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "a", "cap": "1"},
                  {"id": "e2", "tail": "a", "head": "b", "cap": "2"},
                  {"id": "e3", "tail": "b", "head": "c", "cap": "1"},
                  {"id": "e4", "tail": "c", "head": "t", "cap": "1"}],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}],
    }))
    g = build_fdg(net)
    assert not g.unit_capacities()
    trace = ReductionTrace.from_jsonl(
        '{"rule": "COR1", "removed": ["U:e2"], "up": ["U:e1"], "down": ["U:e3"], '
        '"added": [["U:e1", "U:e3"]]}\n'
        '{"rule": "COR5a", "removed": ["U:e3"], "up": ["U:e1"], "down": ["U:e4"], '
        '"added": [["U:e1", "U:e4"]]}\n')
    assert replay(g, trace) == reference_replay(g, trace)
    assert replay(g, trace).unit_capacities()


def test_a_16000_edge_path_parses_and_builds_in_linear_time():
    text = head_first_path_text(16000)
    start = time.perf_counter()
    g = build_fdg(netmodel.parse_network(text))
    elapsed = time.perf_counter() - start
    assert g.order == 16001
    assert elapsed < 2, f"parse_network + build_fdg took {elapsed:.2f} s"


def test_cyclic_edge_variables_are_refused():
    a, b = EdgeVar("a", Fraction(1)), EdgeVar("b", Fraction(1))
    g = Fdg([a, b], {a: (b,), b: (a,)})
    with pytest.raises(ValueError, match="edge-variable subgraph has a cycle"):
        reduce(g, "shannon")


@pytest.mark.parametrize("mode", ["shannon", "linear"])
def test_reduce_and_replay_build_one_graph(monkeypatch, mode):
    g = build_fdg(relay_grid(5, 6))
    assert len(g.edge_vars()) >= 100
    built = []
    assemble = Fdg._assemble

    def counting_assemble(self, *args, **kwargs):
        built.append(self)
        return assemble(self, *args, **kwargs)

    # Every construction, checked or not, goes through the assembly step.
    monkeypatch.setattr(Fdg, "_assemble", counting_assemble)
    reduced, trace = reduce(g, mode)
    assert len(trace.steps) >= 50
    assert built == [reduced]
    built.clear()
    assert replay(g, trace) == reduced
    assert len(built) == 1
    assert reduced == reference_reduce(g, mode)[0]


_ASSEMBLED_FIELDS = ("_vars", "_index", "_parents", "_children", "_is_edge", "_names",
                     "_den", "_caps", "_unit", "_demand_origin")


def _assert_assembled_equals_checked(g):
    checked = Fdg(g.vars, {v: g.up(v) for v in g.vars}, g.demand_origin)
    for name in _ASSEMBLED_FIELDS:
        assert getattr(g, name) == getattr(checked, name), name


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_assembled_graphs_equal_the_checked_constructor(seed, unit):
    # build_fdg and the reductions assemble their graphs from positions
    # without the constructor's checks; rebuilding through it changes nothing.
    rng = random.Random(seed)
    net = random_network(rng, max_edges=30)
    if not unit:
        net = _with_capacities(net, rng)
    g = build_fdg(net)
    graphs = [g]
    for mode in ("shannon", "linear") if g.unit_capacities() else ("shannon",):
        reduced, trace = reduce(g, mode)
        graphs += [reduced, replay(g, trace)]
    for group in _identical_neighborhood_classes(g).values():
        graphs += [remove_group(g, group[:1]), remove_group(g, group)]
    for graph in graphs:
        _assert_assembled_equals_checked(graph)


_A, _B = EdgeVar("a", Fraction(1)), EdgeVar("b", Fraction(1))


@pytest.mark.parametrize("vars_, parents, message", [
    ((_A, _B, _A), {}, "duplicate variables"),
    ((_A, _B), {_B: (_A, _A)}, "duplicate parents for U:b"),
    ((_A, _B), {_B: (_A, _B)}, "self-loop at U:b"),
    ((_A, _B), {_B: (SourceVar(1),)}, "parent Y1 of U:b is not a variable"),
], ids=["duplicate-variables", "duplicate-parents", "self-loop", "unknown-parent"])
def test_constructor_refuses_malformed_graphs(vars_, parents, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Fdg(vars_, parents)
