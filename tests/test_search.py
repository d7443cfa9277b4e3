"""The GF(p) solvability search against a plain reference search.

``reference_search`` assigns one indeterminate per node of a depth-first
search and evaluates each entry through ``Poly.eval_mod`` as soon as its
last indeterminate is assigned.  It defines the contract of
``solvability_search``: the same status, the same assignment (keys in the
same order) and the same two counters, ``evaluations_tried`` and
``entry_evals``.
"""

import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from fdgtool import algebra
from fdgtool.algebra import (DEFAULT_FIELD_CAP, DEFAULT_INDET_CAP, Poly,
                             SearchResult, _is_prime, build_transfer_system,
                             solvability_search, transfer_matrix)
from fdgtool.fdg import build_fdg, reduce
from fdgtool.netmodel import load_fixture


def reference_search(M, demand, p: int, *, order=None, pinned=None,
                     field_cap: int = DEFAULT_FIELD_CAP,
                     indet_cap: int = DEFAULT_INDET_CAP) -> SearchResult:
    """Exhaustive GF(p) assignment search with early rejection.

    Enumerates value tuples in lexicographic order over ``order`` (default:
    sorted names appearing in M) and returns the first assignment making M
    match the demand pattern entrywise, or exhaustion.  An entry is checked
    as soon as the last indeterminate it mentions is assigned, which prunes
    whole subtrees.  ``pinned`` fixes chosen indeterminates to constants.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > field_cap:
        raise ValueError(f"field size {p} exceeds the cap {field_cap}")

    names = set()
    for row in M:
        for entry in row:
            names |= entry.indeterminates()
    if order is None:
        order = tuple(sorted(names))
    else:
        order = tuple(order)
        missing = names - set(order)
        if missing:
            raise ValueError(f"order is missing indeterminates: {sorted(missing)}")
    pinned = dict(pinned or {})
    for name, value in pinned.items():
        if name not in order:
            raise ValueError(f"pinned name {name!r} is not an indeterminate")
        if not 0 <= value < p:
            raise ValueError(f"pinned value {value} is outside GF({p})")
    free = [n for n in order if n not in pinned]
    if len(free) > indet_cap:
        raise ValueError(
            f"{len(free)} free indeterminates exceed the exhaustive-search "
            f"cap {indet_cap}; pin some values")

    entries = []
    for i, row in enumerate(M):
        for j, entry in enumerate(row):
            target = demand[i][j]
            entries.append((entry, target, entry.indeterminates()))

    position = {n: k for k, n in enumerate(order)}
    by_depth = [[] for _ in range(len(order) + 1)]
    for entry, target, used in entries:
        depth = max((position[n] + 1 for n in used), default=0)
        by_depth[depth].append((entry, target))

    assignment = dict(pinned)
    visited = 0
    entry_evals = 0

    def check(depth) -> bool:
        nonlocal entry_evals
        for entry, target in by_depth[depth]:
            entry_evals += 1
            if entry.eval_mod(assignment, p) != target % p:
                return False
        return True

    def dfs(depth) -> bool:
        nonlocal visited
        visited += 1
        if depth == len(order):
            return True
        name = order[depth]
        if name in pinned:
            return check(depth + 1) and dfs(depth + 1)
        for value in range(p):
            assignment[name] = value
            if check(depth + 1) and dfs(depth + 1):
                return True
        del assignment[name]
        return False

    found = check(0) and dfs(0)
    if found:
        return SearchResult(status="found", field=p, assignment=dict(assignment),
                            evaluations_tried=visited, entry_evals=entry_evals)
    return SearchResult(status="exhausted", field=p, assignment=None,
                        evaluations_tried=visited, entry_evals=entry_evals)


def brute_force_first_hit(M, demand, p, order, pinned):
    """The lexicographically smallest assignment over ``order`` that hits."""
    choices = [(pinned[n],) if n in pinned else range(p) for n in order]
    for values in itertools.product(*choices):
        assign = dict(zip(order, values))
        if all(entry.eval_mod(assign, p) == demand[i][j] % p
               for i, row in enumerate(M) for j, entry in enumerate(row)):
            return assign
    return None


def assert_same_search(got, ref):
    """Same status, counters and assignment, keys in the same order."""
    assert (got.status, got.evaluations_tried, got.entry_evals) == \
        (ref.status, ref.evaluations_tried, ref.entry_evals)
    if ref.assignment is None:
        assert got.assignment is None
    else:
        assert list(got.assignment.items()) == list(ref.assignment.items())


NAMES = tuple(f"x{i}" for i in range(8))
# Free positions are pinned until a case has at most this many leaves, which
# keeps the reference and the brute force quick.
MAX_LEAVES = 2401


@st.composite
def search_cases(draw, multilinear=False):
    """(M, demand, p, order, pinned); with ``multilinear`` each name appears
    at most once per monomial, as in a transfer-matrix entry."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    used = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=len(NAMES)))
    if not used:
        monomial = st.just([])
    elif multilinear:
        monomial = st.lists(st.tuples(st.sampled_from(used), st.just(1)),
                            max_size=3, unique_by=lambda factor: factor[0])
    else:
        monomial = st.lists(st.tuples(st.sampled_from(used), st.integers(1, 3)),
                            max_size=3)
    term = st.tuples(st.integers(-7, 7), monomial)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    M = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            entry = Poly.zero()
            for c, factors in draw(st.lists(term, max_size=4)):
                mono = Poly.const(c)
                for name, e in factors:
                    for _ in range(e):
                        mono = mono * Poly.var(name)
                entry = entry + mono
            row.append(entry)
        M.append(tuple(row))
    order = list(draw(st.permutations(used)))
    unused = [n for n in NAMES if n not in used]
    if unused and draw(st.booleans()):
        # An indeterminate that no entry mentions is still enumerated.
        order.insert(draw(st.integers(0, len(order))), draw(st.sampled_from(unused)))
    pinned_names = draw(st.lists(st.sampled_from(order), unique=True)) if order else []
    ends = sorted({0, len(order)}.union(
        max((order.index(x) + 1 for x in entry.indeterminates()), default=0)
        for row in M for entry in row))
    if len(ends) > 1 and draw(st.booleans()):
        # Pin every position of one block, which then has no loop of its own.
        k = draw(st.integers(0, len(ends) - 2))
        pinned_names += [n for n in order[ends[k]:ends[k + 1]] if n not in pinned_names]
    free = [n for n in order if n not in pinned_names]
    while p ** len(free) > MAX_LEAVES:
        pinned_names.append(free.pop(draw(st.integers(0, len(free) - 1))))
    pinned = {n: draw(st.integers(0, p - 1)) for n in pinned_names}
    if draw(st.booleans()):
        planted = {n: draw(st.integers(0, p - 1)) for n in order}
        planted.update(pinned)
        demand = tuple(tuple(entry.eval_mod(planted, p) for entry in row) for row in M)
    else:
        demand = tuple(tuple(draw(st.integers(-1, 2)) for _ in range(cols))
                       for _ in range(rows))
    return M, demand, p, tuple(order), pinned


def x(k):
    return Poly.var(f"x{k}")


def check_against_reference_and_brute_force(M, demand, p, order, pinned):
    got = solvability_search(M, demand, p, order=order, pinned=pinned)
    assert_same_search(got, reference_search(M, demand, p, order=order, pinned=pinned))
    brute = brute_force_first_hit(M, demand, p, order, pinned)
    assert (got.status == "found") == (brute is not None)
    if brute is not None:
        assert got.assignment == brute


@settings(max_examples=300, deadline=None)
@given(search_cases())
# The first entry is not affine in the block's last position: its loop stays.
@example(([(x(2) + x(2) * x(2),)], ((1,),), 5, ("x2",), {}))
def test_search_matches_reference_and_brute_force(case):
    check_against_reference_and_brute_force(*case)


@settings(max_examples=300, deadline=None)
@given(search_cases(multilinear=True))
# The block's last loop is solved from its first entry a*x + b: with a
# literal a; with a runtime a that vanishes where b equals the target, and
# where it does not; with runtime a and b.
@example(([(x(0),)], ((1,),), 3, ("x0",), {}))
@example(([(x(0) * x(1) + Poly.const(1),)], ((1,),), 3, ("x0", "x1"), {}))
@example(([(x(0) * x(1) + Poly.const(1),)], ((0,),), 3, ("x0", "x1"), {}))
@example(([(x(0) * x(2) + x(1), x(2))], ((1, 2),), 5, ("x0", "x1", "x2"), {}))
def test_multilinear_search_matches_reference_and_brute_force(case):
    check_against_reference_and_brute_force(*case)


FANO_PINS = {"eps[Y1->e1]": 1, "eps[Y1->e2]": 1, "eps[Y2->e2]": 1}


@pytest.mark.parametrize("fixture, mode, p, pins, expected", [
    ("fano", "linear", 2, {}, ("found", 2270, 2913)),
    ("fano", "linear", 3, {}, ("exhausted", 102733, 257371)),
    ("fano", "linear", 5, FANO_PINS, ("exhausted", 113115, 542837)),
    ("butterfly", "none", 5, {}, ("found", 154219, 648984)),
    ("two_unicast_side", "none", 5, {}, ("exhausted", 184056, 906145)),
    ("two_unicast_chain", "none", 3, {}, ("exhausted", 32644, 77497)),
    ("butterfly", "none", 3, {}, ("found", 6087, 13324)),
    ("butterfly", "shannon", 5, {}, ("found", 6550, 27834)),
    ("butterfly", "linear", 7, {}, ("found", 630, 3903)),
    ("two_unicast_chain", "none", 2, {}, ("exhausted", 1053, 1161)),
    ("parallel_relay", "none", 3, {}, ("exhausted", 11281, 28035)),
])
def test_fixture_search_counts(fixture, mode, p, pins, expected):
    graph = build_fdg(load_fixture(fixture))
    if mode != "none":
        graph = reduce(graph, mode)[0]
    ts = build_transfer_system(graph)
    got = solvability_search(transfer_matrix(ts), ts.demand, p,
                             order=ts.indeterminates, pinned=pins)
    assert (got.status, got.evaluations_tried, got.entry_evals) == expected


# (fixture, mode, p, status, evaluations_tried, entry_evals, hit): every
# fixture x mode x field whose search fits the indeterminate cap and takes
# well under 0.1 s; the hit lists the values in ``ts.indeterminates`` order.
FIXTURE_SEARCHES = [
    ("butterfly", "none", 2, "found", 586, 660, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("butterfly", "none", 3, "found", 6087, 13324, (1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2)),
    ("butterfly", "none", 5, "found", 154219, 648984, (1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 1, 4)),
    ("butterfly", "shannon", 2, "found", 166, 204, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("butterfly", "shannon", 3, "found", 752, 1696, (1, 1, 1, 1, 1, 1, 1, 2, 1, 2)),
    ("butterfly", "shannon", 5, "found", 6550, 27834, (1, 1, 1, 1, 1, 1, 1, 4, 1, 4)),
    ("butterfly", "shannon", 7, "found", 29476, 183404, (1, 1, 1, 1, 1, 1, 1, 6, 1, 6)),
    ("butterfly", "linear", 2, "found", 50, 68, (1, 1, 1, 1, 1, 1, 1, 1)),
    ("butterfly", "linear", 3, "found", 98, 223, (1, 1, 1, 1, 1, 2, 1, 2)),
    ("butterfly", "linear", 5, "found", 284, 1199, (1, 1, 1, 1, 1, 4, 1, 4)),
    ("butterfly", "linear", 7, "found", 630, 3903, (1, 1, 1, 1, 1, 6, 1, 6)),
    ("fano", "linear", 2, "found", 2270, 2913, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
    ("fano", "linear", 3, "exhausted", 102733, 257371, None),
    ("parallel_relay", "none", 2, "exhausted", 547, 668, None),
    ("parallel_relay", "none", 3, "exhausted", 11281, 28035, None),
    ("parallel_relay", "shannon", 2, "exhausted", 34, 45, None),
    ("parallel_relay", "shannon", 3, "exhausted", 141, 359, None),
    ("parallel_relay", "shannon", 5, "exhausted", 925, 4389, None),
    ("parallel_relay", "shannon", 7, "exhausted", 3269, 22315, None),
    ("parallel_relay", "linear", 2, "exhausted", 8, 13, None),
    ("parallel_relay", "linear", 3, "exhausted", 15, 41, None),
    ("parallel_relay", "linear", 5, "exhausted", 35, 169, None),
    ("parallel_relay", "linear", 7, "exhausted", 63, 433, None),
    ("single_edge", "none", 2, "found", 4, 4, (1, 1)),
    ("single_edge", "none", 3, "found", 4, 5, (1, 1)),
    ("single_edge", "none", 5, "found", 4, 7, (1, 1)),
    ("single_edge", "none", 7, "found", 4, 9, (1, 1)),
    ("single_edge", "shannon", 2, "found", 4, 4, (1, 1)),
    ("single_edge", "shannon", 3, "found", 4, 5, (1, 1)),
    ("single_edge", "shannon", 5, "found", 4, 7, (1, 1)),
    ("single_edge", "shannon", 7, "found", 4, 9, (1, 1)),
    ("single_edge", "linear", 2, "found", 4, 4, (1, 1)),
    ("single_edge", "linear", 3, "found", 4, 5, (1, 1)),
    ("single_edge", "linear", 5, "found", 4, 7, (1, 1)),
    ("single_edge", "linear", 7, "found", 4, 9, (1, 1)),
    ("two_unicast_chain", "none", 2, "exhausted", 1053, 1161, None),
    ("two_unicast_chain", "none", 3, "exhausted", 32644, 77497, None),
    ("two_unicast_chain", "shannon", 2, "exhausted", 34, 45, None),
    ("two_unicast_chain", "shannon", 3, "exhausted", 141, 359, None),
    ("two_unicast_chain", "shannon", 5, "exhausted", 925, 4389, None),
    ("two_unicast_chain", "shannon", 7, "exhausted", 3269, 22315, None),
    ("two_unicast_chain", "linear", 2, "exhausted", 8, 13, None),
    ("two_unicast_chain", "linear", 3, "exhausted", 15, 41, None),
    ("two_unicast_chain", "linear", 5, "exhausted", 35, 169, None),
    ("two_unicast_chain", "linear", 7, "exhausted", 63, 433, None),
    ("two_unicast_side", "none", 2, "exhausted", 291, 358, None),
    ("two_unicast_side", "none", 3, "exhausted", 4720, 12201, None),
    ("two_unicast_side", "none", 5, "exhausted", 184056, 906145, None),
    ("two_unicast_side", "shannon", 2, "exhausted", 81, 110, None),
    ("two_unicast_side", "shannon", 3, "exhausted", 604, 1581, None),
    ("two_unicast_side", "shannon", 5, "exhausted", 8226, 39545, None),
    ("two_unicast_side", "shannon", 7, "exhausted", 45816, 314965, None),
    ("two_unicast_side", "linear", 2, "exhausted", 23, 36, None),
    ("two_unicast_side", "linear", 3, "exhausted", 76, 207, None),
    ("two_unicast_side", "linear", 5, "exhausted", 356, 1725, None),
    ("two_unicast_side", "linear", 7, "exhausted", 988, 6811, None),
]


@functools.cache
def fixture_system(fixture, mode):
    graph = build_fdg(load_fixture(fixture))
    if mode != "none":
        graph = reduce(graph, mode)[0]
    ts = build_transfer_system(graph)
    return ts, transfer_matrix(ts)


@pytest.mark.parametrize("fixture, mode, p, status, nodes, evals, hit", FIXTURE_SEARCHES)
def test_fixture_search_hits(fixture, mode, p, status, nodes, evals, hit):
    ts, M = fixture_system(fixture, mode)
    got = solvability_search(M, ts.demand, p, order=ts.indeterminates)
    assert (got.status, got.evaluations_tried, got.entry_evals) == (status, nodes, evals)
    if hit is None:
        assert got.assignment is None
    else:
        assert list(got.assignment.items()) == list(zip(ts.indeterminates, hit))


def forced_chain(n):
    """One entry x_i = 1 per indeterminate: the search must take x_i = 1."""
    names = tuple(f"y{i:02d}" for i in range(n))
    return [tuple(Poly.var(y) for y in names)], ((1,) * n,), names


@pytest.mark.parametrize("n", [21, 45])
def test_search_past_the_nesting_limit_hits(n):
    M, demand, order = forced_chain(n)
    got = solvability_search(M, demand, 2, order=order, indet_cap=n)
    assert_same_search(got, reference_search(M, demand, 2, order=order, indet_cap=n))
    assert got.assignment == dict.fromkeys(order, 1)


@pytest.mark.parametrize("extra, demand_of_extra", [
    (lambda y: Poly.var(y[0]) + Poly.var(y[1]), 1),   # fails in the second block
    (lambda y: Poly.const(2) * Poly.var(y[-1]), 1),   # vanishes mod 2 in the last block
], ids=["early-block", "last-block"])
def test_search_past_the_nesting_limit_exhausts(extra, demand_of_extra):
    M, demand, order = forced_chain(24)
    M.append((extra(order),))
    demand += ((demand_of_extra,),)
    got = solvability_search(M, demand, 2, order=order, indet_cap=24)
    assert got.status == "exhausted"
    assert_same_search(got, reference_search(M, demand, 2, order=order, indet_cap=24))


def check_past_the_nesting_limit(case, k):
    """A forced prefix of k positions, then a random case: the loop where the
    search moves into a nested function falls anywhere in the case's blocks."""
    M, demand, p, order, pinned = case
    prefix_M, prefix_demand, prefix = forced_chain(k)
    M, demand, order = prefix_M + list(M), prefix_demand + demand, prefix + order
    cap = len(order)
    got = solvability_search(M, demand, p, order=order, pinned=pinned, indet_cap=cap)
    assert_same_search(got, reference_search(M, demand, p, order=order, pinned=pinned,
                                             indet_cap=cap))


@settings(max_examples=100, deadline=None)
@given(search_cases(), st.integers(15, 22))
def test_search_past_the_nesting_limit_matches_reference(case, k):
    check_past_the_nesting_limit(case, k)


@settings(max_examples=100, deadline=None)
@given(search_cases(multilinear=True), st.integers(15, 22))
def test_multilinear_search_past_the_nesting_limit_matches_reference(case, k):
    check_past_the_nesting_limit(case, k)


def compiled_source(monkeypatch, M, demand, p, **options) -> str:
    """The source ``solvability_search`` compiles for these arguments."""
    source, sources = algebra._search_source, []

    def compile_search(*args):
        sources.append(source(*args))
        return sources[-1]

    monkeypatch.setattr(algebra, "_search_source", compile_search)
    solvability_search(M, demand, p, **options)
    return sources[0]


@pytest.mark.parametrize("target", [0, 1, 2])
def test_search_moves_into_a_nested_function_at_a_solved_loop(target, monkeypatch):
    # 19 forced loops, then the block x0, x1 with entry x0*x1 + 1: the 21st
    # loop, where the search moves into a nested function, is x1's, solved
    # with the runtime coefficient c19 (x0's loop variable).
    M, demand, order = forced_chain(19)
    M.append((x(0) * x(1) + Poly.const(1),))
    demand += ((target,),)
    order += ("x0", "x1")
    got = solvability_search(M, demand, 3, order=order, indet_cap=21)
    assert_same_search(got, reference_search(M, demand, 3, order=order, indet_cap=21))
    lines = compiled_source(monkeypatch, M, demand, 3, order=order, indet_cap=21).splitlines()
    header = lines[lines.index("    def part1():") + 2].strip()
    assert header == f"for c20 in R{target}[c19][1]:"


@st.composite
def factored_cases(draw):
    """(M, demand, p, order, pinned) over fields up to GF(11), each entry a
    product of one or two names (a name may repeat) and a sum of monomials:
    every monomial of an entry shares those factors, which lie in its own
    block or in an earlier one, and a pin may set one of them to 0."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    used = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    monomial = st.lists(st.sampled_from(used), max_size=2, unique=True)
    entries, factors = [], set()
    for _ in range(draw(st.integers(1, 4))):
        entry = Poly.zero()
        for c, names in draw(st.lists(st.tuples(st.integers(-3, 3), monomial),
                                      min_size=1, max_size=3)):
            term = Poly.const(c)
            for name in names:
                term = term * Poly.var(name)
            entry = entry + term
        for name in draw(st.lists(st.sampled_from(used), min_size=1, max_size=2)):
            entry = entry * Poly.var(name)
            factors.add(name)
        entries.append(entry)
    M = [tuple(entries)]
    order = tuple(draw(st.permutations(used)))
    pinned = {n: draw(st.integers(0, p - 1))
              for n in draw(st.lists(st.sampled_from(order), unique=True))}
    if draw(st.booleans()):
        pinned[draw(st.sampled_from(sorted(factors)))] = 0
    free = [n for n in order if n not in pinned]
    while p ** len(free) > MAX_LEAVES:
        pinned[free.pop(draw(st.integers(0, len(free) - 1)))] = draw(st.integers(0, p - 1))
    if draw(st.booleans()):
        planted = {n: draw(st.integers(0, p - 1)) for n in order}
        planted.update(pinned)
        demand = (tuple(entry.eval_mod(planted, p) for entry in entries),)
    else:
        demand = (tuple(draw(st.integers(0, p - 1)) for _ in entries),)
    return M, demand, p, order, pinned


@settings(max_examples=300, deadline=None)
@given(factored_cases(), st.sampled_from((0, 0, 15, 18, 20, 21, 22)))
# Nonzero factors x0, x1 in the block of the solved loop x2.
@example(([(x(0) * x(1) * (x(2) + Poly.const(1)),)], ((1,),), 5, ("x0", "x1", "x2"), {}), 0)
# x0 * x2 = 1 after x0 + x1 = 1: x0 was bound in the block before; with
# target 0 nothing is skipped; past the nesting limit the skip sits in part1.
@example(([(x(0) + x(1), x(0) * x(2))], ((1, 1),), 3, ("x0", "x1", "x2"), {}), 0)
@example(([(x(0) + x(1), x(0) * x(2))], ((1, 0),), 3, ("x0", "x1", "x2"), {}), 0)
@example(([(x(0) + x(1), x(0) * x(2))], ((1, 1),), 3, ("x0", "x1", "x2"), {}), 20)
# x1 * x1 is not affine in x1: its loop runs over the nonzero values.
@example(([(x(0) * x(1) * x(1),)], ((1,),), 5, ("x0", "x1"), {}), 0)
# A pin that zeroes a factor leaves nothing that can pass.
@example(([(x(0) * (x(1) + x(2)),)], ((1,),), 3, ("x0", "x1", "x2"), {"x0": 0}), 0)
@example(([(x(0) * x(1) * x(2),)], ((3,),), 11, ("x0", "x1", "x2"), {}), 0)
def test_search_with_shared_factors_matches_reference(case, k):
    # Values that fail a first entry with a nonzero target through a zero
    # factor are never tried; the counters and the hit must not show it.
    M, demand, p, order, pinned = case
    if k:  # a forced prefix moves the search into nested functions
        prefix_M, prefix_demand, prefix = forced_chain(k)
        M, demand, order = prefix_M + M, prefix_demand + demand, prefix + order
    options = dict(order=order, pinned=pinned, field_cap=11, indet_cap=len(order))
    assert_same_search(solvability_search(M, demand, p, **options),
                       reference_search(M, demand, p, **options))


def multilinear_entry(draw, coefficient, names, last):
    """A multilinear polynomial over ``names`` with a term in ``last``."""
    entry = Poly.const(draw(st.integers(-3, 3)))
    monomials = [*draw(st.lists(st.lists(st.sampled_from(names), unique=True), max_size=3)),
                 [last, *draw(st.lists(st.sampled_from(names), unique=True, max_size=1))]]
    for mono in monomials:
        term = Poly.const(draw(coefficient))
        for name in sorted(set(mono)):
            term = term * Poly.var(name)
        entry = entry + term
    return entry


@st.composite
def spectator_cases(draw):
    """(M, demand, p, order, pinned) whose first block runs head, spectator and
    tail positions in that order: its entries read the head and the tail, and
    the spectators are read only by a later entry, or by none."""
    p = draw(st.sampled_from((2, 3, 5)))
    names = iter(NAMES)
    head, spectators, tail, later = ([next(names) for _ in range(draw(st.integers(least, 2)))]
                                     for least in (0, 1, 1, 0))
    nonzero = st.integers(1, p - 1)  # no term vanishes mod p on its own
    M = [tuple(multilinear_entry(draw, nonzero, head + tail, tail[-1])
               for _ in range(draw(st.integers(1, 3))))]
    if later:  # a second table when no later entry reads later[0]
        M.append(tuple(multilinear_entry(draw, nonzero, spectators + later, later[-1])
                       for _ in range(draw(st.integers(1, 2)))))
    order = tuple(head + spectators + tail + later)
    pinned = {}
    while p ** (len(order) - len(pinned)) > MAX_LEAVES:  # spectators are pinned last
        unpinned = [n for n in order if n not in pinned and n not in spectators]
        pinned[draw(st.sampled_from(unpinned or spectators))] = draw(st.integers(0, p - 1))
    if draw(st.booleans()):
        planted = {n: draw(st.integers(0, p - 1)) for n in order}
        planted.update(pinned)
        demand = tuple(tuple(entry.eval_mod(planted, p) for entry in row) for row in M)
    else:
        demand = tuple(tuple(draw(st.integers(0, p - 1)) for _ in row) for row in M)
    return M, demand, p, order, pinned


# x0 | x1 | x2 x3 | x4: the first block tabulates x2, x3 behind the spectator
# x1, which only x1*x4 = 1 reads.  Over GF(3) its entries x0*x2 + x3 = 1 and
# x0 + x3 = 2 leave the table empty at x0 = 0; at x0 = 1 its one row x2 = 0,
# x3 = 1 is followed by two failing evaluations, and the hit takes the second
# spectator value, x1 = 1.  With x3 = 1 and x3 = 0 the table is always empty.
SPECTATOR_HIT = ([(x(0) * x(2) + x(3), x(0) + x(3)), (x(1) * x(4),)],
                 ((1, 2), (1,)), 3, ("x0", "x1", "x2", "x3", "x4"), {})
EMPTY_TABLE = ([(x(0) * x(2) + x(3), x(3))], ((1, 0),), 3, ("x0", "x1", "x2", "x3"), {})
# x0 | x1 x2 | x3 | x4: a one-loop tail with two entries, two spectators.
TWO_SPECTATORS = ([(x(0) * x(3), x(0) + x(3)), (x(1) * x(2) * x(4),)],
                  ((1, 2), (1,)), 3, ("x0", "x1", "x2", "x3", "x4"), {})
# x0 | x1, then x2 | x3: two blocks with a one-loop tail and two entries
# each, so the second table is built under the rows of the first.
TWO_TABLES = ([(x(1), Poly.const(2) * x(1)), (x(0) * x(3), x(0) + x(3))],
              ((1, 2), (1, 2)), 3, ("x0", "x1", "x2", "x3"), {})


@settings(max_examples=300, deadline=None)
@given(spectator_cases(), st.sampled_from((0, 0, 0, 15, 17, 18, 19, 20, 21)))
@example(SPECTATOR_HIT, 0)
@example(EMPTY_TABLE, 0)
@example(TWO_TABLES, 0)
# After a forced prefix of k loops: the tail's two loops are the 19th and
# 20th and the next block moves into a nested function (k = 17); the second
# spectator loop moves into one, which holds the loop over the rows (18);
# the tail would pass the 20th loop, so the block runs its loops in full
# (18, 19).
@example(SPECTATOR_HIT, 17)
@example(TWO_SPECTATORS, 18)
@example(SPECTATOR_HIT, 18)
@example(EMPTY_TABLE, 19)
def test_search_with_spectators_matches_reference(case, k):
    # A tail that no spectator value changes is searched once per prefix;
    # the counters and the hit must be those of the full loops.
    M, demand, p, order, pinned = case
    if k:  # a forced prefix moves the search into nested functions
        prefix_M, prefix_demand, prefix = forced_chain(k)
        M, demand, order = prefix_M + M, prefix_demand + demand, prefix + order
    options = dict(order=order, pinned=pinned, indet_cap=len(order))
    assert_same_search(solvability_search(M, demand, p, **options),
                       reference_search(M, demand, p, **options))


@pytest.mark.parametrize("fixture, mode, p, pins, table", [
    # Spectators c6, c7 between the head c0..c5 (c0..c2 pinned) and the
    # tail c8, c9, c10 of the first block.
    ("fano", "linear", 3, {},
     ("for c7 in range(3):", "for c8, c9, c10, k0, k1, k2, k3, e in t1:")),
    ("fano", "linear", 5, FANO_PINS,
     ("for c7 in range(5):", "for c8, c9, c10, k0, k1, e in t1:")),
    # The tail c7 is a lone solved loop with one entry: no table.
    ("two_unicast_side", "none", 5, {}, None),
])
def test_search_tabulates_a_tail_behind_spectators(fixture, mode, p, pins, table, monkeypatch):
    ts, M = fixture_system(fixture, mode)
    lines = [line.strip() for line in compiled_source(
        monkeypatch, M, ts.demand, p, order=ts.indeterminates, pinned=pins).splitlines()]
    if table is None:
        assert not any(line.endswith("= []") for line in lines)
    else:
        spectator, rows = table
        assert lines.index("t1 = []") < lines.index(spectator) == lines.index(rows) - 1


@pytest.mark.parametrize("case, k, tabulated", [
    (SPECTATOR_HIT, 0, True), (EMPTY_TABLE, 0, True), (TWO_SPECTATORS, 0, True),
    (TWO_TABLES, 0, True),
    (SPECTATOR_HIT, 17, True), (TWO_SPECTATORS, 18, True),
    (SPECTATOR_HIT, 18, False), (EMPTY_TABLE, 19, False),
])
def test_search_tabulates_within_the_nesting_limit(case, k, tabulated, monkeypatch):
    M, demand, p, order, pinned = case
    prefix_M, prefix_demand, prefix = forced_chain(k)
    source = compiled_source(monkeypatch, prefix_M + M, prefix_demand + demand, p,
                             order=prefix + order, pinned=pinned, indet_cap=k + len(order))
    assert (f"t{k + 1} = []" in source) == tabulated


def test_search_compiles_an_entry_with_thousands_of_terms():
    # x13 * (1 + x0) ... (1 + x12): 8192 terms that share x13 and read only
    # positions of earlier blocks, after one forced entry per x0..x12.
    M, demand, order = forced_chain(13)
    entry = Poly.var("z")
    for y in order:
        entry = entry * (Poly.const(1) + Poly.var(y))
    M[0] += (entry,)
    demand = (demand[0] + (1,),)
    order += ("z",)
    got = solvability_search(M, demand, 3, order=order)
    assert_same_search(got, reference_search(M, demand, 3, order=order))
    assert got.assignment["z"] == 2


def test_search_refuses_bad_pins_fields_demands_and_repeated_names():
    M, demand = [(Poly.var("x") * Poly.var("y"),)], ((1,),)
    for bad in (1.5, True, "1", None):
        with pytest.raises(ValueError, match="pinned value"):
            solvability_search(M, demand, 3, pinned={"x": bad})
    with pytest.raises(ValueError, match="more than once"):
        solvability_search(M, demand, 3, order=("x", "x", "y"))
    for bad in (3.0, True):
        with pytest.raises(ValueError, match="not an integer"):
            solvability_search(M, demand, bad)
    with pytest.raises(ValueError, match="demand"):
        solvability_search(M, ((1.0,),), 3)
    assert solvability_search(M, demand, 3, pinned={"x": 2}).assignment == {"x": 2, "y": 2}
