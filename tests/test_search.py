"""The GF(p) solvability search against a plain reference search.

``reference_search`` assigns one indeterminate per node of a depth-first
search and evaluates each entry through ``Poly.eval_mod`` as soon as its
last indeterminate is assigned.  It defines the contract of
``solvability_search``: the same status, the same assignment (keys in the
same order) and the same two counters, ``evaluations_tried`` and
``entry_evals``.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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


NAMES = ("x0", "x1", "x2", "x3")


@st.composite
def search_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    used = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    monomial = st.lists(st.tuples(st.sampled_from(used), st.integers(1, 3)),
                        max_size=3) if used else st.just([])
    term = st.tuples(st.integers(-7, 7), monomial)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    M = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            entry = Poly.zero()
            for c, factors in draw(st.lists(term, max_size=3)):
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
    pinned = {n: draw(st.integers(0, p - 1)) for n in pinned_names}
    if draw(st.booleans()):
        planted = {n: draw(st.integers(0, p - 1)) for n in order}
        planted.update(pinned)
        demand = tuple(tuple(entry.eval_mod(planted, p) for entry in row) for row in M)
    else:
        demand = tuple(tuple(draw(st.integers(-1, 2)) for _ in range(cols))
                       for _ in range(rows))
    return M, demand, p, tuple(order), pinned


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_search_matches_reference_and_brute_force(case):
    M, demand, p, order, pinned = case
    got = solvability_search(M, demand, p, order=order, pinned=pinned)
    ref = reference_search(M, demand, p, order=order, pinned=pinned)
    assert (got.status, got.evaluations_tried, got.entry_evals) == \
        (ref.status, ref.evaluations_tried, ref.entry_evals)
    if ref.assignment is None:
        assert got.assignment is None
    else:
        assert list(got.assignment.items()) == list(ref.assignment.items())
    brute = brute_force_first_hit(M, demand, p, order, pinned)
    assert (got.status == "found") == (brute is not None)
    if brute is not None:
        assert got.assignment == brute


FANO_PINS = {"eps[Y1->e1]": 1, "eps[Y1->e2]": 1, "eps[Y2->e2]": 1}


@pytest.mark.parametrize("fixture, mode, p, pins, expected", [
    ("fano", "linear", 2, {}, ("found", 2270, 2913)),
    ("fano", "linear", 3, {}, ("exhausted", 102733, 257371)),
    ("fano", "linear", 5, FANO_PINS, ("exhausted", 113115, 542837)),
    ("butterfly", "none", 5, {}, ("found", 154219, 648984)),
    ("two_unicast_side", "none", 5, {}, ("exhausted", 184056, 906145)),
    ("two_unicast_chain", "none", 3, {}, ("exhausted", 32644, 77497)),
])
def test_fixture_search_counts(fixture, mode, p, pins, expected):
    graph = build_fdg(load_fixture(fixture))
    if mode != "none":
        graph = reduce(graph, mode)[0]
    ts = build_transfer_system(graph)
    got = solvability_search(transfer_matrix(ts), ts.demand, p,
                             order=ts.indeterminates, pinned=pins)
    assert (got.status, got.evaluations_tried, got.entry_evals) == expected
