import dataclasses
import gc
import importlib.machinery
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import conftest as ref
from fdgtool import lpbound, netmodel, simplex
from fdgtool.fdg import EdgeVar, Fdg, SourceVar, build_fdg, reduce
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
# What the exact fallback answers on those LPs at unit weights and at weights
# 1/3, 2/7: (value, rates, simplex.solve calls, pivots over those calls).  A
# pivot count that moves means the fallback handed the simplex other
# rationals, or the same ones in another order.
EXACT_FALLBACK_PATHS = {
    ("parallel_relay", "shannon"): [(1, {1: 0, 2: 1}, 5, 132),
                                    (Fraction(1, 3), {1: 1, 2: 0}, 5, 122)],
    ("parallel_relay", "linear"): [(1, {1: 0, 2: 1}, 2, 17),
                                   (Fraction(1, 3), {1: 1, 2: 0}, 2, 16)],
    ("two_unicast_chain", "shannon"): [(1, {1: 0, 2: 1}, 5, 132),
                                       (Fraction(1, 3), {1: 1, 2: 0}, 5, 122)],
    ("two_unicast_chain", "linear"): [(1, {1: 0, 2: 1}, 2, 17),
                                      (Fraction(1, 3), {1: 1, 2: 0}, 2, 16)],
    ("two_unicast_side", "linear"): [(1, {1: 0, 2: 1}, 3, 56),
                                     (Fraction(1, 3), {1: 1, 2: 0}, 3, 58)],
    ("butterfly", "linear"): [(2, {1: 1, 2: 1}, 5, 228),
                              (Fraction(13, 21), {1: 1, 2: 1}, 4, 151)],
}


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
    with pytest.raises(ValueError, match="^need at least one variable$"):
        elemental_inequalities(0)


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


# Capacities for the rows-hold-at-zero property, 0 among them.
_CAPACITIES = st.sampled_from([0, 1]) | st.fractions(min_value=0, max_value=3,
                                                     max_denominator=7)


@pytest.mark.filterwarnings("ignore:source")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(_CAPACITIES, min_size=1, max_size=16))
def test_every_built_row_holds_at_zero(seed, caps):
    # The exact simplex starts from h = 0, and lp_solve refuses an LP that
    # h = 0 violates, so build_lp must never make one.  Linear mode needs
    # unit capacities, so it runs on the network as generated.
    unit = random_network(random.Random(seed))
    net = dataclasses.replace(unit, edges=tuple(
        dataclasses.replace(e, cap=Fraction(caps[k % len(caps)]))
        for k, e in enumerate(unit.edges)))
    g = build_fdg(net)
    graphs = [g, reduce(g, "shannon")[0], reduce(build_fdg(unit), "linear")[0]]
    for graph in graphs:
        if graph.order <= 10:
            problem = build_lp(graph, W11)
            assert verify_witness(problem, {}) == []
            assert all(rhs >= 0 if sense == "<=" else rhs <= 0 if sense == ">=" else rhs == 0
                       for rhs, sense in zip(problem.rows.rhs, problem.rows.senses))


def test_a_row_that_zero_violates_is_refused_with_and_without_scipy():
    # max h_1 subject to h_1 <= 2 and h_1 >= 1: h = 0 violates the second
    # row.  Both paths would answer 2; the refusal comes before either.
    rows = (Row("upper", lpbound.CAPACITY, ((1, Fraction(1)),), "<=", Fraction(2)),
            Row("floor", "TEST", ((1, Fraction(1)),), ">=", Fraction(1)))
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=((1, 1),),
                        objective=((1, Fraction(1)),), rows=rows)
    message = "h = 0 violates 1 row(s), floor: an entropy LP holds at the zero-rate point"
    with pytest.raises(ValueError) as refused:
        lp_solve(problem)
    assert str(refused.value) == message
    out = _fresh_python(_BLOCK_SCIPY, """
        from fractions import Fraction
        from fdgtool.lpbound import CAPACITY, LpProblem, Row, lp_solve
        rows = (Row("upper", CAPACITY, ((1, Fraction(1)),), "<=", Fraction(2)),
                Row("floor", "TEST", ((1, Fraction(1)),), ">=", Fraction(1)))
        try:
            lp_solve(LpProblem(n_vars=1, var_names=("v",), source_masks=((1, 1),),
                               objective=((1, Fraction(1)),), rows=rows))
        except ValueError as refused:
            print(refused, "scipy" in sys.modules)
    """)
    assert out == f"{message} False\n"
    # The message names at most five of the rows.
    rows = tuple(Row(f"r{k}", "TEST", ((1, Fraction(1)),), "=", Fraction(k + 1))
                 for k in range(7))
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=(), objective=(), rows=rows)
    with pytest.raises(ValueError, match=r"^h = 0 violates 7 row\(s\), r0, r1, r2, r3, r4: "):
        lp_solve(problem)


@pytest.mark.parametrize("cap", ["-1/2", "-1e4300"])
def test_a_negative_capacity_is_refused_as_validate_words_it(cap):
    # ``validate`` refuses it in a network; a graph built by hand or read
    # from JSON reaches build_lp and graph_lp_stats without that check.
    net = load_fixture("single_edge")
    net = dataclasses.replace(net, edges=(dataclasses.replace(net.edges[0],
                                                              cap=netmodel.parse_fraction(cap)),))
    [message] = [v for v in netmodel.validate(net) if "negative capacity" in v]
    doc = json.loads(build_fdg(load_fixture("single_edge")).to_json())
    doc["capacities"] = {"U:e1": cap}
    by_json = Fdg.from_json(json.dumps(doc))
    y, e = SourceVar(1), EdgeVar("e1", netmodel.parse_fraction(cap))
    by_hand = Fdg([y, e], {e: (y,), y: (e,)}, {y: {"t"}})
    for graph in (by_json, by_hand):
        for refuse in (lambda g: build_lp(g, Weights.of({1: 1})), graph_lp_stats):
            with pytest.raises(ValueError) as refused:
                refuse(graph)
            assert str(refused.value) == message


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


def _fresh_python(*code: str) -> str:
    """Stdout of the ``code`` blocks, run in turn in a fresh interpreter that
    imports this fdgtool."""
    src = str(Path(lpbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", "".join(map(textwrap.dedent, code))], env=env,
                          capture_output=True, text=True, timeout=60, check=True).stdout


_BLOCK_SCIPY = """
    import importlib.abc, sys

    class BlockScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(name)

    sys.meta_path.insert(0, BlockScipy())
"""


# id -> (rows as (name, column mask, sense, rhs), objective mask, message).
# HiGHS would read the sense '=<' as '<=' and the exact checks as '=', and a
# mask outside 1..2^N - 1 has no column.
_MISREAD_LPS = {
    "unknown-sense": ([("upper", 1, "<=", 2), ("odd", 1, "=<", 0)], 1,
                      "^row 'odd': unknown sense '=<'$"),
    "row-mask-above": ([("upper", 5, "<=", 2)], 1, "^row 'upper': column mask 5 is not in 1..1$"),
    "row-mask-negative": ([("upper", -1, "<=", 2)], 1,
                          "^row 'upper': column mask -1 is not in 1..1$"),
    "row-mask-zero": ([("upper", 0, "<=", 2)], 1, "^row 'upper': column mask 0 is not in 1..1$"),
    "objective-mask-above": ([("upper", 1, "<=", 2)], 4,
                             "^the objective: column mask 4 is not in 1..1$"),
}


@pytest.mark.parametrize("use", ["solve", "solve-without-scipy", "export"])
@pytest.mark.parametrize("case", _MISREAD_LPS)
def test_an_lp_that_would_be_read_two_ways_is_refused(case, use, monkeypatch):
    rows, objective, message = _MISREAD_LPS[case]
    if use == "solve-without-scipy":
        monkeypatch.setattr(lpbound, "_highs", lambda: None)
    run = export_lp if use == "export" else lp_solve
    with pytest.raises(ValueError, match=message):
        run(LpProblem(n_vars=1, var_names=("v",), source_masks=(),
                      objective=((objective, Fraction(1)),),
                      rows=tuple(Row(name, lpbound.CAPACITY, ((mask, Fraction(1)),), sense,
                                     Fraction(rhs)) for name, mask, sense, rhs in rows)))


# id -> (column mask, sense, message) of a row added to a built problem.
_LATE_ROWS = {
    "unknown-sense": (1, "=<", "^row 'late': unknown sense '=<'$"),
    "row-mask-above": (5, "<=", "^row 'late': column mask 5 is not in 1..1$"),
}


@pytest.mark.parametrize("use", ["solve", "solve-without-scipy", "export"])
@pytest.mark.parametrize("case", _LATE_ROWS)
def test_a_row_added_after_the_problem_is_built_is_refused(case, use, monkeypatch):
    # ``rows`` is a mutable table: a row added to a built problem is refused
    # as one given to it, so HiGHS never reads it.  Before, the sense '=<'
    # answered "optimal 0" with scipy, and mask 5 raised an IndexError.
    mask, sense, message = _LATE_ROWS[case]
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=((1, 1),),
                        objective=((1, Fraction(1)),),
                        rows=(Row("upper", lpbound.CAPACITY, ((1, Fraction(1)),), "<=",
                                  Fraction(2)),))
    problem.rows.add("late", "TEST", ((mask, Fraction(1)),), sense, Fraction(0))
    if use == "solve-without-scipy":
        monkeypatch.setattr(lpbound, "_highs", lambda: None)
    with pytest.raises(ValueError, match=message):
        (export_lp if use == "export" else lp_solve)(problem)


def test_a_solve_without_scipy_never_loads_numpy():
    # A fresh interpreter with scipy made unimportable, as in an install
    # without the test extras: the exact path answers, numpy stays out and
    # so does HiGHS.
    out = _fresh_python(_BLOCK_SCIPY, """
        from fdgtool.fdg import build_fdg
        from fdgtool.lpbound import build_lp, lp_solve
        from fdgtool.netmodel import Weights, load_fixture
        sol = lp_solve(build_lp(build_fdg(load_fixture("single_edge")), Weights.of({1: 1})))
        print(sol.status, sol.value, sol.method, "numpy" in sys.modules,
              any("_highspy" in name for name in sys.modules))
    """)
    assert out == "optimal 1 exact False False\n"


def test_a_cli_solve_imports_neither_scipy_optimize_nor_scipy_sparse():
    fixture = Path(lpbound.__file__).parent / "fixtures" / "single_edge.json"
    out = _fresh_python(f"""
        import runpy, sys
        sys.argv = ["fdgtool", "lp", "--solve", {str(fixture)!r}]
        try:
            runpy.run_module("fdgtool", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert not exit.code, exit.code
        print(sorted(name for name in ("scipy.optimize", "scipy.sparse",
                                       "scipy.optimize._highspy._core")
                     if name in sys.modules))
    """)
    assert out.splitlines()[-1] == "['scipy.optimize._highspy._core']"


@pytest.mark.parametrize("fixture, reduce_mode", [("single_edge", "shannon"),
                                                  ("butterfly", "none")])
def test_a_cli_solve_never_imports_numpy(fixture, reduce_mode):
    # HiGHS reads the model from an MPS file and hands back lists, so numpy,
    # 11 MB and about 0.1 s of start-up, stays out of a solve.
    path = Path(lpbound.__file__).parent / "fixtures" / f"{fixture}.json"
    out = _fresh_python(f"""
        import runpy, sys
        sys.argv = ["fdgtool", "lp", "--solve", "--reduce", {reduce_mode!r}, {str(path)!r}]
        try:
            runpy.run_module("fdgtool", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert not exit.code, exit.code
        print("numpy" in sys.modules, "scipy.optimize._highspy._core" in sys.modules)
    """)
    assert out.splitlines()[-1] == "False True"


def test_highs_writes_nothing_to_stdout_or_stderr(capfd):
    # HiGHS writes through C stdio, past ``sys.stdout``: a banner from
    # reading the model or solving it would land inside the CLI's JSON.
    sol = lp_solve(_fixture_problem("butterfly", "none"))
    assert (sol.value, sol.method) == (2, "certificate")
    assert capfd.readouterr() == ("", "")


def test_a_model_highs_cannot_read_takes_the_exact_path(monkeypatch):
    # No temporary file (a full disk, say), or a file HiGHS fails to read:
    # the exact simplex answers, as without scipy.
    problem = _fixture_problem("single_edge", "none")
    highs = lpbound._highs()

    def no_directory():
        raise OSError(28, "No space left on device")

    for target, name, value in [
            (lpbound.tempfile, "TemporaryDirectory", no_directory),
            (lpbound, "_highs", lambda: highs._replace(read_model=lambda solver, path: None))]:
        with monkeypatch.context() as m:
            m.setattr(target, name, value)
            assert lpbound._float_solve(problem) is None
            sol = lp_solve(problem)
        assert (sol.status, sol.value, sol.method) == ("optimal", 1, "exact")


def test_highs_is_found_where_scipy_is_installed():
    # A scipy whose layout moved HiGHS would otherwise send every solve down
    # the exact path without a word.  A later import of scipy.optimize reuses
    # the loaded module, and linprog still runs.
    out = _fresh_python("""
        import sys
        from fdgtool import lpbound
        assert lpbound._highs() is not None
        core = sys.modules[lpbound._HIGHS_MODULE]
        assert lpbound._highs() is not None and sys.modules[lpbound._HIGHS_MODULE] is core
        assert "scipy.optimize" not in sys.modules
        from scipy.optimize import linprog
        from scipy.optimize._highspy import _core
        assert _core is core
        print(linprog([-1.0], A_ub=[[1.0]], b_ub=[2.0], method="highs").x.tolist())
    """)
    assert out == "[2.0]\n"


def test_highs_is_loaded_from_scipys_directory_and_registered(monkeypatch):
    # The suite imports scipy.optimize, which registers the module first; with
    # it gone, ``_load_highs`` loads it from its file.  An extension module is
    # initialised once per process, so a load returns the same object.
    assert lpbound._highs() is not None
    core = sys.modules[lpbound._HIGHS_MODULE]
    monkeypatch.delitem(sys.modules, lpbound._HIGHS_MODULE)
    loaded = lpbound._load_highs()
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    assert Path(loaded.__file__).parent == Path(scipy_dir, "optimize", "_highspy")
    assert sys.modules[lpbound._HIGHS_MODULE] is loaded is core
    assert lpbound._load_highs() is loaded
    sol = lp_solve(build_lp(build_fdg(load_fixture("butterfly")), Weights.of({1: 1, 2: 1})))
    assert (sol.status, sol.value, sol.method) == ("optimal", 2, "certificate")


def test_a_scipy_without_the_highs_file_takes_the_exact_path(monkeypatch, tmp_path):
    # ``find_spec`` returns the spec of a module in ``sys.modules``: here a
    # scipy whose only directory is empty.
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations.append(str(tmp_path))
    scipy = type(sys)("scipy")
    scipy.__spec__ = spec
    monkeypatch.setitem(sys.modules, "scipy", scipy)
    monkeypatch.delitem(sys.modules, lpbound._HIGHS_MODULE, raising=False)
    assert lpbound._highs() is None
    assert lpbound._HIGHS_MODULE not in sys.modules
    sol = lp_solve(build_lp(build_fdg(load_fixture("single_edge")), Weights.of({1: 1})))
    assert (sol.status, sol.value, sol.method) == ("optimal", 1, "exact")


@pytest.mark.parametrize("missing", ["_Highs", "_Highs.readModel", "_Highs.getBasis",
                                     "HighsOptions", "HighsBasisStatus", "HighsModelStatus",
                                     "HighsStatus", "HighsDebugLevel", "simplex_constants"])
def test_a_highs_module_without_a_name_the_solve_reads_takes_the_exact_path(
        missing, monkeypatch):
    # A scipy release whose module lacks one of these names, or whose
    # ``_Highs`` lacks one of these methods, is treated as one without
    # HiGHS, not left to fail inside the solve.
    assert lpbound._highs() is not None
    core = sys.modules[lpbound._HIGHS_MODULE]
    stub = type(sys)(lpbound._HIGHS_MODULE)
    stub.__dict__.update((name, getattr(core, name)) for name in dir(core)
                         if name != missing)
    if missing.startswith("_Highs."):
        method = missing.partition(".")[2]
        stub._Highs = type("_Highs", (), {name: getattr(core._Highs, name)
                                          for name in ("passOptions", "readModel", "run",
                                                       "getModelStatus", "getBasis",
                                                       "getSolution") if name != method})
    monkeypatch.setitem(sys.modules, lpbound._HIGHS_MODULE, stub)
    assert lpbound._highs() is None
    sol = lp_solve(build_lp(build_fdg(load_fixture("single_edge")), Weights.of({1: 1})))
    assert (sol.status, sol.value, sol.method) == ("optimal", 1, "exact")


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


def _assert_built_as_the_reference(graph, weights):
    p, r = build_lp(graph, weights), ref.reference_build_lp(graph, weights)
    rows = list(p.rows)
    assert rows == list(r.rows)
    assert all(type(x) is Fraction for row in rows for x in (row.rhs, *dict(row.coeffs).values()))
    assert p.rows[-1] == r.rows[-1] and p.rows[2:5] == list(r.rows[2:5])
    assert (p.n_vars, p.var_names, p.source_masks, p.objective) == (
        r.n_vars, r.var_names, r.source_masks, r.objective)
    rebuilt = LpProblem(n_vars=p.n_vars, var_names=p.var_names, source_masks=p.source_masks,
                        objective=p.objective, rows=tuple(rows))
    assert rebuilt == p and hash(rebuilt) == hash(p)


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_build_lp_equals_the_fraction_reference(fixture, mode):
    text = netmodel.fixture_text(fixture)
    texts = [text]
    if mode != "linear":  # linear reduction requires unit capacities
        texts.append(text.replace('"cap": "1"', '"cap": "2.5"', 1)
                     .replace('"cap": "1"', '"cap": "3/7"', 1))
    for text in texts:
        net = parse_network(text)
        graph = build_fdg(net)
        if mode != "none":
            graph, _ = reduce(graph, mode)
        for weights in ({s.index: 1 for s in net.sources},
                        {s.index: Fraction(s.index, 3 + 4 * s.index) for s in net.sources}):
            _assert_built_as_the_reference(graph, Weights.of(weights))


_CAPACITIES = (1, 2, Fraction(1, 2), 3, Fraction(3, 2), Fraction(2, 7))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["none", "shannon"]), st.data())
def test_build_lp_equals_the_fraction_reference_on_random_networks(seed, mode, data):
    net = random_network(random.Random(seed), max_edges=6)
    caps = data.draw(st.lists(st.sampled_from(_CAPACITIES), min_size=len(net.edges),
                              max_size=len(net.edges)))
    net = dataclasses.replace(net, edges=tuple(
        dataclasses.replace(e, cap=Fraction(cap)) for e, cap in zip(net.edges, caps)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a source that no sink demands
        graph = build_fdg(net)
    if mode != "none":
        graph, _ = reduce(graph, mode)
    assume(graph.order <= 10)
    weights = data.draw(st.lists(st.sampled_from([1, Fraction(1, 2), Fraction(2, 7)]),
                                 min_size=len(net.sources), max_size=len(net.sources)))
    _assert_built_as_the_reference(graph, Weights.of(dict(enumerate(weights, 1))))


def test_build_lp_leaves_no_object_per_row_for_the_collector():
    # Rows held as Fraction tuples left about six tracked objects per row.
    graph = build_fdg(load_fixture("two_unicast_chain"))
    gc.collect()
    before = len(gc.get_objects())
    problem = build_lp(graph, W11)
    gc.collect()
    assert len(problem.rows) == 11549
    assert len(gc.get_objects()) - before < 100


def _model_highs_reads(problem) -> dict:
    """``highs_lp_bytes`` of the model HiGHS holds right after it reads the
    float solve's MPS file for ``problem``."""
    highs, models = lpbound._highs(), []

    def read_model(solver, path):
        status = highs.read_model(solver, path)
        models.append(ref.highs_lp_bytes(solver.getLp()))
        return status

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lpbound, "_highs", lambda: highs._replace(read_model=read_model))
        lpbound._float_solve(problem)
    [model] = models
    return model


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_float_solve_hands_linprog_the_reference_arrays(fixture, mode):
    # The model HiGHS reads from the float solve's MPS file is, bit for bit,
    # the one that scipy's linprog builds from the reference arrays and
    # hands HiGHS.
    for p in _reference_cases(fixture, mode):
        lp, _ = ref.reference_highs_model(p)
        assert _model_highs_reads(p) == ref.highs_lp_bytes(lp)


def test_float_solve_hands_linprog_the_reference_arrays_at_a_tiny_capacity():
    # 1/123456789 is no short decimal: its repr must read back to its bits.
    p = build_lp(_first_capacity_set("single_edge", "1/123456789"), Weights.of({1: 1}))
    lp, _ = ref.reference_highs_model(p)
    assert _model_highs_reads(p) == ref.highs_lp_bytes(lp)


def test_a_weight_below_the_least_float_reads_back_as_a_positive_zero_cost(monkeypatch):
    # linprog's cost for a weight that rounds to zero is -0.0, but HiGHS's
    # MPS reader drops a zero objective entry, so that column's cost is
    # +0.0.  Nothing else in the model differs, and HiGHS still ends where
    # linprog does, x and duals bit for bit.
    graph, _ = reduce(build_fdg(load_fixture("butterfly")), "shannon")
    p = build_lp(graph, Weights.of({1: 1, 2: Fraction(1, 10 ** 400)}))
    lp, _ = ref.reference_highs_model(p)
    want, got = ref.highs_lp_bytes(lp), _model_highs_reads(p)
    [(mask, _)] = [(mask, w) for mask, w in p.objective if w < 1]
    cost = np.frombuffer(want["col_cost_"]).copy()
    assert str(cost[mask - 1]) == "-0.0"
    cost[mask - 1] = 0.0
    assert got == {**want, "col_cost_": cost.tobytes()}
    _assert_solved_as_linprog(p, monkeypatch)


def test_a_row_coefficient_below_the_least_float_is_dropped_from_the_matrix():
    # linprog's matrix keeps a coefficient that rounds to zero as an explicit
    # 0.0 entry, but HiGHS's MPS reader drops a zero matrix entry, so HiGHS
    # holds one entry fewer.  Nothing else in the model differs, and the
    # basis still certifies the exact optimum, 3 - 10^-400.
    tiny = Fraction(1, 10 ** 400)
    rows = (Row("mixed", lpbound.CAPACITY, ((1, Fraction(1)), (2, tiny)), "<=", Fraction(1)),
            Row("second", lpbound.CAPACITY, ((2, Fraction(1)),), "<=", Fraction(1)),
            Row("third", lpbound.CAPACITY, ((3, Fraction(1)),), "<=", Fraction(1)))
    p = LpProblem(n_vars=2, var_names=("u", "v"), source_masks=(),
                  objective=((1, Fraction(1)), (2, Fraction(1)), (3, Fraction(1))), rows=rows)
    lp, _ = ref.reference_highs_model(p)
    want, got = ref.highs_lp_bytes(lp), _model_highs_reads(p)
    value, index = np.frombuffer(want["a_matrix_.value_"]), want["a_matrix_.index_"]
    [k] = np.flatnonzero(value == 0).tolist()
    assert got == {**want, "a_matrix_.start_": [s - (s > k) for s in want["a_matrix_.start_"]],
                   "a_matrix_.index_": index[:k] + index[k + 1:],
                   "a_matrix_.value_": np.delete(value, k).tobytes()}
    sol = lp_solve(p)
    assert sol.method == "certificate" and sol.value == 3 - tiny
    assert verify_witness(p, sol.witness) == []


def test_float_solve_sets_the_linprog_options():
    _, options = ref.reference_highs_model(_fixture_problem("single_edge", "none"))
    highs = lpbound._highs()
    assert lpbound._highs_options(sys.modules[lpbound._HIGHS_MODULE]) == options
    assert {name: getattr(highs.options, name) for name in options} == options


def _linprog_weights(name):
    """Weights 1,1 and 1,0 and 1/3,2/7 over the fixture's sources."""
    n_sources = len(parse_network(netmodel.fixture_text(name)).sources)
    for pair in [(1, 1), (1, 0), (Fraction(1, 3), Fraction(2, 7))]:
        yield Weights.of(dict(zip((1, 2), pair[:n_sources])))


def _assert_solved_as_linprog(problem, monkeypatch):
    # The float solve returns the basis, not x; the solver it ran is kept
    # here, so its x and duals are read off the very solve it ran.
    from scipy.optimize import linprog

    c, kwargs = ref.reference_linprog_inputs(problem)
    res = linprog(c, **kwargs)
    highs, solvers = lpbound._highs(), []
    with monkeypatch.context() as m:
        m.setattr(lpbound, "_highs", lambda: highs._replace(
            solver=lambda: solvers.append(highs.solver()) or solvers[-1]))
        basic, tight, support = lpbound._float_solve(problem)
    solution = solvers[0].getSolution()
    assert res.success
    assert np.array(solution.col_value).tobytes() == res.x.tobytes()
    marginals = [*res.ineqlin.marginals.tolist(), *res.eqlin.marginals.tolist()]
    assert np.array(solution.row_dual).tobytes() == np.array(marginals).tobytes()
    ub_idx = [i for i, row in enumerate(problem.rows) if row.sense != "="]
    eq_idx = [i for i, row in enumerate(problem.rows) if row.sense == "="]
    assert lpbound._mps_text(problem)[1] == ub_idx + eq_idx
    assert support == [i for i, d in zip(ub_idx + eq_idx, marginals) if d]
    assert len(tight) == len(basic)  # a basis has one tight row per basic column


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_float_solve_equals_the_public_linprog(fixture, mode, monkeypatch):
    for weights in _linprog_weights(fixture):
        _assert_solved_as_linprog(_fixture_problem(fixture, mode, weights), monkeypatch)


def test_float_solve_equals_the_public_linprog_at_a_tiny_capacity(monkeypatch):
    _assert_solved_as_linprog(build_lp(_first_capacity_set("single_edge", "1/123456789"),
                                       Weights.of({1: 1})), monkeypatch)


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
    # A row here may mix denominators, as 1/2 and 1/3, or hold a number that
    # is not in lowest terms over the row's scale, as 1/2 in a row with 1/4;
    # no fixture has either.
    problem, point = case
    assert verify_witness(problem, point) == ref.verify_witness(problem, point)
    assert lpbound._violated_rows(problem, point, ray=True) == [
        i for i, row in enumerate(problem.rows)
        if ref._ray_violates(row, ref._eval_row(row.coeffs, point))]
    assert export_lp(problem) == ref.export_lp(problem)
    lp, _ = ref.reference_highs_model(problem)
    assert _model_highs_reads(problem) == ref.highs_lp_bytes(lp)


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


def _stored_row_dual(problem, ub_idx, eq_idx, u, v, value):
    """``_dual_checks``' arguments for ``lpbound._dual_certifies``: a linprog
    multiplier q stands for the row as written, '>=' rows negated, so the
    multiplier of the row as stored, at scale s, is q / s, negated on '>='."""
    dual = {i: q / problem.rows.scales[i] * (-1 if problem.rows.senses[i] == ">=" else 1)
            for q, i in [*zip(u, ub_idx), *zip(v, eq_idx)]}
    return problem, dual, value


@settings(max_examples=300, deadline=None)
@given(_dual_checks())
def test_integer_dual_check_equals_the_fraction_reference(args):
    assert lpbound._dual_certifies(*_stored_row_dual(*args)) == ref._dual_certifies(*args)


@settings(max_examples=100, deadline=None)
@given(_dual_checks(), st.data())
def test_a_multiplier_of_the_wrong_sign_never_certifies(args, data):
    problem, dual, value = _stored_row_dual(*args)
    signed = [i for i, y in dual.items() if y and problem.rows.senses[i] != "="]
    assume(signed)
    i = data.draw(st.sampled_from(signed))
    dual[i] = -dual[i]
    assert not lpbound._dual_certifies(problem, dual, value)


def test_negative_float_multipliers_never_certify():
    # max h_1 s.t. h_1 <= 2, h_1 >= 0.  On the basis {h_1 basic, lower
    # tight} the point h_1 = 0 is feasible but not optimal; only the
    # negative multiplier the dual solves to on the >= row would "certify" it.
    rows = (Row("upper", lpbound.CAPACITY, ((1, Fraction(1)),), "<=", Fraction(2)),
            Row("lower", lpbound.CAPACITY, ((1, Fraction(1)),), ">=", Fraction(0)))
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=(),
                        objective=((1, Fraction(1)),), rows=rows)
    assert not lpbound._dual_certifies(problem, {1: Fraction(1)}, Fraction(0))
    assert lpbound._certified_from_basis(problem, ([1], [1], [1])) is None
    assert lpbound._certified_from_basis(problem, ([1], [0], [0])).value == 2


def test_a_basis_that_leaves_a_basic_column_free_is_declined():
    # max h_1 + h_2 s.t. h_1 + h_2 <= 2: with both columns basic, the one
    # tight row does not fix the basic point.
    rows = (Row("upper", lpbound.CAPACITY, ((1, Fraction(1)), (2, Fraction(1))), "<=",
                Fraction(2)),)
    problem = LpProblem(n_vars=2, var_names=("u", "v"), source_masks=(),
                        objective=((1, Fraction(1)), (2, Fraction(1))), rows=rows)
    assert lpbound._certified_from_basis(problem, ([1, 2], [0], [0])) is None
    assert lpbound._certified_from_basis(problem, ([1], [0], [0])).value == 2


def test_rate_needs_a_witness_and_a_known_source():
    unbounded = lpbound.LpSolution(status="unbounded", value=None, witness=None)
    with pytest.raises(ValueError, match="^no witness on a unbounded solution$"):
        unbounded.rate(1)
    solution = lpbound.LpSolution(status="optimal", value=Fraction(1),
                                  witness={1: Fraction(1)}, source_masks=((1, 1),))
    assert solution.rate(1) == 1
    with pytest.raises(KeyError, match="unknown source index 2"):
        solution.rate(2)


def test_a_witness_that_rounds_only_at_the_first_limit_certifies():
    # A column of the reduced LP of a 9-edge network (nodes s1 s2 m1 m2 t1
    # t2, capacities 3/2, 1/2, 2/7, 1/3, 5/11, 2, 7/1000, 2, 5/11) under
    # -w 2/7,2/7 is 11521/3000 at the optimum.  Rounding HiGHS's float for
    # it at 10^8 gave a point that is feasible but not optimal; the basis
    # {h_1 basic, upper tight} gives 11521/3000 exactly.
    cap = Fraction(11521, 3000)
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=(),
                        objective=((1, Fraction(1)),),
                        rows=(Row("upper", lpbound.CAPACITY, ((1, Fraction(1)),), "<=", cap),))
    sol = lpbound._certified_from_basis(problem, ([1], [0], [0]))
    assert sol is not None and sol.method == "certificate"
    assert sol.value == cap and sol.witness == {1: cap}


def test_an_equality_row_with_a_scale_certifies():
    # max h_1 s.t. h_1 / 2 = 3/4, stored as 2 h_1 = 3 at scale 4: the dual
    # of the stored row, 1/2, stands for 2 on the row as written.
    problem = LpProblem(n_vars=1, var_names=("v",), source_masks=(),
                        objective=((1, Fraction(1)),),
                        rows=(Row("half", lpbound.ENCODE, ((1, Fraction(1, 2)),), "=",
                                  Fraction(3, 4)),))
    sol = lpbound._certified_from_basis(problem, ([1], [0], [0]))
    assert sol is not None and sol.value == Fraction(3, 2)


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


def _block_simplex(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the exact simplex ran: the certificate failed")
    monkeypatch.setattr(lpbound.simplex, "solve", solve)


def test_a_drawn_capacity_case_that_rounding_missed_certifies(monkeypatch):
    # Rounding HiGHS's floats to fractions missed this unreduced butterfly,
    # which then fell to the exact simplex; its optimal basis gives the
    # Shannon-reduced value, 2/7.
    doc = json.loads(netmodel.fixture_text("butterfly"))
    caps = {"e_a": "2/7", "e_b": "3/2", "e_c": "2/7", "e_d": "1", "e_e": "3", "e_f": "2/7",
            "e_g": "1/2"}
    for edge in doc["edges"]:
        edge["cap"] = caps[edge["id"]]
    _block_simplex(monkeypatch)
    sol = lp_solve(build_lp(build_fdg(parse_network(json.dumps(doc))), Weights.of({1: 1, 2: 0})))
    assert (sol.status, sol.value, sol.method) == ("optimal", Fraction(2, 7), "certificate")


def _spy(monkeypatch, name):
    """Replace ``lpbound.<name>`` by a wrapper that records each call's
    arguments and result, as (args, result), in the list returned."""
    calls, real = [], getattr(lpbound, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(lpbound, name, spy)
    return calls


def test_a_basic_point_that_violates_a_row_is_declined(monkeypatch):
    # Every capacity, about 8.1e-9, sits below HiGHS's 1e-7 feasibility
    # tolerance, so the basis HiGHS calls optimal has a basic point that
    # fails elemental rows in exact arithmetic.  Only the float solve and
    # the certificate run: the exact fallback takes minutes here.
    doc = json.loads(netmodel.fixture_text("butterfly"))
    for edge in doc["edges"]:
        edge["cap"] = "1/123456789"
    graph, _ = reduce(build_fdg(parse_network(json.dumps(doc))), "shannon")
    problem = build_lp(graph, W11)
    checks = _spy(monkeypatch, "_violated_rows")
    assert lpbound._certified_from_basis(problem, lpbound._float_solve(problem)) is None
    [(_, bad)] = checks
    assert {"elem2_9", "elem2_17", "elem2_34"} < {problem.rows.names[i] for i in bad}


def test_a_dual_of_the_wrong_sign_is_declined(monkeypatch):
    # HiGHS's basis is dual feasible only within its 1e-7 tolerance: its
    # basic point is feasible, but its exact dual puts multipliers of about
    # 7e-8 of the wrong sign on elemental rows, which ``_dual_certifies``
    # refuses by itself.
    problem = build_lp(_first_capacity_set("two_unicast_chain", "1/3"),
                       Weights.of({1: Fraction(1, 3), 2: Fraction(2, 7)}))
    checks, duals = _spy(monkeypatch, "_violated_rows"), _spy(monkeypatch, "_dual_certifies")
    assert lpbound._certified_from_basis(problem, lpbound._float_solve(problem)) is None
    [(_, bad)], [((_, dual, _), certifies)] = checks, duals
    assert bad == [] and certifies is False
    senses = problem.rows.senses
    assert any((senses[i] == "<=" and y < 0) or (senses[i] == ">=" and y > 0)
               for i, y in dual.items())


def test_the_certificate_reads_no_float_value(monkeypatch):
    # HiGHS's x, and each of its nonzero duals, are replaced by other nonzero
    # noise: only the basis, and which duals are zero, reach the certificate.
    highs, rng = lpbound._highs(), random.Random(26)

    def noise():
        return rng.choice([-1, 1]) * rng.uniform(1e-3, 9)

    class Noisy(highs.solver):
        def getSolution(self):
            solution = super().getSolution()
            solution.col_value = [noise() for _ in solution.col_value]
            solution.row_dual = [d and noise() for d in solution.row_dual]
            return solution

    thirds = Weights.of({1: Fraction(1, 3), 2: Fraction(2, 7)})
    problems = [_fixture_problem("butterfly", "shannon", thirds),
                _fixture_problem("two_unicast_side", "none"),
                _fixture_problem("fano", "linear", thirds)]
    want = [lp_solve(problem) for problem in problems]
    monkeypatch.setattr(lpbound, "_highs", lambda: highs._replace(solver=Noisy))
    _block_simplex(monkeypatch)
    for problem, expected in zip(problems, want):
        sol = lp_solve(problem)
        assert (sol.value, sol.witness, sol.method) == (expected.value, expected.witness,
                                                        "certificate")


@st.composite
def _square_systems(draw):
    """n equations in n unknowns, n <= 4, with small integer coefficients
    and rational right-hand sides.  The last equation is sometimes a
    combination of the others, its right-hand side kept (a singular system)
    or moved (an inconsistent one)."""
    n = draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    matrix = [[draw(coeff) for _ in range(n)] for _ in range(n)]
    rhs = [draw(_RATIONALS) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        mults = [draw(coeff) for _ in range(n - 1)]
        matrix[-1] = [sum(m * row[k] for m, row in zip(mults, matrix)) for k in range(n)]
        rhs[-1] = sum(m * b for m, b in zip(mults, rhs)) + draw(st.sampled_from([0, 0, 1]))
    return [({k: c for k, c in enumerate(row) if c}, b) for row, b in zip(matrix, rhs)]


@settings(max_examples=400, deadline=None)
@given(_square_systems())
def test_exact_solve_equals_the_gauss_jordan_reference(equations):
    got = lpbound._solve_unique(equations)
    assert got == ref.solve_unique(equations)
    assert got is None or all(isinstance(x, Fraction) for x in got.values())


@pytest.mark.parametrize("fixture, mode", SMALL_FIXTURE_MODES)
def test_benchmark_solves_answer_by_certificate(fixture, mode, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("the exact simplex ran: the certificate failed")
    monkeypatch.setattr(lpbound.simplex, "solve", solve)
    sol = lp_solve(_fixture_problem(fixture, mode))
    assert sol.status == "optimal" and sol.value == KNOWN_OPTIMA[fixture]
    assert sol.method == "certificate"
    assert (sol.rounds, sol.pivots) == (0, 0)


@pytest.mark.parametrize("fixture, mode", EXACT_FIXTURE_MODES)
def test_solves_without_the_float_solve_answer_exactly(fixture, mode, monkeypatch):
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    sol = lp_solve(_fixture_problem(fixture, mode))
    assert sol.status == "optimal" and sol.value == KNOWN_OPTIMA[fixture]
    assert sol.method == "exact"


@pytest.mark.parametrize("fixture, mode", EXACT_FIXTURE_MODES)
def test_exact_fallback_keeps_its_answers_and_pivot_path(fixture, mode, monkeypatch):
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    pivots = []
    solve = simplex.solve

    def counted(*args):
        res = solve(*args)
        pivots.append(res.pivots)
        return res

    monkeypatch.setattr(simplex, "solve", counted)
    got = []
    for weights in (None, Weights.of({1: Fraction(1, 3), 2: Fraction(2, 7)})):
        pivots.clear()
        sol = lp_solve(_fixture_problem(fixture, mode, weights))
        assert sol.status == "optimal" and sol.method == "exact"
        got.append((sol.value, {k: sol.rate(k) for k, _ in sol.source_masks},
                    len(pivots), sum(pivots)))
    assert got == EXACT_FALLBACK_PATHS[fixture, mode]


@pytest.mark.parametrize("fixture, mode", EXACT_FIXTURE_MODES)
def test_exact_fallback_reports_its_rounds_and_pivots(fixture, mode, monkeypatch):
    # The solution carries the simplex calls and pivots that
    # EXACT_FALLBACK_PATHS counts from outside.
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    weightings = (None, Weights.of({1: Fraction(1, 3), 2: Fraction(2, 7)}))
    for weights, (_, _, rounds, pivots) in zip(weightings, EXACT_FALLBACK_PATHS[fixture, mode]):
        sol = lp_solve(_fixture_problem(fixture, mode, weights))
        assert (sol.method, sol.rounds, sol.pivots) == ("exact", rounds, pivots)
