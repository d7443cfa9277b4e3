import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fdgtool import algebra, cli, fdg, lpbound
from fdgtool.netmodel import FIXTURE_NAMES, fixture_text, load_fixture, serialize_network

from conftest import FORGED_STEPS, head_first_path_text, relay_grid


@pytest.fixture
def on_disk(tmp_path):
    def put(name):
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text(name))
        return str(path)
    return put


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(on_disk, capsys):
    code, out, _ = run(capsys, "validate", on_disk("butterfly"))
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "cyclic.json"
    bad.write_text(json.dumps({
        "nodes": ["s", "a", "b", "t"],
        "edges": [
            {"id": "e0", "tail": "s", "head": "a", "cap": "1"},
            {"id": "e1", "tail": "a", "head": "b", "cap": "1"},
            {"id": "e2", "tail": "b", "head": "a", "cap": "1"},
            {"id": "e3", "tail": "b", "head": "t", "cap": "1"},
        ],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}],
    }))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "cycle detected" in out


def test_python_dash_m_runs_the_command(on_disk):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fdgtool", "validate", on_disk("butterfly")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert "cannot read" in err


def test_reduce_reports_orders_and_trace(on_disk, capsys):
    code, out, _ = run(capsys, "reduce", "--mode", "linear", on_disk("butterfly"))
    assert code == 0
    doc = json.loads(out)
    assert doc["original_order"] == 9
    assert doc["reduced_order"] == 5
    assert doc["delta_v"] == 4
    assert [s["rule"] for s in doc["steps"]] == ["COR1", "COR1", "COR5b", "COR5b"]


def test_reduce_irreducible_text(on_disk, capsys):
    code, out, _ = run(capsys, "reduce", "--format", "text", on_disk("single_edge"))
    assert code == 0
    assert "0 vars removed" in out


def test_reduce_trace_roundtrips_through_replay(on_disk, tmp_path, capsys):
    trace_file = str(tmp_path / "trace.jsonl")
    net = on_disk("two_unicast_chain")
    code, out, _ = run(capsys, "reduce", "--mode", "shannon",
                       "--trace-out", trace_file, net)
    assert code == 0
    reduced = json.loads(out)["reduced"]
    code, out, _ = run(capsys, "replay", "--trace", trace_file, net)
    assert code == 0
    assert json.loads(out) == reduced


def test_replay_mismatch_fails(on_disk, tmp_path, capsys):
    trace_file = str(tmp_path / "trace.jsonl")
    code, out, _ = run(capsys, "reduce", "--mode", "shannon",
                       "--trace-out", trace_file, on_disk("two_unicast_chain"))
    assert code == 0
    code, _, err = run(capsys, "replay", "--trace", trace_file, on_disk("butterfly"))
    assert code == 1
    assert "replay failed" in err


@pytest.mark.parametrize("case", FORGED_STEPS)
def test_replay_refuses_a_forged_step(tmp_path, capsys, case):
    text, step = FORGED_STEPS[case]
    net = tmp_path / "net.json"
    net.write_text(text)
    trace_file = tmp_path / "trace.jsonl"
    trace_file.write_text(json.dumps(step) + "\n")
    code, out, err = run(capsys, "replay", "--trace", str(trace_file), str(net))
    assert code == 1
    assert out == ""
    assert err.startswith("replay failed: step 0: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["reduce", "--trace-out", "{missing}/trace.jsonl"],
    ["lp", "--reduce", "linear", "--export", "{missing}/butterfly.lp"],
], ids=["reduce-trace-out", "lp-export"])
def test_unwritable_output_is_a_usage_error(on_disk, tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    argv = [a.format(missing=missing) for a in argv]
    code, out, err = run(capsys, *argv, on_disk("butterfly"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, err", [
    (["reduce", "--trace-out=--"], 0, ""),
    (["lp", "--export=--"], 0, ""),
    (["replay", "--trace=--"], 2, "error: cannot read --: "),
    (["transfer", "--search=2", "--pin=--"], 2, "error: bad pin '--'"),
    (["lp", "--stats", "-w=--"], 2, "error: bad weights '--'"),
], ids=["trace-out", "export", "trace", "pin", "weights"])
def test_an_option_value_of_two_dashes_is_that_value(on_disk, tmp_path, monkeypatch, capsys,
                                                      argv, code, err):
    # argparse drops a value that is exactly "--" and passes [] instead.
    net = on_disk("butterfly")
    monkeypatch.chdir(tmp_path)
    got, _, stderr = run(capsys, *argv, net)
    assert got == code
    if code == 0:
        assert stderr == "" and (tmp_path / "--").stat().st_size > 0
    else:
        assert stderr.startswith(err) and stderr.count("\n") == 1


@pytest.mark.parametrize("edit, detail", [
    (lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                              if k != "removed"}), "missing key 'removed'"),
    (lambda line: "{not json", "line 1"),
    (lambda line: "[]", "line 1: not a JSON object"),
    (lambda line: "[1,2]", "line 1: not a JSON object"),
    (lambda line: '"x"', "line 1: not a JSON object"),
    (lambda line: "3", "line 1: not a JSON object"),
    (lambda line: "null", "line 1: not a JSON object"),
    (lambda line: json.dumps({**json.loads(line), "rule": ["COR1"]}), "rule is not a string"),
    (lambda line: json.dumps({"rule": "COR1", "removed": [["x"]], "up": [], "down": [],
                              "added": []}), "removed is not a list of names"),
], ids=["no-removed", "not-json", "not-an-object", "a-list", "a-string", "a-number", "null",
        "rule-not-a-string", "removed-not-names"])
def test_replay_malformed_trace_is_a_usage_error(on_disk, tmp_path, capsys, edit, detail):
    trace_file = tmp_path / "trace.jsonl"
    net = on_disk("butterfly")
    code, _, _ = run(capsys, "reduce", "--mode", "linear",
                     "--trace-out", str(trace_file), net)
    assert code == 0
    lines = trace_file.read_text().splitlines()
    trace_file.write_text("\n".join([edit(lines[0])] + lines[1:]) + "\n")
    code, out, err = run(capsys, "replay", "--trace", str(trace_file), net)
    assert code == 2
    assert out == ""
    assert detail in err and err.count("\n") == 1


_BUTTERFLY_GRAPH = fdg.build_fdg(load_fixture("butterfly"))
_BUTTERFLY_TRACE = fdg.reduce(_BUTTERFLY_GRAPH, "linear")[1].to_jsonl().splitlines()
_NAMES = st.sampled_from([v.name for v in _BUTTERFLY_GRAPH.vars])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | _NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=6)
_DELETE = object()


@settings(max_examples=300, deadline=None)
@given(line=st.integers(0, len(_BUTTERFLY_TRACE) - 1),
       key=st.sampled_from(["rule", "removed", "up", "down", "added"]),
       value=st.just(_DELETE) | _JSON_VALUES)
def test_replay_of_an_edited_trace_fails_in_one_line(tmp_path_factory, line, key, value):
    doc = json.loads(_BUTTERFLY_TRACE[line])
    if value is _DELETE:
        del doc[key]
    else:
        doc[key] = value
    lines = list(_BUTTERFLY_TRACE)
    lines[line] = json.dumps(doc)
    workdir = tmp_path_factory.getbasetemp()
    trace_file, net = workdir / "edited.jsonl", workdir / "butterfly.json"
    trace_file.write_text("\n".join(lines) + "\n")
    net.write_text(fixture_text("butterfly"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["replay", "--trace", str(trace_file), str(net)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


_NOT_UTF8 = b"\xff\xfe{"
_DEEPLY_NESTED = b"[" * 200000 + b"]" * 200000
# two_unicast_chain with e5 moved from t1 to t2: sink t1 has no in-edges left
# to decode source 1 from, which build_fdg reports as a warning.
_UNDECODABLE_SOURCE = fixture_text("two_unicast_chain").replace(
    '"id": "e5", "tail": "d", "head": "t1"', '"id": "e5", "tail": "d", "head": "t2"').encode()


@pytest.mark.parametrize("content, detail", [
    (_NOT_UTF8, "not UTF-8 text"),
    (_DEEPLY_NESTED, "nested too deeply"),
], ids=["not-utf8", "deeply-nested"])
@pytest.mark.parametrize("role", ["network", "trace"])
def test_unreadable_input_is_a_usage_error(on_disk, tmp_path, capsys, content, detail, role):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if role == "network":
        code, out, err = run(capsys, "validate", str(bad))
    else:
        code, out, err = run(capsys, "replay", "--trace", str(bad), on_disk("butterfly"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and detail in err and err.count("\n") == 1
    if role == "trace" or content == _NOT_UTF8:
        assert str(bad) in err


def _fields(doc, path=()):
    """The path of every value inside a JSON document, as keys and indices."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield path + (key,)
            yield from _fields(value, path + (key,))


_FIXTURE_DOCS = {name: json.loads(fixture_text(name)) for name in FIXTURE_NAMES}
_NETWORK_NAMES = st.sampled_from(sorted(
    {n for doc in _FIXTURE_DOCS.values() for n in doc["nodes"]}
    | {e["id"] for doc in _FIXTURE_DOCS.values() for e in doc["edges"]}))
_NETWORK_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=6) | _NETWORK_NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=6)


@st.composite
def _edited_network(draw):
    """A fixture document with one field replaced by a JSON value or deleted."""
    doc = json.loads(fixture_text(draw(st.sampled_from(FIXTURE_NAMES))))
    *outer, last = draw(st.sampled_from(list(_fields(doc))))
    where = doc
    for key in outer:
        where = where[key]
    value = draw(st.just(_DELETE) | _NETWORK_VALUES)
    if value is _DELETE:
        del where[last]
    else:
        where[last] = value
    return json.dumps(doc).encode()


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@contextlib.contextmanager
def _warnings_on_stderr():
    """Print every warning to stderr the way Python does outside pytest,
    which records warnings instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        yield


@settings(max_examples=200, deadline=None)
@given(content=_edited_network() | st.binary(max_size=64))
@example(content=_NOT_UTF8)
@example(content=_DEEPLY_NESTED)
@example(content=_UNDECODABLE_SOURCE)
def test_an_edited_network_fails_in_one_line(tmp_path_factory, content):
    net = tmp_path_factory.getbasetemp() / "edited.json"
    net.write_bytes(content)
    for argv in (["validate"], ["reduce", "--mode", "shannon"], ["lp", "--stats"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                _warnings_on_stderr():
            code = cli.main(argv + [str(net)])
        assert code in (0, 1, 2)
        lines = err.getvalue().split("\n")
        assert lines.pop() == ""
        kinds = [line.partition(" ")[0] for line in lines]
        assert kinds.count("warning:") <= 1 and kinds.count("error:") <= 1
        assert len(kinds) == kinds.count("warning:") + kinds.count("error:")


def test_an_undecodable_source_is_one_warning_line(tmp_path, capsys):
    net = tmp_path / "undecodable.json"
    net.write_bytes(_UNDECODABLE_SOURCE)
    with _warnings_on_stderr():
        code, out, err = run(capsys, "lp", "--stats", str(net))
    assert code == 0 and json.loads(out)["n_vars"] == 10
    assert err == ("warning: source 1 has no decodable sink in-edges; "
                   "its variable lies on no cycle\n")


def test_lp_stats_reduced_butterfly(on_disk, capsys):
    code, out, _ = run(capsys, "lp", "--reduce", "linear", "--stats",
                       on_disk("butterfly"))
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 31
    assert doc["total_rows"] == 94


def test_lp_stats_text(on_disk, capsys):
    code, out, err = run(capsys, "lp", "--stats", "--format", "text", on_disk("butterfly"))
    assert (code, err) == (0, "")
    assert out == ("N=9 dimension=511 rows=4634\n  ELEMENTAL1 9\n  ELEMENTAL2 4608\n"
                   "  INDEP      1\n  ENCODE     7\n  DECODE     2\n  CAPACITY   7\n")


def test_lp_stats_counts_without_generating_rows(on_disk, capsys, monkeypatch):
    def build_lp(*args):
        raise AssertionError("build_lp called to count rows")
    monkeypatch.setattr(lpbound, "build_lp", build_lp)
    code, out, err = run(capsys, "lp", "--stats", "--reduce", "none", on_disk("fano"))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["n_vars"] == 21
    assert doc["counts"]["ELEMENTAL2"] == 110100480
    assert doc["total_rows"] == 21 + 110100480 + 1 + 18 + 3 + 18


def test_lp_stats_keeps_the_generation_refusals(tmp_path, capsys):
    dangling = tmp_path / "dangling.json"
    dangling.write_text(json.dumps({
        "nodes": ["s", "a", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "t", "cap": "1"},
                  {"id": "e2", "tail": "a", "head": "t", "cap": "1"}],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}],
    }))
    code, _, err = run(capsys, "lp", "--stats", str(dangling))
    assert code == 1
    assert err == ("error: edge variable U:e2 has no parents; the underlying edge "
                   "leaves a node with no inputs\n")
    code, _, err = run(capsys, "lp", "--stats", str(_head_first_path(tmp_path, 30)))
    assert code == 1
    assert err == "error: n=31 exceeds the generation cap 24; reduce the graph first\n"


def _head_first_path(tmp_path, n):
    path = tmp_path / f"path{n}.json"
    path.write_text(head_first_path_text(n))
    return str(path)


@pytest.mark.parametrize("mode", ["shannon", "linear"])
def test_reduce_and_replay_a_1500_edge_path(tmp_path, capsys, mode):
    net = _head_first_path(tmp_path, 1500)
    trace = str(tmp_path / "trace.jsonl")
    code, out, err = run(capsys, "reduce", "--mode", mode, "--trace-out", trace, net)
    assert code == 0, err
    assert json.loads(out)["reduced_order"] == 2
    code, out, err = run(capsys, "replay", "--trace", trace, "--format", "text", net)
    assert code == 0, err
    assert out == "replayed 1499 steps -> order 2\n"


def test_lp_solve_weights(on_disk, capsys):
    code, out, _ = run(capsys, "lp", "--reduce", "linear", "--solve",
                       "-w", "1,1", on_disk("two_unicast_chain"))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["value"] == "1"


@pytest.mark.parametrize("fmt, printed", [("json", '{\n  "status": "unbounded"\n}\n'),
                                          ("text", "unbounded\n")])
def test_lp_solve_reports_an_unbounded_lp(tmp_path, capsys, fmt, printed):
    # The only sink has no in-edges, so the source has no decode row and no
    # row bounds its entropy.
    network = tmp_path / "unbounded.json"
    network.write_text(json.dumps({
        "nodes": ["s", "m", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "m", "cap": "1"}],
        "sources": [{"index": 1, "at": "s"}],
        "sinks": [{"at": "t", "demands": [1]}]}))
    code, out, err = run(capsys, "lp", "--solve", "--format", fmt, str(network))
    assert (code, out) == (1, printed)
    assert err.startswith("warning: ") and err.count("\n") == 1


def test_lp_solve_cap_suggests_export(on_disk, capsys, monkeypatch):
    # Unreduced butterfly: N=9 and 4634 rows, which --export writes.
    monkeypatch.setenv("FDGTOOL_MAX_N", "4")
    code, _, err = run(capsys, "lp", "--solve", on_disk("butterfly"))
    assert code == 2
    assert err == ("error: problem has N=9 variables, above the in-process solve cap 4 "
                   "(override with FDGTOOL_MAX_N); try --export and an external solver\n")


def test_lp_solve_cap_refuses_before_building_the_lp(on_disk, capsys, monkeypatch):
    def build_lp(*args):
        raise AssertionError("build_lp called for a graph above the solve cap")
    monkeypatch.setattr(lpbound, "build_lp", build_lp)
    code, out, err = run(capsys, "lp", "--solve", "--reduce", "none", on_disk("fano"))
    assert code == 2
    assert out == ""
    assert "N=21" in err and "solve cap 16" in err and "--export" in err
    assert err.count("\n") == 1
    # 110,100,541 rows: --export would refuse them too, so it is not offered.
    assert err.endswith("; its 110100541 rows are above the --export cap of 1000000, "
                        "so reduce the graph first\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_lp_solve_prints_the_same_bytes_on_either_path(on_disk, capsys, monkeypatch, fmt):
    # The exact path's rounds and pivots stay off stdout.
    argv = ("lp", "--solve", "--reduce", "linear", "--format", fmt, on_disk("butterfly"))
    certified = run(capsys, *argv)
    monkeypatch.setattr(lpbound, "_float_solve", lambda problem: None)
    assert run(capsys, *argv) == certified
    assert certified[0] == 0 and certified[2] == ""


def test_lp_solve_cap_refusal_past_the_generation_cap(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(head_first_path_text(25))  # N=26: no row is generated
    code, out, err = run(capsys, "lp", "--solve", "--reduce", "none", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: problem has N=26 variables, above the in-process solve cap 16 "
                   "(override with FDGTOOL_MAX_N); --export refuses it too: n=26 exceeds "
                   "the generation cap 24; reduce the graph first\n")


@pytest.mark.parametrize("weights", ["abc", "1/0", ",", "1,1,1", "", "1,,2", "1,1,"])
def test_lp_bad_weights_are_a_usage_error(on_disk, capsys, weights):
    code, out, err = run(capsys, "lp", "--solve", "-w", weights, on_disk("butterfly"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad weights") and err.count("\n") == 1
    if not weights.strip(","):
        assert "empty weight list" in err
    if weights == "1/0":
        assert err == "error: bad weights '1/0': zero denominator\n"


def test_a_zero_capacity_denominator_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "single_edge.json"
    path.write_text(fixture_text("single_edge").replace('"cap": "1"', '"cap": "1/0"'))
    assert run(capsys, "validate", str(path)) == (
        2, "", "error: bad capacity '1/0': zero denominator\n")


@pytest.mark.parametrize("section, record, line", [
    ("edges", ["e1"], "edges[0] must be an object"),
    ("edges", {"id": "e1", "tail": "s", "head": "t", "cap": "1", "kind": "x"},
     "unknown key 'kind' in edges[0]"),
    ("edges", {"tail": "s", "head": "t", "cap": "1"}, "missing key 'id' in edges[0]"),
    ("edges", {"id": "e1", "tail": "s", "head": "t"}, "missing key 'cap' in edges[0]"),
    ("edges", {"id": "e1", "tail": "s", "head": 2, "cap": "1"},
     "key 'head' in edges[0] must be str, got int"),
    ("edges", {"id": "e1", "tail": "s", "head": "t", "cap": 1},
     "key 'cap' in edges[0] must be str, got int"),
    ("sources", 1, "sources[0] must be an object"),
    ("sources", {"index": 1, "at": "s", "rate": "1"}, "unknown key 'rate' in sources[0]"),
    ("sources", {"index": 1}, "missing key 'at' in sources[0]"),
    ("sources", {"index": "1", "at": "s"}, "key 'index' in sources[0] must be int, got str"),
    ("sources", {"index": True, "at": "s"}, "key 'index' in sources[0] must be int"),
    ("sinks", None, "sinks[0] must be an object"),
    ("sinks", {"at": "t", "demands": [1], "id": "t"}, "unknown key 'id' in sinks[0]"),
    ("sinks", {"at": "t"}, "missing key 'demands' in sinks[0]"),
    ("sinks", {"at": "t", "demands": 1}, "key 'demands' in sinks[0] must be list, got int"),
    ("sinks", {"at": "t", "demands": ["1"]}, "demands in sinks[0] must be integers"),
])
def test_a_malformed_record_is_one_error_line(tmp_path, capsys, section, record, line):
    doc = json.loads(fixture_text("single_edge"))
    doc[section][0] = record
    path = tmp_path / "single_edge.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path)) == (2, "", f"error: {line}\n")


# 1e4300 has 4301 digits, one more than Python's default limit on
# int-to-string conversion, so str() of it raises.
@pytest.mark.parametrize("fixture, edit, argv, value", [
    ("butterfly", None, ["--reduce", "linear", "-w", "1e400,1"], "1" + "0" * 399 + "1"),
    ("single_edge", ('"cap": "1"', '"cap": "1e400"'), [], "1" + "0" * 400),
    pytest.param("butterfly", None, ["--reduce", "linear", "-w", "1e4300,1"],
                 "1" + "0" * 4299 + "1", id="butterfly-weight-1e4300"),
    pytest.param("single_edge", ('"cap": "1"', '"cap": "1e4300"'), [], "1" + "0" * 4300,
                 id="single_edge-cap-1e4300"),
])
def test_lp_solve_beyond_float_range_is_answered_exactly(tmp_path, capsys, fixture,
                                                         edit, argv, value):
    text = fixture_text(fixture)
    path = tmp_path / f"{fixture}.json"
    path.write_text(text.replace(*edit) if edit else text)
    code, out, err = run(capsys, "lp", "--solve", *argv, str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "optimal" and doc["value"] == value
    code, out, err = run(capsys, "lp", "--solve", "--format", "text", *argv, str(path))
    assert (code, err) == (0, "") and out.startswith(f"optimal {value}\n")


def test_a_capacity_past_the_digit_limit_is_printed_exactly(tmp_path, capsys):
    cap = "1" + "0" * 4300
    path = tmp_path / "single_edge.json"
    path.write_text(fixture_text("single_edge").replace('"cap": "1"', '"cap": "1e4300"'))
    code, out, err = run(capsys, "reduce", str(path))
    assert (code, err) == (0, "")
    assert list(json.loads(out)["reduced"]["capacities"].values()) == [cap]
    code, out, err = run(capsys, "lp", "--export", "-", str(path))
    assert (code, err) == (0, "")
    assert f" cap_e1: h_2 <= {cap}\n" in out


@pytest.mark.parametrize("cap", ["-1e4300", "-1/3"])
def test_a_negative_capacity_is_named_also_past_the_digit_limit(tmp_path, capsys, cap):
    path = tmp_path / "single_edge.json"
    path.write_text(fixture_text("single_edge").replace('"cap": "1"', f'"cap": "{cap}"'))
    assert run(capsys, "validate", str(path)) == (1, f"edge 'e1': negative capacity {cap}\n", "")


def test_lp_bad_solve_cap_names_the_variable(on_disk, capsys, monkeypatch):
    monkeypatch.setenv("FDGTOOL_MAX_N", "x")
    code, _, err = run(capsys, "lp", "--reduce", "linear", "--solve", on_disk("butterfly"))
    assert code == 2
    assert "FDGTOOL_MAX_N" in err and "--export" not in err
    assert err.count("\n") == 1


def test_lp_export_writes_file(on_disk, tmp_path, capsys):
    out_file = tmp_path / "butterfly.lp"
    code, _, _ = run(capsys, "lp", "--reduce", "linear",
                     "--export", str(out_file), on_disk("butterfly"))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("Maximize")
    assert text.rstrip().endswith("End")


def test_lp_export_refuses_too_many_rows_before_building_the_lp(on_disk, capsys,
                                                                monkeypatch, tmp_path):
    def build_lp(*args):
        raise AssertionError("build_lp called for an LP above the export cap")
    monkeypatch.setattr(lpbound, "build_lp", build_lp)
    out_file = tmp_path / "fano.lp"
    code, out, err = run(capsys, "lp", "--reduce", "none", "--export", str(out_file),
                         on_disk("fano"))
    assert (code, out) == (2, "")
    assert err.startswith("error: the LP has ") and "export cap of 1000000" in err
    assert err.count("\n") == 1
    assert not out_file.exists()


def test_lp_export_writes_fano_shannon(on_disk, tmp_path, capsys):
    # N=13, 159781 rows: under the export cap.
    out_file = tmp_path / "fano.lp"
    code, out, err = run(capsys, "lp", "--reduce", "shannon", "--export", str(out_file),
                         on_disk("fano"))
    assert (code, out, err) == (0, "", "")
    text = out_file.read_text()
    assert text.count("\n elem") == 13 + 78 * 2 ** 11
    assert text.rstrip().endswith("End")


def test_transfer_matrix_json(on_disk, capsys):
    code, out, _ = run(capsys, "transfer", "--matrix", on_disk("fano"))
    assert code == 0
    doc = json.loads(out)
    assert doc["adjacency_dim"] == 5
    assert len(doc["indeterminates"]) == 15
    assert doc["demand"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert len(doc["entries"]) == 3 and len(doc["entries"][0]) == 3


def test_transfer_search_found_and_exhausted(on_disk, capsys):
    code, out, _ = run(capsys, "transfer", "--search", "2", on_disk("fano"))
    assert code == 0
    assert json.loads(out)["status"] == "found"
    code, out, _ = run(capsys, "transfer", "--search", "3", on_disk("fano"))
    assert code == 1
    assert json.loads(out)["status"] == "exhausted"


def test_transfer_search_text_found_and_exhausted(on_disk, capsys):
    code, out, _ = run(capsys, "transfer", "--search", "2", "--format", "text",
                       on_disk("butterfly"))
    assert code == 0
    assert out == ("found over GF(2):\n"
                   "  eps[Y1->e_c] = 1\n  eps[Y1->e_f] = 1\n  eps[Y2->e_c] = 1\n"
                   "  eps[Y2->e_g] = 1\n  eps[e_c->t1:Y1] = 1\n  eps[e_g->t1:Y1] = 1\n"
                   "  eps[e_c->t2:Y2] = 1\n  eps[e_f->t2:Y2] = 1\n")
    code, out, _ = run(capsys, "transfer", "--search", "2", "--reduce", "none",
                       "--format", "text", on_disk("two_unicast_chain"))
    assert (code, out) == (1, "exhausted over GF(2) (1053 nodes searched)\n")


def test_transfer_search_refuses_a_huge_field_at_once(on_disk, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "transfer", "--search", "1000000000000000003",
                         on_disk("single_edge"))
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert err == "error: field size 1000000000000000003 exceeds the cap 7\n"
    assert elapsed < 1, f"took {elapsed:.2f} s"


def test_transfer_pin_parsing(on_disk, capsys):
    code, out, _ = run(capsys, "transfer", "--search", "2",
                       "--pin", "eps[Y1->e1]=1", on_disk("single_edge"))
    assert code == 0
    code, _, err = run(capsys, "transfer", "--search", "2",
                       "--pin", "garbage", on_disk("single_edge"))
    assert code == 2
    assert "pin" in err


def test_transfer_pin_given_twice_is_a_usage_error(on_disk, capsys):
    code, out, err = run(capsys, "transfer", "--search", "2",
                         "--pin", "eps[Y1->e1]=1,eps[Y1->e1]=0", on_disk("single_edge"))
    assert code == 2
    assert out == ""
    assert "eps[Y1->e1]" in err and err.count("\n") == 1


# Reduced fixtures on which any search over GF(P <= 7) ends within 0.05 s.
_QUICK_SEARCHES = {
    (fixture, mode): algebra.build_transfer_system(
        fdg.reduce(fdg.build_fdg(load_fixture(fixture)), mode)[0]).indeterminates
    for fixture, mode in [("butterfly", "linear"), ("two_unicast_side", "shannon"),
                          ("parallel_relay", "shannon")]}


@st.composite
def _search_arguments(draw):
    fixture, mode = draw(st.sampled_from(sorted(_QUICK_SEARCHES)))
    names = st.sampled_from(_QUICK_SEARCHES[fixture, mode])
    valid = st.lists(st.tuples(names, st.integers(0, 6).map(str)), max_size=3,
                     unique_by=lambda pin: pin[0])
    value = st.integers(-2, 9).map(str) | st.text(max_size=4)
    pin = st.tuples(names | st.text(max_size=8), value).map("=".join) | st.text(max_size=12)
    pins = ",".join(draw(valid.map(lambda pins: ["=".join(p) for p in pins])
                         | st.lists(pin, max_size=3)))
    field = draw(st.sampled_from((2, 3, 5, 7)) | st.integers(-3, 12) | st.integers())
    return fixture, ["transfer", f"--search={field}", "--reduce", mode, f"--pin={pins}"]


@settings(max_examples=200, deadline=None)
@given(_search_arguments())
@example(("butterfly", ["transfer", "--search=7", "--reduce", "linear",
                        "--pin= eps[Y1->e_c] = 3 ,eps[Y2->e_g]=0"]))
@example(("butterfly", ["transfer", "--search=7", "--reduce", "linear",
                        "--pin=eps[Y1->e_c]=7"]))
def test_fuzzed_search_arguments_fail_in_one_line(tmp_path_factory, case):
    fixture, argv = case
    net = tmp_path_factory.getbasetemp() / f"{fixture}.json"
    net.write_text(fixture_text(fixture))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + [str(net)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["status"] == ("found", "exhausted")[code]


@st.composite
def _weight_lists(draw):
    number = (st.integers(-3, 10 ** 6).map(str)
              | st.fractions(max_denominator=10 ** 6).map(str)
              | st.decimals().map(str)
              | st.builds("{}e{}".format, st.integers(0, 99), st.integers()))
    token = number | st.text(max_size=6)
    return draw(st.lists(token, max_size=4).map(",".join) | st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(_weight_lists())
@example("1,1")
@example("1e99999999,1")
@example("-1,2")
@example("-h")
@example("--")
def test_fuzzed_weights_fail_in_one_line(tmp_path_factory, weights):
    net = tmp_path_factory.getbasetemp() / "butterfly.json"
    net.write_text(fixture_text("butterfly"))
    runs = []
    for form in ([f"-w={weights}"], ["-w", weights], ["--weights", weights],
                 ["--weig", weights]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["lp", "--stats", *form, str(net)])
        runs.append((code, out.getvalue(), err.getvalue()))
    # A value that starts with "-" is still the value when passed separately.
    assert runs[1:] == runs[:1] * 3
    code, out, err = runs[0]
    if code == 0:
        assert err == ""
        assert json.loads(out)["n_vars"] == 9
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: bad weights")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_transfer_requires_unit_capacities(tmp_path, capsys):
    doc = fixture_text("single_edge").replace('"cap": "1"', '"cap": "2"')
    path = tmp_path / "big.json"
    path.write_text(doc)
    code, _, err = run(capsys, "transfer", "--matrix", "--reduce", "none", str(path))
    assert code == 1
    assert "unit" in err


def test_outputs_are_byte_deterministic(on_disk, capsys):
    net = on_disk("butterfly")
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "reduce", "--mode", "linear", net)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "lp", "--reduce", "linear", "--solve",
                           "-w", "2,1", net)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def _cli_digest(capsys, tmp_path, network: str, group: str) -> str:
    """SHA-256 of the exit code, stdout and stderr of each call in ``group``
    on ``network``, and of each trace file written: ``reduce`` in one mode
    then ``replay`` of its trace, in JSON and text, or ``transfer --matrix``
    in every reduce mode and both formats."""
    path = tmp_path / "net.json"
    path.write_text(serialize_network(relay_grid(5, 6)) if network == "relay_grid"
                    else fixture_text(network))
    trace = tmp_path / "trace.jsonl"
    digest = hashlib.sha256()

    def add(*argv):
        code, out, err = run(capsys, *argv)
        for part in (str(code), out, err):
            digest.update(f"{len(part)}:{part}".encode())

    for fmt in ("json", "text"):
        if group == "transfer":
            for mode in ("none", "shannon", "linear"):
                add("transfer", "--matrix", "--reduce", mode, "--format", fmt, str(path))
        else:
            trace.write_text("")
            add("reduce", "--mode", group, "--format", fmt, "--trace-out", str(trace), str(path))
            text = trace.read_text()
            digest.update(f"{len(text)}:{text}".encode())
            add("replay", "--trace", str(trace), "--format", fmt, str(path))
    return digest.hexdigest()


# Recorded before ``reduce`` and ``replay`` built their documents from the
# graph's and the steps' dict forms: indentation, key order and every byte
# of the CLI's answers must stay as they were.
_CLI_DIGESTS = {
    ("butterfly", "shannon"):
        "9ff365578914db600eb8b27ae8b2450fae84016d45a5c48c6d85b03c38102227",
    ("butterfly", "linear"):
        "b09dcafd9daa23a0a7067f3d2486c89c07eab8fb5935d25f68a79cb4bebab8cc",
    ("butterfly", "transfer"):
        "dea9f684892bc3d5c64d810d5a05d433f3655baf62e00c82af0cc722d960ea4d",
    ("two_unicast_side", "shannon"):
        "b92049e4f3e6bbb8743bf5df17a033d2e12870e3048190c5f04be06047e1a1c2",
    ("two_unicast_side", "linear"):
        "22334b69e62868c3148b3817213fed91084b152850773d2f1ec2538717f9423b",
    ("two_unicast_side", "transfer"):
        "1970760b921c1d060c760b07a935bb3e538d7f2558a0d54933d10894509e6dd6",
    ("two_unicast_chain", "shannon"):
        "55169eace1d08be12776729a5d742fd7f50036007ea3cac425bce2b789e35852",
    ("two_unicast_chain", "linear"):
        "46df0144aa456a3d0e17ddba0372c1468dbdfd86fa29b16576063270ad7ffa0e",
    ("two_unicast_chain", "transfer"):
        "e15cdb0118dede8dab8622c48deab18ad23d7289a1a95cb34dcfc9a918c7e22e",
    ("parallel_relay", "shannon"):
        "2188478c03798a554221393c813245575cb28e754f215e698b425fb3bc075ef3",
    ("parallel_relay", "linear"):
        "c8f2269d2358709a58463a4cd23c5171487ced0f45a8fc39b7eb1ff3c8e9663f",
    ("parallel_relay", "transfer"):
        "4077f7250d49c2e2563779fb8a15f52738f8050acdab69e46d4370116a7cfb8c",
    ("fano", "shannon"):
        "4e05d5f75f854da520b87940dae55027f546092221a5a76be581d383c00cc706",
    ("fano", "linear"):
        "7a57262210a62af11ec14316d55bb96bea4b6c30efd6290f2cc279f340a17e8b",
    ("fano", "transfer"):
        "561085a1908b1d29ab55107ce1d7c115aa0f0be85e1fbd701b86c4168a28035d",
    ("single_edge", "shannon"):
        "6de41acdd9289cebc9d753b99154d40cca05dad62195b9466db855c0711b725f",
    ("single_edge", "linear"):
        "dad007761aebd22a23b1003be11cd1b510dc97b3cc32279ce31589df55ddefae",
    ("single_edge", "transfer"):
        "88969aeedb5fc80733d88a46d3525fff54751af0d1071fd9d139ac9e650469a3",
    ("relay_grid", "shannon"):
        "fd0f0725a7eb269be5a78f017cb991735256b07832d62258577fbe59e9204692",
    ("relay_grid", "linear"):
        "baa7725333089f12eed5d5db9ca135a8c1a97dd1880c0f4285a979cb89b67517",
    ("relay_grid", "transfer"):
        "ddb34efb5817428d1a5f65d1c40b6a98ed111ec29d06dfc8fb4dc1c3c9468242",
}


@pytest.mark.parametrize("key", _CLI_DIGESTS, ids="-".join)
def test_cli_output_bytes_are_pinned(tmp_path, capsys, key):
    assert _cli_digest(capsys, tmp_path, *key) == _CLI_DIGESTS[key]


_INVALID_NETWORK = {
    "nodes": ["s", "s", "a", "é\u0001", "t"],
    "edges": [
        {"id": "e1", "tail": "s", "head": "a", "cap": "-1/3"},
        {"id": "e1", "tail": "a", "head": "a", "cap": "2"},
        {"id": "a", "tail": "a", "head": "x", "cap": "1"},
        {"id": "e3", "tail": "t", "head": "s", "cap": "1"},
    ],
    "sources": [{"index": 2, "at": "s"}, {"index": 3, "at": "t"}],
    "sinks": [{"at": "t", "demands": [1, 4]}, {"at": "q", "demands": [1]}],
}


def _document_calls(tmp_path, key) -> list:
    """The calls ``key`` names: ``lp --stats`` and ``lp --solve`` in both
    reduce modes on one fixture (fano's Shannon-reduced LP is stats only:
    it is too large to solve here), one ``transfer --search``, or
    ``validate`` of a network that breaks most invariants."""
    kind, name, *rest = key
    path = tmp_path / "net.json"
    path.write_text(json.dumps(_INVALID_NETWORK) if kind == "validate" else fixture_text(name))
    if kind == "lp":
        return [["lp", action, "--reduce", mode, str(path)]
                for mode in ("shannon", "linear") for action in ("--stats", "--solve")
                if (name, mode, action) != ("fano", "shannon", "--solve")]
    if kind == "search":
        return [["transfer", "--search", *rest, str(path)]]
    return [["validate", str(path)]]


# Recorded before the CLI wrote its JSON documents with its own writer:
# every byte of these answers must stay as ``json.dumps(doc, indent=2,
# sort_keys=True)`` printed it.
_DOCUMENT_DIGESTS = {
    ("lp", "butterfly"):
        "91a0920871de32733a0841bd69ed0c8a9c9df87527b3e4f43f860ee5a1ce27a2",
    ("lp", "two_unicast_side"):
        "21d87be4359444d6879d790c06b4dd9ca98f302c93e999cda2c5005f40e4d962",
    ("lp", "two_unicast_chain"):
        "7b23dd4138ebf5d5da1cf063eb22b56031676a036c3d9e30a805d14a50ebc74b",
    ("lp", "parallel_relay"):
        "7b23dd4138ebf5d5da1cf063eb22b56031676a036c3d9e30a805d14a50ebc74b",
    ("lp", "fano"):
        "a93f447a0addba8a911e138f728c9c88ff48ace8cef71b47b4dc384304075030",
    ("lp", "single_edge"):
        "28131f014899bdd0f734e74952d58cc0c4819f9c720fab08cf1777374f2137c8",
    ("search", "butterfly", "3", "--reduce", "none"):
        "275880b180a91aa2b5dba3455603d334399fe21179eb346cf8fba4c28f39de74",
    ("search", "two_unicast_chain", "3", "--reduce", "none"):
        "4b149b6629b76ce70f0419b14f6aeeeee20b10c07dd982ad8d84327842a353d1",
    ("validate", "invalid"):
        "843fa14c1c8b8b1f8f48963e043b6185ef5f83e899740e11e63475cd59a61371",
}


@pytest.mark.parametrize("key", _DOCUMENT_DIGESTS, ids="-".join)
def test_cli_documents_are_pinned(tmp_path, capsys, key):
    digest = hashlib.sha256()
    for argv in _document_calls(tmp_path, key):
        for part in map(str, run(capsys, *argv)):
            digest.update(f"{len(part)}:{part}".encode())
    assert digest.hexdigest() == _DOCUMENT_DIGESTS[key]


def test_in_process_calls_answer_as_fresh_processes(on_disk, capsys):
    # The parser is built once per process; an option given to one call
    # must not carry into the next call, which leaves it out.
    butterfly = on_disk("butterfly")
    calls = [["reduce", "--format", "text", butterfly], ["reduce", butterfly],
             ["transfer", "--search", "2", "--pin", "eps[Y1->e_c]=0", butterfly],
             ["transfer", "--search", "2", butterfly],
             ["lp", "--solve", "--reduce", "linear", "-w", "1,2", butterfly],
             ["lp", "--solve", "--reduce", "linear", butterfly]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = set()
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "fdgtool.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        outputs.add(fresh.stdout)
    assert len(outputs) == len(calls)


@pytest.mark.parametrize("argv", [["reduce"], ["transfer"], ["lp", "--export", "-"]])
def test_a_closed_stdout_exits_2_without_a_traceback(on_disk, argv):
    # The pipe's read end is closed before the process starts, so its first
    # write to stdout fails, as once ``head`` has read its lines and exited.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fdgtool.cli", *argv, on_disk("butterfly")],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")
