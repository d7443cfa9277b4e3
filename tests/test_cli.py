import contextlib
import io
import json
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from fdgtool import algebra, cli, fdg, lpbound
from fdgtool.netmodel import FIXTURE_NAMES, fixture_text, load_fixture

from conftest import FORGED_STEPS, head_first_path_text


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
    (lambda line: "[]", "line 1"),
    (lambda line: json.dumps({**json.loads(line), "rule": ["COR1"]}), "rule is not a string"),
    (lambda line: json.dumps({"rule": "COR1", "removed": [["x"]], "up": [], "down": [],
                              "added": []}), "removed is not a list of names"),
], ids=["no-removed", "not-json", "not-an-object", "rule-not-a-string", "removed-not-names"])
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


def test_lp_solve_cap_suggests_export(on_disk, capsys, monkeypatch):
    monkeypatch.setenv("FDGTOOL_MAX_N", "4")
    code, _, err = run(capsys, "lp", "--solve", on_disk("butterfly"))
    assert code == 2
    assert "--export" in err


def test_lp_solve_cap_refuses_before_building_the_lp(on_disk, capsys, monkeypatch):
    def build_lp(*args):
        raise AssertionError("build_lp called for a graph above the solve cap")
    monkeypatch.setattr(lpbound, "build_lp", build_lp)
    code, out, err = run(capsys, "lp", "--solve", "--reduce", "none", on_disk("fano"))
    assert code == 2
    assert out == ""
    assert "N=21" in err and "solve cap 16" in err and "--export" in err
    assert err.count("\n") == 1

@pytest.mark.parametrize("weights", ["abc", "1/0", ",", "1,1,1", "", "1,,2", "1,1,"])
def test_lp_bad_weights_are_a_usage_error(on_disk, capsys, weights):
    code, out, err = run(capsys, "lp", "--solve", "-w", weights, on_disk("butterfly"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad weights") and err.count("\n") == 1
    if not weights.strip(","):
        assert "empty weight list" in err


@pytest.mark.parametrize("fixture, edit, argv, value", [
    ("butterfly", None, ["--reduce", "linear", "-w", "1e400,1"], 10 ** 400 + 1),
    ("single_edge", ('"cap": "1"', '"cap": "1e400"'), [], 10 ** 400),
])
def test_lp_solve_beyond_float_range_is_answered_exactly(tmp_path, capsys, fixture,
                                                         edit, argv, value):
    text = fixture_text(fixture)
    path = tmp_path / f"{fixture}.json"
    path.write_text(text.replace(*edit) if edit else text)
    code, out, err = run(capsys, "lp", "--solve", *argv, str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "optimal" and doc["value"] == str(value)


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
