import ast
import hashlib
import importlib.util
from pathlib import Path

from fdgtool import algebra
from fdgtool.fdg import build_fdg, reduce
from fdgtool.netmodel import FIXTURE_NAMES, load_fixture

_PATH = Path(__file__).resolve().parents[1] / "tools" / "search_sources.py"
_spec = importlib.util.spec_from_file_location("search_sources", _PATH)
search_sources = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_sources)


def test_the_list_is_every_fixture_mode_and_prime_then_the_pinned_search():
    listed = search_sources.searches(FIXTURE_NAMES)
    assert len(listed) == len(FIXTURE_NAMES) * 3 * 4 + 1
    assert listed[0] == (FIXTURE_NAMES[0], "none", 2, {})
    assert listed[-1] == search_sources.PINNED


def test_main_prints_a_digest_per_search_within_the_caps(capsys):
    generate = algebra._search_source
    assert search_sources.main([]) == 0
    assert algebra._search_source is generate
    lines = capsys.readouterr().out.splitlines()
    # Unreduced and Shannon-reduced fano have more free indeterminates than
    # the cap allows; every other search is listed once.
    names = [line.split(" ", 2)[2] for line in lines]
    assert len(names) == len(set(names)) == 65
    assert not any(name.startswith(("fano none", "fano shannon")) for name in names)
    assert names[-1] == "fano linear 5 eps[Y1->e1]=1,eps[Y1->e2]=1,eps[Y2->e2]=1"
    # A digest and a node count are those of the source the search compiles.
    sources = []

    def compile_search(*args):
        sources.append(generate(*args))
        return sources[-1]

    algebra._search_source = compile_search
    try:
        graph = reduce(build_fdg(load_fixture("butterfly")), "linear")[0]
        system = algebra.build_transfer_system(graph)
        algebra.solvability_search(algebra.transfer_matrix(system), system.demand, 7,
                                   order=system.indeterminates)
    finally:
        algebra._search_source = generate
    digest = hashlib.sha256(sources[0].encode()).hexdigest()
    nodes = sum(1 for _ in ast.walk(ast.parse(sources[0])))
    assert f"{digest} {nodes} butterfly linear 7" in lines
