"""Print the SHA-256 and size of each GF(p) search source that fdgtool generates.

    python3 tools/search_sources.py [SRC]

Imports ``fdgtool`` from ``SRC`` (by default this checkout's ``src``).  For
every bundled fixture x reduce mode x prime p <= 7 whose search fits the
default caps, then for the benchmark's pinned fano GF(5) search, it
builds the transfer matrix as ``fdgtool transfer --search`` does and
prints one line ``<sha256> <nodes> <fixture> <mode> <p> [<pins>]``: the
digest of the source that ``solvability_search`` compiles for it, and the
number of nodes in its syntax tree, to which the time to compile it is
about proportional.  A search that the caps refuse prints nothing.  The
source is generated but never run, so the whole list takes seconds.

Run it on two checkouts and diff the outputs: the lines that differ are
exactly the searches a change regenerates.
"""

from __future__ import annotations

import ast
import hashlib
import sys
from pathlib import Path

MODES = ("none", "shannon", "linear")
PRIMES = (2, 3, 5, 7)
# The benchmark's pinned search (``SEARCHES`` in perfbench/workloads.py).
PINNED = ("fano", "linear", 5, {"eps[Y1->e1]": 1, "eps[Y1->e2]": 1, "eps[Y2->e2]": 1})


class _Generated(Exception):
    """Carries a generated search source out of ``solvability_search``."""


def searches(fixture_names) -> list:
    """(fixture, mode, p, pins) of every search the list covers, in order."""
    return [(fixture, mode, p, {}) for fixture in fixture_names for mode in MODES
            for p in PRIMES] + [PINNED]


def digests(src: Path) -> list[str]:
    """One ``<sha256> <nodes> <fixture> <mode> <p> [<pins>]`` line per search that
    the ``fdgtool`` under ``src`` generates within the default caps."""
    sys.path.insert(0, str(src))
    from fdgtool import algebra, fdg, netmodel

    def capture(*args):
        raise _Generated(generate(*args))

    generate, algebra._search_source = algebra._search_source, capture
    lines = []
    try:
        for fixture, mode, p, pins in searches(netmodel.FIXTURE_NAMES):
            graph = fdg.build_fdg(netmodel.load_fixture(fixture))
            if mode != "none":
                graph = fdg.reduce(graph, mode)[0]
            system = algebra.build_transfer_system(graph)
            try:
                algebra.solvability_search(algebra.transfer_matrix(system), system.demand, p,
                                           order=system.indeterminates, pinned=pins)
            except _Generated as generated:
                source = generated.args[0]
            except ValueError:  # past a cap
                continue
            nodes = sum(1 for _ in ast.walk(ast.parse(source)))
            line = f"{hashlib.sha256(source.encode()).hexdigest()} {nodes} {fixture} {mode} {p}"
            if pins:
                line += " " + ",".join(f"{name}={value}" for name, value in pins.items())
            lines.append(line)
    finally:
        algebra._search_source = generate
    return lines


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    for line in digests(src.resolve()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
