"""Capacitated acyclic network model.

A network is a directed acyclic graph with named nodes and edges, a list of
independent sources placed at nodes, and a list of sinks, each demanding a
subset of the sources.  Source nodes have no incoming edges and sink nodes
have no outgoing edges.  Edge capacities are exact rationals: everything
downstream (reduction rules, the entropy LP) compares capacities exactly,
so floats are never allowed in.

The JSON wire format is strict: unknown keys are rejected unless they start
with an underscore, which marks a comment.  Edge order in the file is
preserved because it fixes the variable ordering used by every other module.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from collections import deque
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from importlib import resources


class NetworkFormatError(ValueError):
    """Malformed JSON or a document that does not match the network schema."""


class InvalidNetworkError(ValueError):
    """A schema-valid document that violates network invariants."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    cap: Fraction


@dataclass(frozen=True)
class Source:
    index: int
    at: str


@dataclass(frozen=True)
class Sink:
    at: str
    demands: tuple[int, ...]


@dataclass(frozen=True)
class Network:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[Source, ...]
    sinks: tuple[Sink, ...]

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"unknown edge id: {edge_id!r}")

    def source_indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.sources)

    def sources_at(self, node: str) -> tuple[Source, ...]:
        return tuple(s for s in self.sources if s.at == node)

    def unit_capacities(self) -> bool:
        return all(e.cap == 1 for e in self.edges)

    @functools.cached_property
    def _violations(self) -> tuple[str, ...]:
        """What ``validate`` returns, worked out once: the network is frozen."""
        return tuple(_check_network(self))


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing first a decimal exponent larger than the
    digit limit Python puts on integer strings: ``Fraction`` would build
    that power of ten, and ``1e10000000`` alone takes about 12 s.  A zero
    denominator raises ValueError, as every other malformed text does."""
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent.group(1))) > limit:
        raise ValueError(f"exponent {exponent.group(1)} gives more than {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def fraction_text(q) -> str:
    """``str(q)`` for an int or a Fraction, also past the digit limit
    Python puts on int-to-string conversion (``parse_fraction`` accepts
    ``1e4300``, which has 4301 digits): ``Decimal`` of an int converts
    without that limit, and prints an integer in plain digits."""
    num, den = q.as_integer_ratio()
    return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def fraction_from_text(text: str) -> Fraction:
    """The number ``fraction_text`` printed as ``text``, also past the digit
    limit: each side of ``p/q`` is read through ``Decimal``, which converts
    to an int without that limit.  Malformed text raises ValueError, as
    ``Fraction(text)`` does."""
    num, _, den = text.partition("/")
    try:
        return Fraction(Decimal(num)) / Fraction(Decimal(den or 1))
    except InvalidOperation:
        raise ValueError(f"invalid fraction {text!r}") from None


def _cap_text(cap: Fraction) -> str:
    """``str(cap)``, or, where a part of ``cap`` is past the digit limit
    Python puts on int-to-string conversion, ``cap`` as a decimal whose
    exponent ``parse_fraction`` accepts, as ``1e4300`` or ``1234.5e-4300``.

    A capacity that ``parse_network`` accepts and ``str`` cannot print was
    read from that form (each side of a ``p/q`` is within the limit, so
    ``str`` prints it).  Written with the exponent nearest its own within
    the limit, it needs no more digits than it was read with."""
    try:
        return str(cap)
    except ValueError:
        pass
    num, den = cap.as_integer_ratio()
    shift = den.bit_length()  # 10**shift is a multiple of every 2^a 5^b <= den
    scaled, rest = divmod(abs(num) * 10 ** shift, den)
    if rest:  # not a decimal, so not a capacity that parse_network accepts
        return fraction_text(cap)
    text = str(Decimal(scaled))
    digits = text.rstrip("0")
    exponent = len(text) - len(digits) - shift
    limit = sys.get_int_max_str_digits()
    written = max(-limit, min(exponent, limit))
    if exponent > written:
        digits += "0" * (exponent - written)
    elif exponent < written:
        point = written - exponent
        digits = digits.rjust(point + 1, "0")
        digits = f"{digits[:-point]}.{digits[-point:]}"
    return f"{'-' if num < 0 else ''}{digits}e{written}"


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    CPython 3.11 encodes with ``indent`` in pure Python, one generator step
    per token.  Here a string goes through the C ``encode_basestring_ascii``,
    a list of strings is encoded and joined in one call, an int is its
    ``int.__repr__``, and any other scalar goes through ``json.dumps`` of
    that value.
    ``newline`` is the line break and indentation ``value`` starts at.
    Documents are trees: a value that contains itself raises RecursionError
    here, where ``json.dumps`` raises ValueError."""
    if type(value) is str:
        return _encode_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{_encode_str(k) if type(k) is str else _key_text(k)}: "
                 f"{_encode_str(v) if type(v) is str else _json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if type(value[0]) is str:
            try:  # a str subclass encodes as json encodes it; any other item raises
                return f"[{inner}{(',' + inner).join(map(_encode_str, value))}{newline}]"
            except TypeError:
                pass
        items = [_encode_str(v) if type(v) is str else _json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` writes it: a string, or a number,
    bool or None written as the string of its JSON text."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _parse_cap(text: str) -> Fraction:
    try:
        cap = parse_fraction(text)
    except ValueError as exc:
        raise NetworkFormatError(f"bad capacity {text!r}: {exc}") from None
    return cap


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed and not key.startswith("_"):
            raise NetworkFormatError(f"unknown key {key!r} in {where}")


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise NetworkFormatError(f"missing key {key!r} in {where}")
    value = obj[key]
    if not isinstance(value, kind):
        raise NetworkFormatError(
            f"key {key!r} in {where} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _records(doc: dict, section: str, keys):
    """Each record of the list ``doc[section]``, checked to be an object
    with no key outside ``keys``, with the place errors name it by."""
    for i, rec in enumerate(_require(doc, section, list, "network document")):
        yield rec, _checked(rec, section, i, keys)


def _checked(rec, section: str, i: int, keys) -> str:
    """The place errors name the record ``doc[section][i]`` by, once
    ``rec`` is checked to be an object with no key outside ``keys``."""
    where = f"{section}[{i}]"
    if not isinstance(rec, dict):
        raise NetworkFormatError(f"{where} must be an object")
    _check_keys(rec, keys, where)
    return where


_EDGE_KEYS = dict.fromkeys(("id", "tail", "head", "cap")).keys()  # in the order faults are named
_STR = frozenset((str,))


def parse_network(text: str) -> Network:
    """Parse a JSON document into a validated Network.

    Raises NetworkFormatError for malformed JSON or schema problems and
    InvalidNetworkError when the document parses but violates an invariant
    (the exception carries the full violation list).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"malformed JSON: {exc}") from None
    except RecursionError:
        raise NetworkFormatError("malformed JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level JSON value must be an object")
    _check_keys(doc, {"nodes", "edges", "sources", "sinks"}, "network document")

    nodes = _require(doc, "nodes", list, "network document")
    if not all(isinstance(n, str) for n in nodes):
        raise NetworkFormatError("node ids must be strings")

    caps = {}  # capacity text -> Fraction, for this document: most edges repeat a few texts
    edges = []
    for i, rec in enumerate(_require(doc, "edges", list, "network document")):
        # A record with exactly the four keys, each a string, needs no other check.
        if (type(rec) is not dict or rec.keys() != _EDGE_KEYS
                or set(map(type, rec.values())) != _STR):
            where = _checked(rec, "edges", i, _EDGE_KEYS)
            for key in _EDGE_KEYS:
                _require(rec, key, str, where)
        cap = caps.get(rec["cap"])
        if cap is None:
            cap = caps[rec["cap"]] = _parse_cap(rec["cap"])
        edges.append(Edge(rec["id"], rec["tail"], rec["head"], cap))

    sources = []
    for rec, where in _records(doc, "sources", {"index", "at"}):
        index = _require(rec, "index", int, where)
        if isinstance(index, bool):
            raise NetworkFormatError(f"key 'index' in {where} must be int")
        sources.append(Source(index=index, at=_require(rec, "at", str, where)))

    sinks = []
    for rec, where in _records(doc, "sinks", {"at", "demands"}):
        demands = _require(rec, "demands", list, where)
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in demands):
            raise NetworkFormatError(f"demands in {where} must be integers")
        sinks.append(Sink(at=_require(rec, "at", str, where),
                          demands=tuple(sorted(set(demands)))))

    net = Network(nodes=tuple(nodes), edges=tuple(edges),
                  sources=tuple(sources), sinks=tuple(sinks))
    if net._violations:
        raise InvalidNetworkError(net._violations)
    return net


def serialize_network(net: Network) -> str:
    """Render a Network back to its canonical JSON form (round-trips exactly)."""
    doc = {
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head, "cap": _cap_text(e.cap)}
                  for e in net.edges],
        "sources": [{"index": s.index, "at": s.at} for s in net.sources],
        "sinks": [{"at": t.at, "demands": list(t.demands)} for t in net.sinks],
    }
    return _json_text(doc)


def validate(net: Network) -> list[str]:
    """Return all invariant violations, in a deterministic order.

    An empty list means the network is valid.  Violations are data, not
    exceptions: callers that need a hard failure use parse_network or raise
    InvalidNetworkError themselves.  The checks run once per network; each
    call returns a new list.
    """
    return list(net._violations)


def _check_network(net: Network) -> list[str]:
    violations = []
    node_set = set()
    for n in net.nodes:
        if n in node_set:
            violations.append(f"duplicate node id {n!r}")
        node_set.add(n)

    if not net.sources:
        violations.append("network has no sources")
    if not net.sinks:
        violations.append("network has no sinks")

    edge_ids = set()
    for e in net.edges:
        if e.id in edge_ids:
            violations.append(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        if e.id in node_set:
            violations.append(f"edge id {e.id!r} collides with a node id")
        if e.tail not in node_set:
            violations.append(f"edge {e.id!r}: unknown tail node {e.tail!r}")
        if e.head not in node_set:
            violations.append(f"edge {e.id!r}: unknown head node {e.head!r}")
        if e.tail == e.head:
            violations.append(f"edge {e.id!r}: self-loop at node {e.tail!r}")
        if e.cap.numerator < 0:  # the sign of a Fraction; comparing it to 0 takes longer
            violations.append(f"edge {e.id!r}: negative capacity {_cap_text(e.cap)}")

    heads = {e.head for e in net.edges}
    tails = {e.tail for e in net.edges}

    indices = [s.index for s in net.sources]
    if net.sources and sorted(indices) != list(range(1, len(indices) + 1)):
        violations.append(
            f"source indices must be exactly 1..{len(indices)}, got {sorted(indices)}")
    source_nodes = set()
    for s in net.sources:
        if s.at not in node_set:
            violations.append(f"source {s.index}: unknown node {s.at!r}")
            continue
        source_nodes.add(s.at)
        if s.at in heads:
            violations.append(
                f"In(S) nonempty: source {s.index} at node {s.at!r} "
                f"has incoming edges {[e.id for e in net.edges if e.head == s.at]}")

    known_indices = set(indices)
    sink_nodes = set()
    for t in net.sinks:
        if t.at not in node_set:
            violations.append(f"sink at unknown node {t.at!r}")
            continue
        if t.at in sink_nodes:
            violations.append(f"duplicate sink node {t.at!r}")
        sink_nodes.add(t.at)
        if t.at in source_nodes:
            violations.append(f"node {t.at!r} hosts both a source and a sink")
        if t.at in tails:
            violations.append(f"Out(T) nonempty: sink node {t.at!r} has outgoing edges "
                              f"{[e.id for e in net.edges if e.tail == t.at]}")
        if not t.demands:
            violations.append(f"sink {t.at!r}: empty demand set")
        for d in t.demands:
            if d not in known_indices:
                violations.append(f"sink {t.at!r}: unknown source {d}")

    try:
        topological_order(net)
    except ValueError as exc:
        violations.append(str(exc))
    return violations


def topological_sort(nodes, arcs, cycle_message: str = "cycle detected") -> list:
    """Kahn's order of ``nodes`` under the ``(tail, head)`` pairs ``arcs``,
    whose ends must be among ``nodes``: a FIFO queue seeded with the nodes
    of in-degree 0 in list order, each arc read once.  Raises ValueError
    with ``cycle_message`` when some node is left unplaced, as on a cycle."""
    succ = {n: [] for n in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for tail, head in arcs:
        succ[tail].append(head)
        indeg[head] += 1
    ready = deque(n for n in nodes if not indeg[n])
    order = []
    while ready:
        n = ready.popleft()
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if not indeg[m]:
                ready.append(m)
    if len(order) != len(nodes):
        raise ValueError(cycle_message)
    return order


def topological_order(net: Network) -> list[str]:
    """Kahn topological order of the nodes, stable in node-list order.

    Edges with an endpoint outside ``net.nodes`` are left out."""
    known = set(net.nodes)
    return topological_sort(net.nodes, [(e.tail, e.head) for e in net.edges
                                        if e.tail in known and e.head in known])


def in_edges(net: Network, x: str) -> list[str]:
    """Edges entering a node, or In(E) for an edge id (edges into Tail(E))."""
    if x in set(net.nodes):
        return [e.id for e in net.edges if e.head == x]
    for e in net.edges:
        if e.id == x:
            return [f.id for f in net.edges if f.head == e.tail]
    raise KeyError(f"unknown node or edge id: {x!r}")


def out_edges(net: Network, x: str) -> list[str]:
    """Edges leaving a node, or Out(E) for an edge id (edges out of Head(E))."""
    if x in set(net.nodes):
        return [e.id for e in net.edges if e.tail == x]
    for e in net.edges:
        if e.id == x:
            return [f.id for f in net.edges if f.tail == e.head]
    raise KeyError(f"unknown node or edge id: {x!r}")


@dataclass(frozen=True)
class Weights:
    """Nonnegative per-source objective weights, keyed by source index.

    Missing indices count as weight zero.
    """
    w: tuple[tuple[int, Fraction], ...]

    @classmethod
    def of(cls, mapping) -> "Weights":
        items = []
        for k, v in sorted(dict(mapping).items()):
            v = Fraction(v)
            if v < 0:
                raise ValueError(f"negative weight {v} for source {k}")
            items.append((int(k), v))
        return cls(w=tuple(items))

    @classmethod
    def parse(cls, text: str) -> "Weights":
        """Parse the CLI form 'w1,w2,...' (positional by source index)."""
        parts = [p.strip() for p in text.split(",")]
        if not any(parts):
            raise ValueError("empty weight list")
        if not all(parts):
            # Skipping it would shift every later weight onto the wrong source.
            raise ValueError(f"empty weight for source {parts.index('') + 1}")
        return cls.of({i + 1: parse_fraction(p) for i, p in enumerate(parts)})

    def get(self, index: int) -> Fraction:
        for k, v in self.w:
            if k == index:
                return v
        return Fraction(0)

    def check_against(self, net: Network) -> None:
        known = set(net.source_indices())
        for k, _ in self.w:
            if k not in known:
                raise ValueError(f"weight for unknown source index {k}")


FIXTURE_NAMES = (
    "butterfly",
    "two_unicast_side",
    "two_unicast_chain",
    "parallel_relay",
    "fano",
    "single_edge",
)


def fixture_text(name: str) -> str:
    """Raw JSON text of a bundled example network."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    return resources.files("fdgtool.fixtures").joinpath(f"{name}.json").read_text()


def load_fixture(name: str) -> Network:
    """Parse one of the bundled example networks."""
    return parse_network(fixture_text(name))
