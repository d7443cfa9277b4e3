"""Functional dependence graphs and their reduction rules.

The dependence graph of a network has one variable per source and one per
edge.  Each variable is a deterministic function of its parents: an edge
variable's parents are the variables of the edges feeding its tail (or the
source placed there), and a source variable's parents are the variables on
the in-edges of every sink that demands it, which is what puts every demanded
source on a directed cycle.

Reduction deletes edge variables that only forward information, reconnecting
their parents to their children.  Two families of rules are implemented:

* capacity rules (``COR1`` for a single variable, ``COR2`` for a group with
  identical neighborhoods): sound for general capacity bounds.  A variable
  qualifies when no source feeds it directly and its capacity covers the sum
  of its parents' capacities.
* unit-capacity rules: ``COR3``/``COR4`` are the specializations of the
  above to all-unit capacities, and ``COR5a``/``COR5b`` additionally remove
  single-parent or single-child variables when only linear coding capacity
  is of interest.

Every removal is logged in a replayable trace so a reduction can be audited
step by step: ``reduce`` and ``replay`` take each step through the same
function, which refuses any removal its rule does not permit.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .netmodel import (Network, _json_text, fraction_from_text, fraction_text,
                       topological_sort, validate)

COR1 = "COR1"
COR2 = "COR2"
COR3 = "COR3"
COR4 = "COR4"
COR5A = "COR5a"
COR5B = "COR5b"

SHANNON = "shannon"
LINEAR = "linear"


class UnitCapacityError(ValueError):
    """A unit-capacity rule was requested on a graph with other capacities."""


class TraceFormatError(ValueError):
    """A trace document that does not parse into reduction steps."""


class ReplayError(ValueError):
    """A trace does not match the graph it is replayed against."""


@dataclass(frozen=True)
class SourceVar:
    index: int

    @property
    def name(self) -> str:
        return f"Y{self.index}"


@dataclass(frozen=True)
class EdgeVar:
    edge_id: str
    cap: Fraction = field(hash=False)  # not hashed (slow); the rules read Fdg._caps

    @property
    def name(self) -> str:
        return f"U:{self.edge_id}"


Var = SourceVar | EdgeVar


class Fdg:
    """Immutable dependence graph over source and edge variables.

    ``vars`` fixes the variable order used for every downstream artifact
    (LP columns, matrix rows).  ``parents`` maps each variable to its
    parent tuple, checked here; children are derived.  Both are held as the
    ascending positions in ``vars`` of the neighbours of ``vars[i]``, at index
    ``i``, and so are ``_is_edge``, ``_names`` and ``_caps``, each capacity as an
    integer over ``_den``, the edge capacities' least common denominator (0 for a source).
    """

    def __init__(self, vars, parents, demand_origin=None):
        vars = tuple(vars)
        index = {v: i for i, v in enumerate(vars)}
        if len(index) != len(vars):
            raise ValueError("duplicate variables")
        par = []
        for v in vars:
            ps = tuple(parents.get(v, ()))
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parents for {v.name}")
            if v in ps:
                raise ValueError(f"self-loop at {v.name}")
            for p in ps:
                if p not in index:
                    raise ValueError(f"parent {p.name} of {v.name} is not a variable")
            par.append(tuple(sorted(map(index.__getitem__, ps))))
        self._assemble(vars, par, demand_origin)

    def _assemble(self, vars: tuple, parents: list, demand_origin) -> "Fdg":
        """Fill in ``self`` from ascending, distinct, loop-free parent positions, unchecked."""
        self._vars = vars
        self._index = {v: i for i, v in enumerate(vars)}
        self._parents = tuple(parents)
        children = [[] for _ in parents]
        for i, ps in enumerate(parents):
            for p in ps:
                children[p].append(i)
        self._children = tuple(map(tuple, children))
        self._demand_origin = {k: frozenset(v) for k, v in (demand_origin or {}).items()}
        self._is_edge = is_edge = tuple([isinstance(v, EdgeVar) for v in vars])
        self._names = tuple([v.name for v in vars])
        ratios = [v.cap.as_integer_ratio() if e else (0, 1) for v, e in zip(vars, is_edge)]
        self._den = den = math.lcm(*[q for _, q in ratios])
        self._caps = tuple([p * (den // q) for p, q in ratios])
        self._unit = all(c == den for c, e in zip(self._caps, is_edge) if e)
        return self

    @property
    def vars(self) -> tuple:
        return self._vars

    @property
    def order(self) -> int:
        return len(self._vars)

    @property
    def demand_origin(self) -> dict:
        return dict(self._demand_origin)

    def index(self, v) -> int:
        return self._index[v]

    def __contains__(self, v) -> bool:
        return v in self._index

    def up(self, v) -> tuple:
        return tuple(map(self._vars.__getitem__, self._parents[self._index[v]]))

    def down(self, v) -> tuple:
        return tuple(map(self._vars.__getitem__, self._children[self._index[v]]))

    def source_vars(self) -> tuple:
        return tuple(v for v in self._vars if isinstance(v, SourceVar))

    def edge_vars(self) -> tuple:
        return tuple(v for v in self._vars if isinstance(v, EdgeVar))

    def unit_capacities(self) -> bool:
        return self._unit

    def dependence_edge_count(self) -> int:
        return sum(map(len, self._parents))

    def var_by_name(self, name: str):
        try:
            return self._vars[self._names.index(name)]
        except ValueError:
            raise KeyError(f"no variable named {name!r}") from None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Fdg) and self._vars == other._vars
                and self._parents == other._parents)

    def __repr__(self) -> str:
        return f"Fdg(order={self.order})"

    def to_dict(self) -> dict:
        """The JSON document of the graph, as ``to_json`` writes it."""
        names = self._names
        return {
            "vars": list(names),
            "parents": {names[i]: [names[p] for p in ps] for i, ps in enumerate(self._parents)},
            "capacities": {v.name: fraction_text(v.cap) for v in self.edge_vars()},
            "demand_origin": {v.name: sorted(self._demand_origin.get(v, ()))
                              for v in self.source_vars()},
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Fdg":
        doc = json.loads(text)
        caps = doc.get("capacities", {})

        def mk(name):
            if name.startswith("Y"):
                return SourceVar(int(name[1:]))
            if name.startswith("U:"):
                return EdgeVar(name[2:], fraction_from_text(caps[name]))
            raise ValueError(f"bad variable name {name!r}")

        vars_ = [mk(n) for n in doc["vars"]]
        parents = {mk(n): tuple(mk(p) for p in ps) for n, ps in doc["parents"].items()}
        origin = {mk(n): frozenset(ts) for n, ts in doc.get("demand_origin", {}).items()}
        return cls(vars_, parents, origin)


def build_fdg(net: Network) -> Fdg:
    """Construct the dependence graph of a valid network.

    Variable order is sources (file order) followed by edge variables in
    edge-list order, so the graph order is the edge count plus the source
    count.  A demanded source that no sink in-edge can decode ends up with
    no parents; that is permitted but reported, in one warning for all such
    sources, because the variable then lies on no cycle.

    The network checks run once per ``Network`` (see ``validate``), so a
    network that ``parse_network`` returned is not checked again; an
    invalid one built by hand raises ValueError.
    """
    violations = validate(net)
    if violations:
        raise ValueError("invalid network: " + "; ".join(violations))

    # No check is needed: ``validate`` refuses duplicate ids, duplicate sink
    # nodes and self-loop edges, and a source where an edge ends or a sink
    # sits, so a node ``feeds`` its sources or else its in-edges, and the
    # parent positions below are distinct, ascending and never a self-loop.
    order = tuple([SourceVar(s.index) for s in net.sources]
                  + [EdgeVar(e.id, e.cap) for e in net.edges])
    feeds = {}
    for i, at in enumerate([s.at for s in net.sources] + [e.head for e in net.edges]):
        feeds.setdefault(at, []).append(i)
    parents, origin = [], {}
    for s, v in zip(net.sources, order):
        sinks = [t.at for t in net.sinks if s.index in t.demands]
        parents.append(tuple(sorted(i for at in sinks for i in feeds.get(at, ()))))
        origin[v] = frozenset(sinks)
    undecodable = [str(s.index) for s, ps in zip(net.sources, parents) if not ps]
    parents += [tuple(feeds.get(e.tail, ())) for e in net.edges]
    if undecodable:
        listed = ", ".join(undecodable)
        warnings.warn(
            f"source {listed} has no decodable sink in-edges; its variable lies on no cycle"
            if len(undecodable) == 1 else
            f"sources {listed} have no decodable sink in-edges; their variables lie on "
            f"no cycle", stacklevel=2)
    return Fdg.__new__(Fdg)._assemble(order, parents, origin)


def _shared_neighbourhood(g, members: tuple):
    """The positions ``(up, down)`` of the parents and children of the
    variables at ``members`` in ``g``, or None unless ``members`` is
    non-empty, has no repeats, holds only edge variables, and all have the
    same parents and children.  No member is among them: no self-loops."""
    if len(members) == 1:
        i = members[0]
        return (g._parents[i], g._children[i]) if g._is_edge[i] else None
    if not members or len(set(members)) != len(members):
        return None
    is_edge = g._is_edge
    if not all(is_edge[i] for i in members):
        return None
    first, *rest = members
    up, down = g._parents[first], g._children[first]
    if any(g._parents[i] != up or g._children[i] != down for i in rest):
        return None
    return up, down


def remove_var(fdg: Fdg, v: EdgeVar) -> Fdg:
    """Delete an edge variable, connecting each parent to each child.

    Only the incident dependence edges change: for every parent A and child
    B with A != B the edge (A, B) is added (as a set union), and no other
    parent set is touched.  Source variables are never removable.
    """
    return remove_group(fdg, (v,))


def remove_group(fdg: Fdg, group) -> Fdg:
    group = tuple(group)
    for v in group:
        if not isinstance(v, EdgeVar):
            raise ValueError(f"{v.name} is a source variable; only edge variables are removable")
        if v not in fdg:
            raise ValueError(f"{v.name} is not in the graph")
    members = tuple(map(fdg.index, group))
    shared = _shared_neighbourhood(fdg, members)
    if shared is None:
        raise ValueError("group removal requires distinct variables with "
                         "identical parent and child sets")
    work = _WorkGraph(fdg)
    work.remove(members, *shared)
    return work.freeze()


class _WorkGraph:
    """A mutable copy of an ``Fdg`` that removals rewire in place.

    Variables keep their positions in the original order, and removed ones
    are only marked dead, so ``_parents`` and ``_children`` mean what they
    mean on the ``Fdg``, which shares its other per-position data with it.
    With ``unit_capacities`` that is all the rule predicates read, so they
    take either graph; ``freeze`` renumbers the live ones in order, so parent
    tuples stay ascending, and assembles the ``Fdg`` once, unchecked.  It
    never leaves this module, so every graph a caller sees stays immutable.
    """

    def __init__(self, fdg: Fdg):
        self.vars = fdg.vars
        self._is_edge, self._names = fdg._is_edge, fdg._names
        self._caps, self._den = fdg._caps, fdg._den
        self._parents = list(fdg._parents)
        self._children = list(fdg._children)
        self._alive = [True] * len(self.vars)
        self._by_name = {n: i for i, n in reversed(list(enumerate(self._names)))}
        self._demand_origin = fdg.demand_origin
        self._non_unit = sum(c != self._den for c, e in zip(self._caps, self._is_edge) if e)

    def unit_capacities(self) -> bool:
        return not self._non_unit

    def position(self, name: str) -> int:
        i = self._by_name.get(name)
        if i is None or not self._alive[i]:
            raise KeyError(f"no variable named {name!r}")
        return i

    def remove(self, members: tuple, up: tuple, down: tuple) -> None:
        """Delete the variables at ``members``, which share the neighbours
        ``(up, down)``, connecting each of ``up`` to each other of ``down``.
        Only the parent sets in ``down`` and the child sets in ``up`` change."""
        for a in up:
            kept = {c for c in self._children[a] if c not in members}
            self._children[a] = tuple(sorted(kept.union(b for b in down if b != a)))
        for b in down:
            kept = {p for p in self._parents[b] if p not in members}
            self._parents[b] = tuple(sorted(kept.union(a for a in up if a != b)))
        for i in members:
            self._alive[i] = False
            self._non_unit -= self._caps[i] != self._den

    def freeze(self) -> Fdg:
        alive = [i for i, a in enumerate(self._alive) if a]
        renumber = {i: k for k, i in enumerate(alive)}
        parents = [tuple(map(renumber.__getitem__, self._parents[i])) for i in alive]
        return Fdg.__new__(Fdg)._assemble(tuple(map(self.vars.__getitem__, alive)),
                                          parents, self._demand_origin)


# Each rule: single variables only?  unit capacities only?  The one side of the
# shared neighbourhood (0 up, 1 down) it reads, and whether that side must be one
# edge variable (COR5a/COR5b) or edge variables the group's capacity covers.
_RULE_KINDS = {COR1: (True, False, 0, False), COR2: (False, False, 0, False),
               COR3: (True, True, 0, False), COR4: (False, True, 0, False),
               COR5A: (True, True, 0, True), COR5B: (True, True, 1, True)}


def _permits(g, group: tuple, rule: str, index=None) -> bool:
    """Whether ``rule`` permits removing ``group`` from ``g``, an ``Fdg`` or
    a working graph: positions, or variables that ``index`` maps to positions
    once they are known to be distinct edge variables.  Raises ValueError for
    an unknown rule, UnitCapacityError for a unit rule on other capacities."""
    if rule not in _RULE_KINDS:
        raise ValueError(f"unknown rule {rule!r}")
    single, unit, side, one = _RULE_KINDS[rule]
    if single and len(group) != 1:
        return False
    if unit and not g.unit_capacities():
        raise UnitCapacityError(f"{rule} applies to unit-capacity graphs only; "
                                f"use the capacity rules COR1/COR2 instead")
    if index is not None:
        if len(set(group)) != len(group) or not all(isinstance(v, EdgeVar) for v in group):
            return False
        group = tuple(map(index, group))
    shared = _shared_neighbourhood(g, group)
    if shared is None:
        return False
    is_edge, cap, near = g._is_edge, g._caps, shared[side]
    if one:
        return len(near) == 1 and is_edge[near[0]]
    # COR1-COR4: no source parent, and the group's capacity covers the parents'.
    return (all(is_edge[p] for p in near)
            and sum(cap[i] for i in group) >= sum(cap[p] for p in near))


# Each rule as a predicate over a tuple of variables.
RULES = {rule: lambda fdg, group, rule=rule: _permits(fdg, tuple(group), rule, fdg.index)
         for rule in _RULE_KINDS}


def cor1(fdg: Fdg, v) -> bool:
    """Single variable: no source parent, capacity covers the parents' sum."""
    return RULES[COR1](fdg, (v,))


def cor2(fdg: Fdg, group) -> bool:
    """Group with identical neighborhoods whose joint capacity covers its parents."""
    return RULES[COR2](fdg, group)


def cor3(fdg: Fdg, v) -> bool:
    """Unit-capacity single variable: no source parent, at most one parent.

    This is ``cor1``: every capacity equals the denominator, so its sums count.
    """
    return RULES[COR3](fdg, (v,))


def cor4(fdg: Fdg, group) -> bool:
    """Unit-capacity group: identical neighborhoods, no more parents than members.

    This is ``cor2``: every capacity equals the denominator, so its sums count.
    """
    return RULES[COR4](fdg, group)


def cor5a(fdg: Fdg, v) -> bool:
    """Linear-coding rule: one parent and it is not a source."""
    return RULES[COR5A](fdg, (v,))


def cor5b(fdg: Fdg, v) -> bool:
    """Linear-coding rule: one child and it is not a source."""
    return RULES[COR5B](fdg, (v,))


def removable(fdg: Fdg, target, rule: str) -> bool:
    """Uniform entry point: ``target`` is a variable or, for the group rules,
    an iterable of variables."""
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    group = (target,) if isinstance(target, (SourceVar, EdgeVar)) else tuple(target)
    return RULES[rule](fdg, group)


# One trace line, as ``json.dumps(doc, sort_keys=True)`` writes it; that
# call would build a new encoder for every step.
_encode_step = json.JSONEncoder(sort_keys=True).encode


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


@dataclass(frozen=True)
class Step:
    rule: str
    removed: tuple[str, ...]
    up: tuple[str, ...]
    down: tuple[str, ...]
    added: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        """The JSON object of the step, as ``to_json`` writes it."""
        return {
            "rule": self.rule,
            "removed": list(self.removed),
            "up": list(self.up),
            "down": list(self.down),
            "added": [list(pair) for pair in self.added],
        }

    def to_json(self) -> str:
        return _encode_step(self.to_dict())

    @classmethod
    def from_json(cls, line: str) -> "Step":
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise TypeError("not a JSON object")
        if not isinstance(doc["rule"], str):
            raise TypeError("rule is not a string")
        for key in ("removed", "up", "down"):
            if not _is_str_list(doc[key]):
                raise TypeError(f"{key} is not a list of names")
        if not isinstance(doc["added"], list) or not all(
                _is_str_list(pair) and len(pair) == 2 for pair in doc["added"]):
            raise TypeError("added is not a list of name pairs")
        return cls(rule=doc["rule"],
                   removed=tuple(doc["removed"]),
                   up=tuple(doc["up"]),
                   down=tuple(doc["down"]),
                   added=tuple((a, b) for a, b in doc["added"]))


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[Step, ...]
    delta_v: int
    delta_e: int

    def to_jsonl(self) -> str:
        return "".join(step.to_json() + "\n" for step in self.steps)

    @classmethod
    def from_jsonl(cls, text: str, delta_v: int | None = None,
                   delta_e: int | None = None) -> "ReductionTrace":
        steps = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                steps.append(Step.from_json(line))
            except KeyError as exc:
                raise TraceFormatError(f"line {number}: missing key {exc}") from None
            except (ValueError, TypeError) as exc:
                raise TraceFormatError(f"line {number}: {exc}") from None
            except RecursionError:
                raise TraceFormatError(f"line {number}: JSON nested too deeply") from None
        steps = tuple(steps)
        # A step deletes each member's edges to and from its neighbourhood
        # (members share no edge) and adds the ``added`` pairs.
        dv = sum(len(s.removed) for s in steps)
        de = sum(len(s.removed) * (len(s.up) + len(s.down)) - len(s.added) for s in steps)
        return cls(steps=steps, delta_v=dv if delta_v is None else delta_v,
                   delta_e=de if delta_e is None else delta_e)


def _edge_var_depths(work: _WorkGraph) -> list:
    """Longest-path depth of each edge variable in the edge-variable subgraph,
    which stays acyclic under removals, by position; -1 for the others."""
    is_edge = work._is_edge
    parents = [[p for p in ps if is_edge[p]] if is_edge[v] else []
               for v, ps in enumerate(work._parents)]
    depth = [-1] * len(parents)
    arcs = [(p, v) for v, ps in enumerate(parents) for p in ps]
    for v in topological_sort(range(len(parents)), arcs,
                              "edge-variable subgraph has a cycle"):
        if is_edge[v]:
            depth[v] = 1 + max(map(depth.__getitem__, parents[v]), default=-1)
    return depth


def _step(work: _WorkGraph, members: tuple, rule: str) -> tuple[Step, tuple, tuple]:
    """Remove the variables at ``members`` under ``rule`` from the working
    graph: the trace step and the positions ``(up, down)`` of the group's
    neighbours, the only variables whose parent or child sets changed.

    Raises ValueError for an unknown rule or a group the rule does not
    permit, and UnitCapacityError for a unit rule on other capacities.
    """
    name = work._names
    if not _permits(work, members, rule):
        raise ValueError(f"{rule} does not permit removing {[name[i] for i in members]}")
    # Every rule permits only a group whose members share one parent set and
    # one child set, so the first member's neighbours are the group's.
    up, down = work._parents[members[0]], work._children[members[0]]
    step = Step(rule=rule,
                removed=tuple(name[i] for i in members),
                up=tuple(name[a] for a in up),
                down=tuple(name[b] for b in down),
                added=tuple((name[a], name[b]) for a in up for b in down
                            if a != b and a not in work._parents[b]))
    work.remove(members, up, down)
    return step, up, down


# On a unit graph COR5a (exactly one parent, not a source) implies COR1 (no
# source parent, at most one parent), which is tried first, so COR5a could
# never pick a step; ``replay`` still accepts COR5a steps.
_MODE_RULES = {SHANNON: (COR1, COR2), LINEAR: (COR1, COR2, COR5B)}


class _Candidates:
    """The removals ``reduce`` can pick from.

    For each single-variable rule, the set of edge variables it permits
    removing, and each edge variable's depth, both held by position and
    kept current step by step.  A single-variable rule reads one side of a
    variable's neighbourhood (``_RULE_KINDS``), and a step changes only the
    parent sets of its downs and the child sets of its ups, so after a step
    a rule that reads parents is re-tested on the downs only and one that
    reads children on the ups only.  COR2's classes are formed only when
    ``first`` reaches COR2.
    """

    def __init__(self, work: _WorkGraph, rules: tuple):
        self._work = work
        self._rules = rules
        self._singles = {rule: set() for rule in rules if rule != COR2}
        self._depth = _edge_var_depths(work)
        edges = [i for i, edge in enumerate(work._is_edge) if edge]
        for rule in self._singles:
            self._retest(rule, edges)

    def first(self):
        """The first ``(members, rule)`` that a rule permits, trying the
        rules in order: COR2 on the classes in order of their first member,
        the others on single variables in topological-then-index order."""
        for rule in self._rules:
            if rule == COR2:
                if (members := self._cor2_class()) is not None:
                    return members, COR2
            elif self._singles[rule]:
                depth = self._depth
                return (min(self._singles[rule], key=lambda i: (depth[i], i)),), rule
        return None

    def _cor2_class(self):
        """The first class of live edge variables with identical
        neighbourhoods, in order of first member, that has more than one
        member and that COR2 permits removing, or None."""
        work = self._work
        classes = {}
        for i, alive in enumerate(work._alive):
            if alive and work._is_edge[i]:
                classes.setdefault((work._parents[i], work._children[i]), []).append(i)
        for members in classes.values():
            if len(members) > 1 and _permits(work, tuple(members), COR2):
                return tuple(members)
        return None

    def update(self, members: tuple, up: tuple, down: tuple) -> None:
        """Account for the removal of ``members`` with neighbours ``(up, down)``."""
        work = self._work
        for i in members:
            for passing in self._singles.values():
                passing.discard(i)
            self._depth[i] = -1
        ups = [i for i in up if work._is_edge[i]]
        downs = [i for i in down if work._is_edge[i]]
        self._push_depths(downs)
        changed = (downs, ups)  # by the side a rule reads: whose parents, whose children changed
        for rule in self._singles:
            self._retest(rule, changed[_RULE_KINDS[rule][2]])

    def _push_depths(self, start: list) -> None:
        # Only the parent sets of ``start`` changed; carry changes downstream.
        depth, parents, children = self._depth, self._work._parents, self._work._children
        is_edge = self._work._is_edge
        pending = list(start)
        while pending:
            v = pending.pop()
            d = 1 + max(map(depth.__getitem__, parents[v]), default=-1)
            if d != depth[v]:
                depth[v] = d
                pending += [c for c in children[v] if is_edge[c]]

    def _retest(self, rule: str, positions) -> None:
        """Re-test the single-variable ``rule`` on ``positions``."""
        work, passing = self._work, self._singles[rule]
        for i in positions:
            (passing.add if _permits(work, (i,), rule) else passing.discard)(i)


def reduce(fdg: Fdg, mode: str = SHANNON) -> tuple[Fdg, ReductionTrace]:
    """Reduce to a fixpoint, returning the reduced graph and its trace.

    The application order is fixed for determinism: the single-variable
    capacity rule on the first removable variable in topological-then-index
    order; failing that, the group rule on the first maximal class with
    identical neighborhoods; in linear mode COR5b follows.  COR5a is not
    tried: on a unit graph it implies COR1, so it could never pick a step.
    No claim of order independence is made, so the order is part of the
    contract.

    The steps run on one private working graph, where the rules read
    positions and integer capacities.  A step rewires only the removed
    group's neighbourhood and updates only the depths it shortens.  It
    re-tests COR1, which reads parents, only on the group's children, whose
    parent sets changed, and COR5b, which reads children, only on the
    group's parents; ``_step`` still checks each removal with its rule.
    Picking the next removal still scans every passing variable, and a step
    that reaches COR2 groups every live edge variable, so a step is also
    linear in the number of candidates.  The ``Fdg`` is built once, at the end.
    """
    if mode not in _MODE_RULES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == LINEAR and not fdg.unit_capacities():
        raise UnitCapacityError("linear mode requires unit capacities")

    work = _WorkGraph(fdg)
    candidates = _Candidates(work, _MODE_RULES[mode])
    steps = []
    while (found := candidates.first()) is not None:
        step, up, down = _step(work, *found)
        candidates.update(found[0], up, down)
        steps.append(step)

    reduced = work.freeze()
    trace = ReductionTrace(steps=tuple(steps),
                           delta_v=fdg.order - reduced.order,
                           delta_e=fdg.dependence_edge_count() - reduced.dependence_edge_count())
    return reduced, trace


def replay(fdg: Fdg, trace: ReductionTrace) -> Fdg:
    """Re-apply a trace to a graph, re-deriving and checking each step.

    A step is accepted only when its ``removed`` names distinct variables of
    the current graph, its rule is known and permits removing them (unit
    rules only on unit-capacity graphs), and the ``up``, ``down`` and
    ``added`` derived from the graph equal the recorded ones.  Raises
    ReplayError at the first step that fails.
    """
    work = _WorkGraph(fdg)
    for i, step in enumerate(trace.steps):
        try:
            members = tuple(map(work.position, step.removed))
            derived, _, _ = _step(work, members, step.rule)
        except (KeyError, ValueError) as exc:
            raise ReplayError(f"step {i}: {exc}") from None
        if derived != step:
            raise ReplayError(
                f"step {i}: recorded step does not match the graph "
                f"(recorded {step.to_json()}, derived {derived.to_json()})")
    return work.freeze()
