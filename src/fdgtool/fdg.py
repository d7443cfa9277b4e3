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
step by step.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .netmodel import Network, validate

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
    cap: Fraction

    @property
    def name(self) -> str:
        return f"U:{self.edge_id}"


Var = SourceVar | EdgeVar


class Fdg:
    """Immutable dependence graph over source and edge variables.

    ``vars`` fixes the variable order used for every downstream artifact
    (LP columns, matrix rows).  ``parents`` maps each variable to its
    ordered parent tuple; children are derived.
    """

    def __init__(self, vars, parents, demand_origin=None):
        self._vars = tuple(vars)
        self._index = {v: i for i, v in enumerate(self._vars)}
        if len(self._index) != len(self._vars):
            raise ValueError("duplicate variables")
        par = {}
        for v in self._vars:
            ps = tuple(parents.get(v, ()))
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parents for {v.name}")
            if v in ps:
                raise ValueError(f"self-loop at {v.name}")
            for p in ps:
                if p not in self._index:
                    raise ValueError(f"parent {p.name} of {v.name} is not a variable")
            par[v] = tuple(sorted(ps, key=self._index.__getitem__))
        self._parents = par
        children = {v: [] for v in self._vars}
        for v in self._vars:
            for p in self._parents[v]:
                children[p].append(v)
        self._children = {v: tuple(sorted(cs, key=self._index.__getitem__))
                          for v, cs in children.items()}
        self._demand_origin = {k: frozenset(v) for k, v in (demand_origin or {}).items()}

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
        return self._parents[v]

    def down(self, v) -> tuple:
        return self._children[v]

    def source_vars(self) -> tuple:
        return tuple(v for v in self._vars if isinstance(v, SourceVar))

    def edge_vars(self) -> tuple:
        return tuple(v for v in self._vars if isinstance(v, EdgeVar))

    def unit_capacities(self) -> bool:
        return all(v.cap == 1 for v in self.edge_vars())

    def dependence_edge_count(self) -> int:
        return sum(len(self._parents[v]) for v in self._vars)

    def var_by_name(self, name: str):
        for v in self._vars:
            if v.name == name:
                return v
        raise KeyError(f"no variable named {name!r}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Fdg) and self._vars == other._vars
                and self._parents == other._parents)

    def __repr__(self) -> str:
        return f"Fdg(order={self.order})"

    def to_json(self) -> str:
        doc = {
            "vars": [v.name for v in self._vars],
            "parents": {v.name: [p.name for p in self._parents[v]] for v in self._vars},
            "capacities": {v.name: str(v.cap) for v in self.edge_vars()},
            "demand_origin": {v.name: sorted(self._demand_origin.get(v, ()))
                              for v in self.source_vars()},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Fdg":
        doc = json.loads(text)
        caps = doc.get("capacities", {})

        def mk(name):
            if name.startswith("Y"):
                return SourceVar(int(name[1:]))
            if name.startswith("U:"):
                return EdgeVar(name[2:], Fraction(caps[name]))
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
    no parents; that is permitted but reported as a warning because the
    variable then lies on no cycle.
    """
    violations = validate(net)
    if violations:
        raise ValueError("invalid network: " + "; ".join(violations))

    svars = {s.index: SourceVar(s.index) for s in net.sources}
    evars = {e.id: EdgeVar(e.id, e.cap) for e in net.edges}
    order = [svars[s.index] for s in net.sources] + [evars[e.id] for e in net.edges]

    parents = {}
    for e in net.edges:
        hosted = net.sources_at(e.tail)
        if hosted:
            parents[evars[e.id]] = tuple(svars[s.index] for s in hosted)
        else:
            parents[evars[e.id]] = tuple(
                evars[f.id] for f in net.edges if f.head == e.tail)

    origin = {}
    for s in net.sources:
        ps = []
        sinks = set()
        for t in net.sinks:
            if s.index in t.demands:
                sinks.add(t.at)
                for e in net.edges:
                    if e.head == t.at and evars[e.id] not in ps:
                        ps.append(evars[e.id])
        parents[svars[s.index]] = tuple(ps)
        origin[svars[s.index]] = frozenset(sinks)
        if not ps:
            warnings.warn(
                f"source {s.index} has no decodable sink in-edges; "
                f"its variable lies on no cycle", stacklevel=2)

    fdg = Fdg(order, parents, origin)
    assert fdg.order == len(net.edges) + len(net.sources)
    return fdg


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
    gset = set(group)
    for v in group[1:]:
        if set(fdg.up(v)) != set(fdg.up(group[0])) or set(fdg.down(v)) != set(fdg.down(group[0])):
            raise ValueError("group removal requires identical parent and child sets")
    up = [p for p in fdg.up(group[0]) if p not in gset]
    new_vars = [v for v in fdg.vars if v not in gset]
    new_parents = {}
    for v in new_vars:
        ps = [p for p in fdg.up(v) if p not in gset]
        if any(g in fdg.up(v) for g in gset):
            for a in up:
                if a != v and a not in ps:
                    ps.append(a)
        new_parents[v] = tuple(ps)
    return Fdg(new_vars, new_parents, fdg.demand_origin)


def _require_unit(fdg: Fdg, rule: str) -> None:
    if not fdg.unit_capacities():
        raise UnitCapacityError(
            f"{rule} applies to unit-capacity graphs only; "
            f"use the capacity rules COR1/COR2 instead")


def cor1(fdg: Fdg, v) -> bool:
    """Single variable: no source parent, capacity covers the parents' sum."""
    if not isinstance(v, EdgeVar):
        return False
    up = fdg.up(v)
    if any(isinstance(p, SourceVar) for p in up):
        return False
    return v.cap >= sum((p.cap for p in up), Fraction(0))


def cor2(fdg: Fdg, group) -> bool:
    """Group with identical neighborhoods whose joint capacity covers its parents."""
    group = tuple(group)
    if not group or not all(isinstance(v, EdgeVar) for v in group):
        return False
    up = set(fdg.up(group[0]))
    down = set(fdg.down(group[0]))
    for v in group[1:]:
        if set(fdg.up(v)) != up or set(fdg.down(v)) != down:
            return False
    up -= set(group)
    down -= set(group)
    if any(isinstance(p, SourceVar) for p in up):
        return False
    return sum((v.cap for v in group), Fraction(0)) >= sum((p.cap for p in up), Fraction(0))


def cor3(fdg: Fdg, v) -> bool:
    """Unit-capacity single variable: exactly one parent, which is not a source."""
    _require_unit(fdg, COR3)
    if not isinstance(v, EdgeVar):
        return False
    up = fdg.up(v)
    return len(up) == 1 and not isinstance(up[0], SourceVar)


def cor4(fdg: Fdg, group) -> bool:
    """Unit-capacity group: identical neighborhoods, no more parents than members."""
    _require_unit(fdg, COR4)
    group = tuple(group)
    if not group or not all(isinstance(v, EdgeVar) for v in group):
        return False
    up = set(fdg.up(group[0]))
    down = set(fdg.down(group[0]))
    for v in group[1:]:
        if set(fdg.up(v)) != up or set(fdg.down(v)) != down:
            return False
    up -= set(group)
    if any(isinstance(p, SourceVar) for p in up):
        return False
    return len(up) <= len(group)


def cor5a(fdg: Fdg, v) -> bool:
    """Linear-coding rule: one parent and it is not a source."""
    _require_unit(fdg, COR5A)
    if not isinstance(v, EdgeVar):
        return False
    up = fdg.up(v)
    return len(up) == 1 and not isinstance(up[0], SourceVar)


def cor5b(fdg: Fdg, v) -> bool:
    """Linear-coding rule: one child and it is not a source."""
    _require_unit(fdg, COR5B)
    if not isinstance(v, EdgeVar):
        return False
    down = fdg.down(v)
    return len(down) == 1 and not isinstance(down[0], SourceVar)


SINGLE_RULES = {COR1: cor1, COR3: cor3, COR5A: cor5a, COR5B: cor5b}
GROUP_RULES = {COR2: cor2, COR4: cor4}


def removable(fdg: Fdg, target, rule: str) -> bool:
    """Uniform entry point: ``target`` is a variable or, for the group rules,
    an iterable of variables."""
    if rule in SINGLE_RULES:
        return SINGLE_RULES[rule](fdg, target)
    if rule in GROUP_RULES:
        return GROUP_RULES[rule](fdg, target)
    raise ValueError(f"unknown rule {rule!r}")


@dataclass(frozen=True)
class Step:
    rule: str
    removed: tuple[str, ...]
    up: tuple[str, ...]
    down: tuple[str, ...]
    added: tuple[tuple[str, str], ...]

    def to_json(self) -> str:
        return json.dumps({
            "rule": self.rule,
            "removed": list(self.removed),
            "up": list(self.up),
            "down": list(self.down),
            "added": [list(pair) for pair in self.added],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Step":
        doc = json.loads(line)
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
        steps = tuple(steps)
        dv = sum(len(s.removed) for s in steps)
        return cls(steps=steps, delta_v=dv if delta_v is None else delta_v,
                   delta_e=0 if delta_e is None else delta_e)


def _edge_var_depths(fdg: Fdg) -> dict:
    """Longest-path depth of each edge variable in the edge-variable subgraph,
    which stays acyclic under removals."""
    evars = fdg.edge_vars()
    depth = {}

    def visit(v, stack):
        if v in depth:
            return depth[v]
        if v in stack:
            raise ValueError("edge-variable subgraph has a cycle")
        stack.add(v)
        ps = [p for p in fdg.up(v) if isinstance(p, EdgeVar)]
        depth[v] = 0 if not ps else 1 + max(visit(p, stack) for p in ps)
        stack.discard(v)
        return depth[v]

    for v in evars:
        visit(v, set())
    return depth


def _candidates(fdg: Fdg):
    depth = _edge_var_depths(fdg)
    return sorted(fdg.edge_vars(), key=lambda v: (depth[v], fdg.index(v)))


def _apply_removal(fdg: Fdg, group, rule: str):
    gset = set(group)
    up = tuple(p for p in fdg.up(group[0]) if p not in gset)
    down = tuple(c for c in fdg.down(group[0]) if c not in gset)
    added = []
    existing = {(a, b) for b in fdg.vars for a in fdg.up(b)}
    for a in up:
        for b in down:
            if a != b and (a, b) not in existing:
                added.append((a.name, b.name))
    step = Step(rule=rule,
                removed=tuple(v.name for v in group),
                up=tuple(p.name for p in up),
                down=tuple(c.name for c in down),
                added=tuple(added))
    return remove_group(fdg, group), step


def _cor2_classes(fdg: Fdg):
    classes = {}
    for v in fdg.edge_vars():
        key = (frozenset(fdg.up(v)), frozenset(fdg.down(v)))
        classes.setdefault(key, []).append(v)
    return sorted(classes.values(), key=lambda grp: min(fdg.index(v) for v in grp))


def reduce(fdg: Fdg, mode: str = SHANNON) -> tuple[Fdg, ReductionTrace]:
    """Reduce to a fixpoint, returning the reduced graph and its trace.

    The application order is fixed for determinism: the single-variable
    capacity rule on the first removable variable in topological-then-index
    order; failing that, the group rule on the first maximal class with
    identical neighborhoods; in linear mode the two linear rules follow.
    No claim of order independence is made, so the order is part of the
    contract.
    """
    if mode not in (SHANNON, LINEAR):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == LINEAR and not fdg.unit_capacities():
        raise UnitCapacityError("linear mode requires unit capacities")

    start_edges = fdg.dependence_edge_count()
    steps = []
    cur = fdg
    while True:
        cands = _candidates(cur)
        group = None
        rule = None
        for v in cands:
            if cor1(cur, v):
                group, rule = (v,), COR1
                break
        if group is None:
            for cls_ in _cor2_classes(cur):
                if len(cls_) > 1 and cor2(cur, cls_):
                    group, rule = tuple(cls_), COR2
                    break
        if group is None and mode == LINEAR:
            for v in cands:
                if cor5a(cur, v):
                    group, rule = (v,), COR5A
                    break
        if group is None and mode == LINEAR:
            for v in cands:
                if cor5b(cur, v):
                    group, rule = (v,), COR5B
                    break
        if group is None:
            break
        cur, step = _apply_removal(cur, group, rule)
        steps.append(step)

    trace = ReductionTrace(steps=tuple(steps),
                           delta_v=fdg.order - cur.order,
                           delta_e=start_edges - cur.dependence_edge_count())
    return cur, trace


def replay(fdg: Fdg, trace: ReductionTrace) -> Fdg:
    """Re-apply a trace to a graph, verifying each recorded step.

    Raises ReplayError if a step's removed variables or their recorded
    neighborhoods do not match the current graph state.
    """
    cur = fdg
    for i, step in enumerate(trace.steps):
        try:
            group = tuple(cur.var_by_name(n) for n in step.removed)
        except KeyError as exc:
            raise ReplayError(f"step {i}: {exc}") from None
        gset = set(group)
        up = tuple(p.name for p in cur.up(group[0]) if p not in gset)
        down = tuple(c.name for c in cur.down(group[0]) if c not in gset)
        if up != step.up or down != step.down:
            raise ReplayError(
                f"step {i}: recorded neighborhood does not match the graph "
                f"(up {step.up} vs {up}, down {step.down} vs {down})")
        cur = remove_group(cur, group)
    return cur
