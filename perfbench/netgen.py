"""Seeded generator of layered unit-capacity networks with relay chains.

A network has ``sources`` unicast sessions: source ``s<i>`` feeds the first
relay layer and sink ``t<i>`` demands source ``i`` from the last one.  Each
relay node draws two distinct parents from the layer before it, so the
number of paths (and with it the size of the unreduced transfer matrix)
stays bounded by the layer count.  A fixed number of those links are relay
chains: paths of two to four unit edges through otherwise idle nodes, the
structure the reduction rules remove.

The shape fixes the edge count exactly; the seed only decides which nodes
are linked and which links become chains.  That keeps the work per network
close to constant across seeds while the graphs themselves differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

FAN_IN = 2
CHAIN_HOPS = 3


@dataclass(frozen=True)
class Shape:
    name: str
    sources: int
    layers: int
    width: int
    chains: int  # relay chains per gap between consecutive layers

    def edge_count(self) -> int:
        links = (self.width                                # sources -> layer 0
                 + (self.layers - 1) * self.width * FAN_IN  # layer -> layer
                 + self.sources * FAN_IN)                   # last layer -> sinks
        return links + (self.layers - 1) * self.chains * (CHAIN_HOPS - 1)


def _two_parents(rng: random.Random, width: int) -> list[tuple[int, int]]:
    """Parent pairs for one layer: every node has two distinct parents and
    every node of the layer below has two children."""
    first = list(range(width))
    rng.shuffle(first)
    while True:
        second = list(range(width))
        rng.shuffle(second)
        if all(a != b for a, b in zip(first, second)):
            return list(zip(first, second))


def generate(shape: Shape, seed: int) -> dict:
    """Return the network document for ``shape`` drawn with ``seed``."""
    rng = random.Random(f"{shape.name}:{seed}")
    sources = [f"s{i}" for i in range(1, shape.sources + 1)]
    sinks = [f"t{i}" for i in range(1, shape.sources + 1)]
    layers = [[f"v{l}_{k}" for k in range(shape.width)] for l in range(shape.layers)]

    feeders = [sources[k % shape.sources] for k in range(shape.width)]
    rng.shuffle(feeders)
    links = [[(s, v) for s, v in zip(feeders, layers[0])]]
    for lower, upper in zip(layers, layers[1:]):
        pairs = _two_parents(rng, shape.width)
        links.append([(lower[a], v) for v, pair in zip(upper, pairs) for a in pair])
    links.append([(u, t) for t in sinks for u in rng.sample(layers[-1], FAN_IN)])

    nodes = sources + [v for layer in layers for v in layer]
    edges = []

    def add_edge(tail, head):
        edges.append({"id": f"e{len(edges) + 1}", "tail": tail, "head": head,
                      "cap": "1"})

    for gap, gap_links in enumerate(links):
        between_layers = 0 < gap < len(links) - 1
        chained = set(rng.sample(range(len(gap_links)), shape.chains)) \
            if between_layers else set()
        for k, (tail, head) in enumerate(gap_links):
            path = [tail, head]
            if k in chained:
                relays = [f"c{len(nodes) + j}" for j in range(CHAIN_HOPS - 1)]
                nodes += relays
                path = [tail] + relays + [head]
            for a, b in zip(path, path[1:]):
                add_edge(a, b)
    nodes += sinks

    assert len(edges) == shape.edge_count()
    return {
        "nodes": nodes,
        "edges": edges,
        "sources": [{"index": i, "at": s} for i, s in enumerate(sources, 1)],
        "sinks": [{"at": t, "demands": [i]} for i, t in enumerate(sinks, 1)],
    }


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
