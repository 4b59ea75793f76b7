"""Colored directed graphs for crystal components, plus DOT emission.

Edges point along lowering operators (``f``); colors are the operator
indices.  Builders do a breadth-first closure under both raising and
lowering maps, so a component is complete regardless of the seed's
position in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

__all__ = ["ColoredDigraph", "build_component", "EDGE_PALETTE"]

EDGE_PALETTE = {1: "blue", 2: "red", 3: "green", 4: "purple", 5: "orange"}


@dataclass
class ColoredDigraph:
    """Nodes with weights and colored edges ``u --color--> v``."""

    colors: tuple[int, ...]
    weights: dict[Hashable, tuple[int, ...]] = field(default_factory=dict)
    edges: set[tuple[Hashable, int, Hashable]] = field(default_factory=set)

    @property
    def nodes(self) -> set[Hashable]:
        return set(self.weights)

    def _adjacency(self) -> dict[Hashable, list[Hashable]]:
        adj: dict[Hashable, list[Hashable]] = {u: [] for u in self.weights}
        for a, _, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def components(self) -> list[set[Hashable]]:
        adj = self._adjacency()
        seen: set[Hashable] = set()
        out = []
        for u in self.weights:
            if u in seen:
                continue
            comp = {u}
            stack = [u]
            seen.add(u)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            out.append(comp)
        return out

    def sinks(self, comp: Iterable[Hashable]) -> list[Hashable]:
        comp = set(comp)
        with_out = {a for a, _, _ in self.edges if a in comp}
        return sorted((u for u in comp if u not in with_out), key=str)

    def to_dot(self, label: Callable[[Hashable], str] = str, name: str = "crystal") -> str:
        ids = {u: f"n{k}" for k, u in enumerate(sorted(self.weights, key=str))}
        lines = [f"digraph {name} {{", "  rankdir=TB;", '  node [shape=plaintext];']
        for u, nid in ids.items():
            lines.append(f'  {nid} [label="{label(u)}"];')
        for a, c, b in sorted(self.edges, key=lambda e: (str(e[0]), e[1], str(e[2]))):
            color = EDGE_PALETTE.get(c, "black")
            lines.append(f'  {ids[a]} -> {ids[b]} [label="{c}", color="{color}"];')
        lines.append("}")
        return "\n".join(lines)


def build_component(
    seeds: Iterable[Hashable],
    colors: Sequence[int],
    lower: Callable[[Hashable, int], Hashable | None],
    raise_: Callable[[Hashable, int], Hashable | None],
    weight: Callable[[Hashable], tuple[int, ...]],
) -> ColoredDigraph:
    """Closure of the seed set under raising and lowering operators."""
    g = ColoredDigraph(tuple(colors))
    frontier = []
    for s in seeds:
        if s not in g.weights:
            g.weights[s] = weight(s)
            frontier.append(s)
    while frontier:
        u = frontier.pop()
        for c in colors:
            v = lower(u, c)
            if v is not None:
                g.edges.add((u, c, v))
                if v not in g.weights:
                    g.weights[v] = weight(v)
                    frontier.append(v)
            p = raise_(u, c)
            if p is not None:
                g.edges.add((p, c, u))
                if p not in g.weights:
                    g.weights[p] = weight(p)
                    frontier.append(p)
    return g
