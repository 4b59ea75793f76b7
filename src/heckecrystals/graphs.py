"""Colored directed graphs for crystal components, plus DOT emission.

Edges point along lowering operators (``f``); colors are the operator
indices.  Each node is stored once, interned to an id ``0, 1, ...`` in the
order it was added; per color, ``out[c][u]`` is the id of the ``f_c``-image
of node ``u`` and ``inn[c][u]`` the id of its ``e_c``-image, -1 where there
is none.  Builders take the closure under one step that returns both
images, so a component is complete regardless of the seed's position in
it, and fill both maps as each edge is added.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

__all__ = ["ColoredDigraph", "build_component", "EDGE_PALETTE"]

EDGE_PALETTE = {1: "blue", 2: "red", 3: "green", 4: "purple", 5: "orange"}


class ColoredDigraph:
    """Nodes with weights and colored edges ``u --color--> v``, over node ids.

    ``node[u]`` and ``wt[u]`` are the node and weight of id ``u``, ``index``
    maps a node to its id.  A second, different edge out of or into a node
    is kept out of the maps and recorded in ``conflicts``."""

    def __init__(self, colors: Sequence[int]) -> None:
        self.colors = tuple(colors)
        self.node: list[Hashable] = []
        self.index: dict[Hashable, int] = {}
        self.wt: list[tuple[int, ...]] = []
        self.out: dict[int, list[int]] = {c: [] for c in self.colors}
        self.inn: dict[int, list[int]] = {c: [] for c in self.colors}
        self.conflicts: list[str] = []

    def _add(self, u: Hashable, w: tuple[int, ...]) -> int:
        k = self.index[u] = len(self.node)
        self.node.append(u)
        self.wt.append(w)
        for c in self.colors:
            self.out[c].append(-1)
            self.inn[c].append(-1)
        return k

    def _link(self, a: int, c: int, b: int) -> None:
        out, inn = self.out[c], self.inn[c]
        if out[a] < 0:
            out[a] = b
        elif out[a] != b:
            self.conflicts.append(f"two {c}-edges out of {self.node[a]}")
        if inn[b] < 0:
            inn[b] = a
        elif inn[b] != a:
            self.conflicts.append(f"two {c}-edges into {self.node[b]}")

    @property
    def weights(self) -> dict[Hashable, tuple[int, ...]]:
        return dict(zip(self.node, self.wt))

    @property
    def nodes(self) -> set[Hashable]:
        return set(self.node)

    @property
    def edges(self) -> set[tuple[Hashable, int, Hashable]]:
        node = self.node
        return {(node[a], c, node[b]) for c, out in self.out.items()
                for a, b in enumerate(out) if b >= 0}

    def components(self) -> list[list[int]]:
        """The ids of each connected component, the lowest id first."""
        steps = [*self.out.values(), *self.inn.values()]
        seen = [False] * len(self.node)
        comps = []
        for root in range(len(self.node)):
            if seen[root]:
                continue
            seen[root] = True
            comp = [root]
            for x in comp:
                for step in steps:
                    y = step[x]
                    if y >= 0 and not seen[y]:
                        seen[y] = True
                        comp.append(y)
            comps.append(comp)
        return comps

    def sinks(self, comp: Iterable[int]) -> list[int]:
        """The ids in ``comp`` with no outgoing edge."""
        outs = list(self.out.values())
        return [u for u in comp if all(out[u] < 0 for out in outs)]

    def to_dot(self, label: Callable[[Hashable], str] = str, name: str = "crystal") -> str:
        ids = {u: f"n{k}" for k, u in enumerate(sorted(self.node, key=str))}
        lines = [f"digraph {name} {{", "  rankdir=TB;", '  node [shape=plaintext];']
        for u, nid in ids.items():
            lines.append(f'  {nid} [label="{label(u)}"];')
        for a, c, b in sorted(self.edges, key=lambda e: (str(e[0]), e[1], str(e[2]))):
            color = EDGE_PALETTE.get(c, "black")
            lines.append(f'  {ids[a]} -> {ids[b]} [label="{c}", color="{color}"];')
        lines.append("}")
        return "\n".join(lines)


def build_component(seeds: Iterable[Hashable], colors: Sequence[int],
                    step: Callable[[Hashable, int], tuple[Hashable | None, Hashable | None]],
                    weight: Callable[[Hashable], tuple[int, ...]]) -> ColoredDigraph:
    """Closure of the seed set under ``step(u, c) -> (lowered, raised)``."""
    g = ColoredDigraph(colors)
    index, frontier = g.index, []

    def intern(u: Hashable) -> int:
        k = index.get(u)
        if k is None:
            k = g._add(u, weight(u))
            frontier.append(k)
        return k

    for s in seeds:
        intern(s)
    while frontier:
        k = frontier.pop()
        u = g.node[k]
        for c in g.colors:
            lowered, raised = step(u, c)
            if lowered is not None:
                g._link(k, c, intern(lowered))
            if raised is not None:
                g._link(intern(raised), c, k)
    return g
