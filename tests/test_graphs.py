"""The interned crystal graphs against a naive recomputation, the one-bracket
steps against the separate operators, and the audit's edge-level faults."""

import pytest

from heckecrystals.errors import ValidationError
from heckecrystals.factorization import weight
from heckecrystals.graphs import build_component
from heckecrystals.local3 import all_factorizations3, e3, f3, step3
from heckecrystals.star_crystal import e_star, f_star, star_step
from heckecrystals.svt_crystal import e_svt, f_svt, svt_step
from heckecrystals.tableaux import weight_of
from heckecrystals.verification import (Bounds, fc_factorizations, skew_shapes,
                                        stembridge_audit, svt_fillings)


def _naive(seeds, colors, lower, raise_, wt):
    """Nodes, edges and components from ``lower``/``raise_`` applied to every node."""
    nodes, frontier = set(seeds), list(seeds)
    while frontier:
        u = frontier.pop()
        for c in colors:
            for v in (lower(u, c), raise_(u, c)):
                if v is not None and v not in nodes:
                    nodes.add(v)
                    frontier.append(v)
    edges = {(u, c, lower(u, c)) for u in nodes for c in colors if lower(u, c) is not None}
    edges |= {(raise_(u, c), c, u) for u in nodes for c in colors if raise_(u, c) is not None}
    root = {u: u for u in nodes}

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for a, _, b in edges:
        root[find(a)] = find(b)
    comps: dict = {}
    for u in nodes:
        comps.setdefault(find(u), set()).add(u)
    return {u: wt(u) for u in nodes}, edges, {frozenset(c) for c in comps.values()}


def _graph_cases():
    yield pytest.param(list(fc_factorizations(Bounds(n=4, m=3))), (1, 2), f_star, e_star,
                       weight, id="star")
    for shape in skew_shapes(Bounds(m=3, max_cells=4, max_rows=2, max_cols=2)):
        yield pytest.param(list(svt_fillings(shape, 3)), (1, 2), f_svt, e_svt,
                           lambda t: weight_of(t, 3), id=f"svt {shape}")
    yield pytest.param(all_factorizations3(4, 4), (1, 2, 3), f3, e3, weight, id="local3")


@pytest.mark.parametrize("seeds, colors, lower, raise_, wt", _graph_cases())
def test_graph_matches_naive_recomputation(seeds, colors, lower, raise_, wt):
    g = build_component(seeds, colors, lambda u, c: (lower(u, c), raise_(u, c)), wt)
    weights, edges, comps = _naive(seeds, colors, lower, raise_, wt)
    assert len(g.edges) > 0 and not g.conflicts
    assert g.weights == weights
    assert g.edges == edges
    assert {frozenset(g.node[k] for k in comp) for comp in g.components()} == comps
    assert sorted(k for comp in g.components() for k in comp) == list(range(len(g.node)))


def _step_cases():
    fillings = [t for shape in skew_shapes(Bounds(m=3, max_cells=3, max_rows=3, max_cols=3))
                for t in svt_fillings(shape, 3)]
    yield pytest.param(fillings, (1, 2), svt_step, f_svt, e_svt, 1000, id="svt")
    yield pytest.param(list(fc_factorizations(Bounds(n=4, m=3))), (1, 2), star_step, f_star,
                       e_star, 100, id="star")
    yield pytest.param(all_factorizations3(4, 4), (1, 2, 3), step3, f3, e3, 300, id="local3")


@pytest.mark.parametrize("nodes, colors, step, lower, raise_, at_least", _step_cases())
def test_step_is_both_operators(nodes, colors, step, lower, raise_, at_least):
    pairs = [(u, c) for u in nodes for c in colors]
    assert len(pairs) > at_least
    for u, c in pairs:
        assert step(u, c) == (lower(u, c), raise_(u, c))


def test_wrong_preimage_is_flagged_on_insertion():
    seeds = list(fc_factorizations(Bounds(n=4, m=3)))
    u = next(f for f in seeds
             if e_star(f, 1) is not None and e_star(e_star(f, 1), 1) is not None)
    wrong = e_star(e_star(u, 1), 1)     # lowers to e_star(u, 1), not to u

    def step(x, c):
        lowered, raised = star_step(x, c)
        return lowered, wrong if (x, c) == (u, 1) else raised

    g = build_component(seeds, (1, 2), step, weight)
    assert f"two 1-edges into {u}" in g.conflicts
    assert f"two 1-edges out of {wrong}" in g.conflicts
    report = stembridge_audit(g)
    assert f"two 1-edges into {u}" in report.failures
    assert not report.ok


def test_cyclic_string_raises():
    other = {"a": "b", "b": "a"}
    g = build_component(["a"], (1,), lambda u, c: (other[u], other[u]), lambda u: (1, 1))
    assert (g.out, g.inn) == ({1: [1, 0]}, {1: [1, 0]})
    with pytest.raises(ValidationError, match="color 1 string through a cycles"):
        stembridge_audit(g)
