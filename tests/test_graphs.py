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


def test_witnesses_name_nodes_through_show():
    """A conflict message, an audit witness and a cyclic string name a node through the
    graph's ``show``, so nodes can be plain keys that a witness renders as their objects."""
    lower = {"a": "b", "c": "b"}
    g = build_component(["a", "c"], (1,), lambda u, c: (lower.get(u), None),
                        lambda u: (1, 0), show=str.upper)
    assert g.node == ["a", "c", "b"] and g.name(2) == "B"
    assert g.conflicts == ["two 1-edges into B"]
    report = stembridge_audit(g)
    assert report.failures[0] == "two 1-edges into B"
    assert "component of A has 2 highest weights" in report.failures
    assert not any(f" {u} " in msg or msg.endswith(f" {u}") for msg in report.failures
                   for u in "abc")
    other = {"a": "b", "b": "a"}
    g = build_component(["a"], (1,), lambda u, c: (other[u], other[u]), lambda u: (1, 1),
                        show=lambda u: f"<{u}>")
    with pytest.raises(ValidationError, match="color 1 string through <a> cycles"):
        stembridge_audit(g)


def test_audit_witnesses_each_local_fault():
    """The star component of ``()(2)(1)(32)`` (20 nodes, 30 edges) audits clean.  Every
    single-edge deletion breaks its string lengths and an adjacent delta, 20 of them a
    distant colour and a commutation, and 8 a braid relation; one deletion's report, which
    has all five kinds, is pinned whole.  Raising the seed's first weight entry by one
    breaks its string lengths and moves the weight of each of its edges incorrectly."""
    from collections import Counter

    from heckecrystals.formats import parse_factorization as pf
    from heckecrystals.star_crystal import crystal_graph

    g = crystal_graph(pf("()(2)(1)(32)"))
    assert (len(g.node), len(g.edges), stembridge_audit(g).failures) == (20, 30, [])
    kinds = ("string lengths at ", "adjacent ", "distant colors ", " fail to commute at ",
             " braid relation fails at ")
    fired, reports = Counter(), {}
    for c in g.colors:
        for u, v in enumerate(g.out[c]):
            if v >= 0:
                g.out[c][u] = g.inn[c][v] = -1
                reports[g.name(u), c] = failures = stembridge_audit(g).failures
                g.out[c][u], g.inn[c][v] = v, u
                fired.update(k for k in kinds if any(k in msg for msg in failures))
    assert len(reports) == 30 and fired == dict(zip(kinds, (30, 30, 20, 20, 8)))
    assert reports["(2)()(1)(32)", 1] == [
        "string lengths at (2)()(1)(32) color 1 disagree with weight",
        "string lengths at (2)()(31)(2) color 1 disagree with weight",
        "adjacent raise deltas at (2)(1)()(32) colors 2,1: (-2, 0)",
        "adjacent raise deltas at (2)(3)(1)(2) colors 2,1: (0, 0)",
        "adjacent lower deltas at (2)()(1)(32) colors 2,1: (2, 0)",
        "adjacent lower deltas at (2)()(31)(2) colors 2,1: (0, 0)",
        "distant colors 3,1 interact at (2)()(1)(32)",
        "distant colors 3,1 interact at (2)()(31)(2)",
        "distant colors 3,1 interact at ()(2)(1)(32)",
        "distant colors 3,1 interact at ()(2)(31)(2)",
        "raising braid relation fails at (2)(31)(2)() (1,2)",
        "lowering 1,3 fail to commute at ()(2)(1)(32)"]
    w = g.wt[0]
    g.wt[0] = (w[0] + 1, *w[1:])
    assert stembridge_audit(g).failures == [
        "string lengths at ()(2)(1)(32) color 1 disagree with weight",
        "edge ()(2)(1)(32) -1-> ()(2)(31)(2) moves weight incorrectly",
        "edge ()(2)(1)(32) -2-> ()(21)()(32) moves weight incorrectly",
        "edge ()()(21)(32) -2-> ()(2)(1)(32) moves weight incorrectly",
        "edge ()(2)(1)(32) -3-> (2)()(1)(32) moves weight incorrectly"]
