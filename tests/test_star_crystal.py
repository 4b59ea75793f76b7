import pytest

from heckecrystals.errors import DomainError
from heckecrystals.factorization import excess, weight
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.graphs import build_component
from heckecrystals.grothendieck import schur_dict
from heckecrystals.star_crystal import (
    crystal_graph,
    e_star,
    epsilon,
    f_star,
    pairing,
    phi,
)
from heckecrystals.verification import Bounds, fc_factorizations


EXAMPLE = pf("(7532)(621)(6)")


def test_pairing_of_worked_example():
    p = pairing(EXAMPLE, 1)
    assert p.pairs == ((6, 6),)
    assert p.unpaired_upper == (1, 2)
    assert p.unpaired_lower == ()


def test_pairing_empty_upper_block():
    f = pf("()(21)", n=3)
    p = pairing(f, 1)
    assert p.pairs == ()
    assert p.unpaired_lower == (2, 1)


def test_pairing_allows_equal_partner():
    f = pf("(2)(2)", n=3)
    assert pairing(f, 1).pairs == ((2, 2),)


def test_lowering_annihilates_on_color_one():
    assert f_star(EXAMPLE, 1) is None


def test_lowering_on_color_two():
    assert f_star(EXAMPLE, 2) == pf("(75321)(61)(6)")


def test_raising_on_both_colors():
    assert e_star(EXAMPLE, 1) == pf("(7532)(62)(61)")
    assert e_star(EXAMPLE, 2) == pf("(753)(6321)(6)")


def test_lowering_example_with_neighbor_case():
    # the donated letter dissolves in the lower block
    assert f_star(pf("(31)(3)(32)"), 1) == pf("(31)(32)(2)")


def test_partial_inverse_laws():
    for f in fc_factorizations(Bounds(n=4, m=3, max_letters=4)):
        for i in (1, 2):
            g = f_star(f, i)
            if g is not None:
                assert e_star(g, i) == f
            h = e_star(f, i)
            if h is not None:
                assert f_star(h, i) == f


def test_string_statistics():
    assert phi(EXAMPLE, 1) == 0
    assert phi(EXAMPLE, 2) == 1
    assert epsilon(EXAMPLE, 2) == 2
    empty = pf("()()()", n=3)
    assert phi(empty, 1) == epsilon(empty, 1) == 0


def test_statistics_match_operator_iteration():
    for f in fc_factorizations(Bounds(n=4, m=3, max_letters=4)):
        for i in (1, 2):
            k, cur = 0, f
            while (nxt := f_star(cur, i)) is not None:
                cur, k = nxt, k + 1
            assert k == phi(f, i)
            k, cur = 0, f
            while (nxt := e_star(cur, i)) is not None:
                cur, k = nxt, k + 1
            assert k == epsilon(f, i)
            assert phi(f, i) - epsilon(f, i) == weight(f)[i - 1] - weight(f)[i]


def test_operators_preserve_class_excess_and_exchange_weight():
    for f in fc_factorizations(Bounds(n=4, m=3, max_letters=5)):
        for i in (1, 2):
            g = f_star(f, i)
            if g is None:
                continue
            assert g.eval() == f.eval()
            assert excess(g) == excess(f)
            wf, wg = weight(f), weight(g)
            assert wg[i - 1] == wf[i - 1] - 1 and wg[i] == wf[i] + 1
            assert all(wg[k] == wf[k] for k in range(f.m) if k not in (i - 1, i))
            assert g.factors[: f.m - i - 1] == f.factors[: f.m - i - 1]
            assert g.factors[f.m - i + 1:] == f.factors[f.m - i + 1:]


def test_operators_reject_braided_input():
    bad = pf("()(21)(32)(32)")  # evaluates to a 321-containing permutation
    with pytest.raises(DomainError):
        f_star(bad, 1)
    with pytest.raises(DomainError):
        crystal_graph(bad)


def _walk_to_sink(f):
    moved = True
    while moved:
        moved = False
        for i in range(1, f.m):
            nxt = f_star(f, i)
            if nxt is not None:
                f = nxt
                moved = True
    return f


def test_component_character_is_schur_of_sink_weight():
    seed = pf("()(2)(1)(32)")  # a surplus-one factorization of a 321-avoiding element
    from heckecrystals.hecke import is_fully_commutative

    assert is_fully_commutative(seed.eval())
    g = crystal_graph(seed)
    for comp in g.components():
        sink, = (g.node[k] for k in g.sinks(comp))
        mu = tuple(sorted((v for v in weight(sink) if v), reverse=True))
        char = {}
        for node in (g.node[k] for k in comp):
            char[weight(node)] = char.get(weight(node), 0) + 1
        assert char == schur_dict(mu, seed.m)


def test_component_isomorphic_to_tableau_crystal():
    """The component of a sink matches the classical crystal of the
    sorted weight, node-for-node under the recording map."""
    from heckecrystals.factorization import to_biword
    from heckecrystals.insertion import star_insert
    from heckecrystals.svt_crystal import e_classical, f_classical

    seed = _walk_to_sink(pf("()(2)(1)(32)"))
    assert all(f_star(seed, i) is None for i in (1, 2, 3))
    g = crystal_graph(seed)
    assert len(g.nodes) > 1
    for a, c, b in g.edges:
        qa = star_insert(to_biword(a)).q
        qb = star_insert(to_biword(b)).q
        assert f_classical(qa, c) == qb
        assert e_classical(qb, c) == qa
