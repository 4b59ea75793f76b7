import itertools

import pytest

from heckecrystals.errors import ValidationError
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.local3 import (
    all_factorizations3,
    crystal_graph_local3,
    e3,
    epsilon3,
    f3,
    pairing3,
    phi3,
)
from heckecrystals.hecke import HeckeWord, eval_word

EX1 = pf("()(2)()(21)(1)(1)(2)(21)", n=3)
EX2 = pf("()(2)(2)(21)(2)(1)(21)(21)", n=3)


def test_pairing_prefix_counts_first_example():
    pc = pairing3(EX1)
    # pair counts of the blocks strictly before k, for k = 1..8
    assert pc.prefix[:8] == (0, 1, 1, 2, 2, 3, 3, 3)
    assert pc.prefix[8] == 3


def test_pairing_leaves_blocks_four_and_seven_unpaired():
    pc = pairing3(EX1)
    assert pc.unpaired == ((4, 1), (7, 2))
    assert ((3, 1), (2, 2)) in pc.pairs


@pytest.mark.xfail(strict=True, reason=(
    "stated pair counts 0,1,2,2,2,3,4,5 are incompatible with the pairing "
    "clauses: they require the single 2 of block 6 to act on an odd count "
    "and the adjacent 2/1 of blocks 4/3 not to pair on an even one, and any "
    "pairing with those choices breaks the locality of distant operators"))
def test_pairing_prefix_counts_second_example_as_stated():
    pc = pairing3(EX2)
    assert pc.prefix[:8] == (0, 1, 2, 2, 2, 3, 4, 5)
    assert pc.unpaired == ()


def test_pairing_second_example_actual_behavior():
    # regression pin for the literal clause semantics
    pc = pairing3(EX2)
    assert pc.prefix == (0, 1, 2, 2, 3, 4, 4, 4, 4)
    assert pc.unpaired == ((6, 2), (7, 2))


def test_pairing_of_all_empty():
    f = pf("()()()", n=3)
    assert pairing3(f).prefix == (0, 0, 0, 0)


def test_pairing_interval_identity():
    pc = pairing3(EX1)
    for j in range(1, 9):
        for k in range(j, 9):
            assert pc.count(j, k) == pc.prefix[k] - pc.prefix[j - 1]
    assert pc.count(5, 4) == 0


def test_pairing_rejects_large_letters():
    with pytest.raises(ValidationError):
        pairing3(pf("(31)", n=4))


FIG_EDGES = {
    ("()(21)(21)", 2, "(1)(2)(21)"),
    ("(1)(1)(21)", 1, "(1)(21)(2)"),
    ("(1)(2)(21)", 1, "(1)(21)(1)"),
    ("(1)(2)(21)", 2, "(21)()(21)"),
    ("(1)(21)(1)", 2, "(21)(2)(1)"),
    ("(1)(21)(2)", 2, "(21)(2)(2)"),
    ("(2)(1)(21)", 1, "(2)(21)(2)"),
    ("(2)(21)(2)", 2, "(21)(1)(2)"),
    ("(21)()(21)", 1, "(21)(2)(1)"),
    ("(21)(2)(1)", 1, "(21)(21)()"),
}


def test_four_letter_graph_matches_figure():
    w0 = eval_word(HeckeWord((1, 2, 1), 3))
    nodes = [f for f in all_factorizations3(3, 4)
             if f.num_letters() == 4 and f.eval() == w0]
    assert len(nodes) == 12
    edges = set()
    for f in nodes:
        for i in (1, 2):
            g = f3(f, i)
            if g is not None:
                edges.add((str(f), i, str(g)))
    assert edges == FIG_EDGES


def test_transition_chain_even():
    f = pf("(21)()(21)", n=3)  # prefix block (21) is below the acting pair
    assert f3(f, 1) == pf("(21)(2)(1)", n=3)
    assert f3(f3(f, 1), 1) == pf("(21)(21)()", n=3)


def test_transition_chain_odd():
    f = pf("()(21)(21)", n=3)
    assert f3(f, 2) == pf("(1)(2)(21)", n=3)
    assert f3(f3(f, 2), 2) == pf("(21)()(21)", n=3)


def test_partial_inverse():
    for f in all_factorizations3(3, 4):
        for i in (1, 2):
            g = f3(f, i)
            if g is not None:
                assert e3(g, i) == f
            h = e3(f, i)
            if h is not None:
                assert f3(h, i) == f


def test_string_lengths_by_iteration():
    f = pf("()(21)(21)", n=3)
    assert phi3(f, 2) == 2
    assert epsilon3(f, 2) == 0
    bottom = pf("(21)()(21)", n=3)
    assert phi3(bottom, 2) == 0
    assert epsilon3(bottom, 2) == 2


def test_graph_component_of_figure_seed():
    g = crystal_graph_local3(pf("(1)(21)(1)", n=3))
    labels = {str(u) for u in g.nodes}
    assert labels == {"()(21)(21)", "(1)(2)(21)", "(1)(21)(1)",
                      "(21)()(21)", "(21)(2)(1)", "(21)(21)()"}


@pytest.mark.parametrize("m, max_letters", [(3, 4), (4, 4), (5, 6)])
def test_all_factorizations3_is_the_filtered_product_of_blocks(m, max_letters):
    """Every product of the four blocks with at most ``max_letters``
    letters, each once."""
    blocks = ((), (1,), (2,), (2, 1))
    expected = {combo for combo in itertools.product(blocks, repeat=m)
                if sum(map(len, combo)) <= max_letters}
    got = [f.factors for f in all_factorizations3(m, max_letters)]
    assert len(got) == len(set(got))
    assert set(got) == expected
