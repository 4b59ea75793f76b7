import itertools
import sys
import tracemalloc

import pytest

from heckecrystals.errors import ValidationError
from heckecrystals.factorization import (
    DecreasingFactorization,
    HeckeBiword,
    enumerate_factorizations,
    excess,
    from_biword,
    to_biword,
    weight,
)
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.hecke import (HeckeWord, all_elements, demazure_apply, eval_word,
                                 fully_commutative_elements, identity)


def test_weight_of_worked_example():
    assert weight(pf("(7532)(621)(6)")) == (1, 3, 4)


def test_weight_all_empty():
    assert weight(pf("()()()", n=3)) == (0, 0, 0)


def test_weight_two_blocks():
    assert weight(pf("(21)(41)")) == (2, 2)


def test_excess_examples():
    assert excess(pf("(21)(41)")) == 1
    assert excess(pf("(2)(21)(2)", n=3)) == 1
    assert excess(pf("(31)(2)")) == 0  # flattening is reduced


def test_factor_indexing_follows_superscripts():
    f = pf("(7532)(621)(6)")
    assert f.factor(3) == (7, 5, 3, 2)
    assert f.factor(1) == (6,)


def test_blocks_must_strictly_decrease():
    with pytest.raises(ValidationError):
        DecreasingFactorization(((1, 1),), 3)
    with pytest.raises(ValidationError):
        DecreasingFactorization(((1, 2),), 3)


def test_biword_worked_example():
    b = to_biword(pf("(1)(2)(31)()(32)"))
    assert b.top == (5, 4, 3, 3, 1, 1)
    assert b.bottom == (1, 2, 3, 1, 3, 2)


def test_biword_round_trip():
    f = pf("(21)(41)")
    b = to_biword(f)
    assert b.top == (2, 2, 1, 1)
    assert b.bottom == (2, 1, 4, 1)
    assert from_biword(b, f.m) == f


def test_biword_round_trip_with_empty_leading_block():
    f = pf("()(21)(32)(32)")
    assert from_biword(to_biword(f), f.m) == f


def test_empty_biword():
    f = pf("()", n=2)
    b = to_biword(f)
    assert len(b) == 0
    assert from_biword(b, 1) == f


def test_biword_validation():
    with pytest.raises(ValidationError):
        HeckeBiword((1, 2), (3, 2), 5)   # top not weakly decreasing
    with pytest.raises(ValidationError):
        HeckeBiword((2, 2), (2, 2), 5)   # bottom not strictly decreasing in a block


def test_enumerate_identity_only_empty():
    found = list(enumerate_factorizations(identity(3), 3, 0))
    assert found == [DecreasingFactorization(((), (), ()), 3)]


def test_enumerate_single_letter():
    w = eval_word(HeckeWord((1,), 2))
    found = {str(f) for f in enumerate_factorizations(w, 2, 1)}
    assert found == {"(1)()", "()(1)", "(1)(1)"}


def test_enumerate_weight_222_factorizations_of_12132():
    w = eval_word(HeckeWord((1, 2, 1, 3, 2), 4))
    found = {
        str(f)
        for f in enumerate_factorizations(w, 4, 1)
        if weight(f) == (2, 2, 2, 0)
    }
    assert found == {"()(21)(21)(32)", "()(21)(32)(32)"}


def test_one_large_letter_enumerates_in_little_memory():
    """The blocks are grown per prefix, not drawn from all 2^15 subsets of
    the letters of S_17."""
    w = eval_word(HeckeWord((1, 16), 17))
    tracemalloc.start()
    try:
        found = [str(f) for f in enumerate_factorizations(w, 2, 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == ["()(16 1)", "(16)(16 1)", "(16)(1)", "(16 1)()", "(16 1)(16)",
                     "(16 1)(1)", "(1)(16)", "(1)(16 1)"]
    assert peak < 1 << 20


def test_weak_order_prune_bounds_the_prefixes_visited():
    """The per-prefix block builder runs once per prefix the search visits:
    356 times on the word 1357246 with m=3 and max_excess=1, and 14,329
    times if blocks that leave the weak order interval below w are kept."""
    w = eval_word(HeckeWord((1, 3, 5, 7, 2, 4, 6), 8))
    visits = 0

    def profile(frame, event, arg):
        nonlocal visits
        if event == "call" and frame.f_code.co_name == "moves":
            visits += 1

    sys.setprofile(profile)
    try:
        found = list(enumerate_factorizations(w, 3, 1))
    finally:
        sys.setprofile(None)
    assert len(found) == 276
    assert 0 < visits <= 2 * 356


def _decreasing_blocks(n):
    """The blocks over 1..n-1 in descending letters, each prefix before its extensions."""
    letters = tuple(range(n - 1, 0, -1))
    out = []
    for r in range(len(letters) + 1):
        out.extend(itertools.combinations(letters, r))
    return sorted(out, key=lambda b: [-a for a in b])


@pytest.mark.parametrize("m", [2, 3])
def test_reduced_enumeration_matches_brute_force(m):
    """max_excess=0 agrees with an independent brute-force oracle."""
    n = 4
    blocks = _decreasing_blocks(n)
    for w in fully_commutative_elements(n):
        if w.length() > 5:
            continue
        expected = set()
        for combo in itertools.product(blocks, repeat=m):
            if sum(len(b) for b in combo) != w.length():
                continue
            flat = tuple(a for b in combo for a in b)
            if eval_word(HeckeWord(flat, n)) == w:
                expected.add(combo)
        got = {f.factors for f in enumerate_factorizations(w, m, 0)}
        assert got == expected


def test_enumerate_no_duplicates_and_excess_bound():
    w = eval_word(HeckeWord((2, 1, 3, 2), 4))
    found = list(enumerate_factorizations(w, 3, 2))
    assert len({f.factors for f in found}) == len(found)
    assert all(excess(f) <= 2 and f.eval() == w for f in found)


@pytest.mark.parametrize("n, m", [pytest.param(4, 3, id="4"), pytest.param(5, 3, id="5"),
                                  pytest.param(4, 4, id="4-4")])
def test_enumeration_order_matches_brute_force_filter(n, m):
    """Every element of S_n, excess <= 2: the enumeration yields exactly
    the m-tuples of blocks that evaluate to w within the letter budget, in
    the order of a product over the blocks in descending letters."""
    by_element = {}
    for combo in itertools.product(_decreasing_blocks(n), repeat=m):
        flat = tuple(a for b in combo for a in b)
        by_element.setdefault(eval_word(HeckeWord(flat, n)), []).append((combo, len(flat)))
    for w in all_elements(n):
        for max_excess in range(3):
            expected = [combo for combo, letters in by_element.get(w, [])
                        if letters <= w.length() + max_excess]
            got = [f.factors for f in enumerate_factorizations(w, m, max_excess)]
            assert got == expected


def test_enumeration_decides_full_commutativity_once_per_element(monkeypatch):
    """Every factorization of one call carries the fully-commutative flag of ``w``,
    decided by one test per call, so reading it evaluates nothing."""
    from heckecrystals import factorization
    from heckecrystals.hecke import is_fully_commutative

    calls = []
    monkeypatch.setattr(factorization, "is_fully_commutative",
                        lambda e: calls.append(e) or is_fully_commutative(e))
    seen = 0
    for w in all_elements(4):
        found = list(enumerate_factorizations(w, 3, 1))
        assert calls == [w]
        calls.clear()
        for f in found:
            assert "_fully_commutative" in vars(f)
            assert f.fully_commutative == is_fully_commutative(f.eval())
        seen += len(found)
    assert calls == [] and seen > 0


@pytest.mark.parametrize("elements", [
    pytest.param(lambda: all_elements(5), id="S5"),
    pytest.param(lambda: [identity(1), identity(2), identity(5)], id="identity"),
])
def test_enumerated_factorizations_and_their_biwords_are_valid(elements):
    """The enumerator and ``to_biword`` build without validating; each object equals
    its rebuild through the validating constructor, and the kept flag is the element's."""
    from heckecrystals.hecke import is_fully_commutative

    seen = 0
    for w in elements():
        for m in range(1, 5):
            for max_excess in range(3):
                for f in enumerate_factorizations(w, m, max_excess):
                    assert f == DecreasingFactorization(f.factors, f.n)
                    assert f.fully_commutative == is_fully_commutative(f.eval())
                    b = to_biword(f)
                    assert b == HeckeBiword(b.top, b.bottom, b.n, b.m)
                    seen += 1
    assert seen > 0


def _inversions(e):
    """The value pairs ``(y, x)``, ``y > x``, with ``y`` before ``x`` in ``e``."""
    p = e.perm
    return {(p[i], p[j]) for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j]}


@pytest.mark.parametrize("n", [4, 5])
def test_demazure_reachability_is_inversion_containment(n):
    """The weak-order criterion the enumeration prunes by: ``w`` is reached
    from ``e`` by Demazure steps exactly when every inversion of ``e`` is
    an inversion of ``w``."""
    elements = all_elements(n)
    inversions = {e: _inversions(e) for e in elements}
    for e in elements:
        reached, queue = {e}, [e]
        while queue:
            e2 = queue.pop(0)
            for i in range(1, n):
                e3 = demazure_apply(e2, i)
                if e3 not in reached:
                    reached.add(e3)
                    queue.append(e3)
        for w in elements:
            assert (w in reached) == (inversions[e] <= inversions[w])
