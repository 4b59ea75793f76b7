import pytest
from hypothesis import given, strategies as st

from heckecrystals.errors import ValidationError
from heckecrystals.hecke import (
    HeckeElement,
    HeckeWord,
    all_elements,
    demazure_apply,
    equivalent,
    eval_word,
    fully_commutative_elements,
    identity,
    is_fully_commutative,
)


def word(text, n=None):
    letters = tuple(int(c) for c in text)
    return HeckeWord(letters, n or max(letters, default=0) + 1)


def test_demazure_ascent_from_identity():
    assert demazure_apply(identity(3), 1).perm == (2, 1, 3)


def test_demazure_is_idempotent():
    s1 = demazure_apply(identity(3), 1)
    assert demazure_apply(s1, 1) == s1


def test_demazure_closure_of_s3():
    # brute-force closure: 1*2*1 reaches the longest element
    e = identity(3)
    for a in (1, 2, 1):
        e = demazure_apply(e, a)
    assert e.perm == (3, 2, 1)
    assert len(all_elements(3)) == 6


def test_eval_braid_relation():
    assert eval_word(word("121")) == eval_word(word("212"))


def test_eval_empty_word_is_identity():
    assert eval_word(HeckeWord((), 4)) == identity(4)


def test_eval_idempotent_relation():
    assert eval_word(word("11", n=3)) == eval_word(word("1", n=3))


def test_commutation_relation():
    assert eval_word(word("13")) == eval_word(word("31"))


def test_fully_commutative_12132_is_not():
    assert not is_fully_commutative(eval_word(word("12132")))


def test_identity_fully_commutative():
    assert is_fully_commutative(identity(4))


@pytest.mark.parametrize("n, count", [(3, 5), (4, 14), (5, 42)])
def test_fully_commutative_catalan_counts(n, count):
    assert len(fully_commutative_elements(n)) == count


def test_equivalent_words():
    assert equivalent(word("13242"), word("31242"))
    assert not equivalent(word("1", n=3), word("2", n=3))
    assert equivalent(word("2132"), word("2312"))


def test_equivalent_rejects_mixed_bounds():
    with pytest.raises(ValidationError):
        equivalent(HeckeWord((1,), 3), HeckeWord((1,), 4))


def test_letter_out_of_range():
    with pytest.raises(ValidationError):
        HeckeWord((3,), 3)
    with pytest.raises(ValidationError):
        demazure_apply(identity(3), 3)


def _single_rewrites(letters):
    """Words one 0-Hecke relation away from ``letters``."""
    out = []
    for i in range(len(letters) - 1):
        p, q = letters[i], letters[i + 1]
        if abs(p - q) > 1:
            out.append(letters[:i] + (q, p) + letters[i + 2:])
        if p == q:
            out.append(letters[:i] + (p,) + letters[i + 2:])
    for i in range(len(letters) - 2):
        p, q, r = letters[i:i + 3]
        if p == r:
            out.append(letters[:i] + (q, p, q) + letters[i + 3:])
    for i in range(len(letters)):
        out.append(letters[:i] + (letters[i], letters[i]) + letters[i:])
    return out


@given(st.lists(st.integers(1, 3), max_size=7))
def test_eval_respects_relations(letters):
    w = HeckeWord(tuple(letters), 4)
    e = eval_word(w)
    for other in _single_rewrites(tuple(letters)):
        assert eval_word(HeckeWord(other, 4)) == e


@given(st.lists(st.integers(1, 3), max_size=5), st.lists(st.integers(1, 3), max_size=3))
def test_equivalence_is_a_congruence(letters, suffix):
    a = tuple(letters)
    for b in _single_rewrites(a):
        left = eval_word(HeckeWord(a + tuple(suffix), 4))
        right = eval_word(HeckeWord(b + tuple(suffix), 4))
        assert left == right
        left = eval_word(HeckeWord(tuple(suffix) + a, 4))
        right = eval_word(HeckeWord(tuple(suffix) + b, 4))
        assert left == right


def _reduced_words(e: HeckeElement):
    if e.length() == 0:
        yield ()
        return
    p = e.perm
    for i in range(1, e.n):
        if p[i - 1] > p[i]:  # descent: e = e' * s_i with shorter e'
            q = list(p)
            q[i - 1], q[i] = q[i], q[i - 1]
            for rest in _reduced_words(HeckeElement(tuple(q))):
                yield rest + (i,)


def _braid_free(e: HeckeElement) -> bool:
    for w in _reduced_words(e):
        for i in range(len(w) - 2):
            a, b, c = w[i:i + 3]
            if a == c and abs(a - b) == 1:
                return False
    return True


@pytest.mark.parametrize("n", range(1, 8))
def test_pattern_test_agrees_with_brute_force_321_search(n):
    for e in all_elements(n):
        p = e.perm
        has_321 = any(p[i] > p[j] > p[k]
                      for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))
        assert is_fully_commutative(e) == (not has_321)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pattern_test_agrees_with_braid_subword_oracle(n):
    for e in all_elements(n):
        assert is_fully_commutative(e) == _braid_free(e)


def test_reduced_word_length_vs_eval():
    w = word("2212", n=4)
    assert eval_word(w).length() == 3
    assert eval_word(word("2132")).length() == 4
