import pytest

from heckecrystals.errors import DomainError, ReconstructionError, ValidationError
from heckecrystals.factorization import to_biword
from heckecrystals.formats import parse_biword, parse_factorization as pf
from heckecrystals.hecke import HeckeWord
from heckecrystals.insertion import (
    hecke_insert,
    micro_class,
    micro_equivalent,
    micro_moves,
    reverse_bump,
    star_insert,
    star_insert_one,
    star_insert_word,
    star_inverse,
)
from heckecrystals.tableaux import RowIncreasingTableau, SkewShape


def test_hecke_insertion_worked_example():
    result = hecke_insert(to_biword(pf("(1)(2)(31)()(32)")))
    assert result.p.rows == ((1, 2), (2, 3), (3,))
    assert result.q.rows == (((1,), (1, 3)), ((3,), (4,)), ((5,),))


def test_hecke_insertion_empty():
    result = hecke_insert(to_biword(pf("()", n=2)))
    assert result.p.rows == ()
    assert result.q.rows == ()


def test_hecke_recording_can_repeat_labels():
    result = hecke_insert(to_biword(pf("(21)(41)")))
    assert result.p.rows == ((1, 2), (4,))
    assert result.q.rows == (((1,), (1,)), ((2, 2),))


def test_star_insertion_worked_example():
    b = parse_biword("4 4 2 2 1 1 / 4 2 4 2 3 1")
    result = star_insert(b)
    assert result.p.rows == ((1, 2, 4), (1, 4), (3,))
    assert result.q.rows == ((1, 1, 2), (2, 4), (4,))


def test_star_insertion_single_letter():
    result = star_insert(to_biword(pf("()(3)", n=4)))
    assert result.p.rows == ((3,),)
    assert result.q.rows == ((1,),)


def test_star_insertion_rejects_braided_biword():
    with pytest.raises(DomainError):
        star_insert(parse_biword("2 1 1 / 1 2 1"))


def test_run_bump_case():
    p = RowIncreasingTableau(SkewShape((3,), ()), ((1, 2, 4),))
    p2, path = star_insert_one(p, 2)
    assert p2.rows == ((1, 2, 4), (1,))  # row unchanged, run start bumped
    assert path == ((1, 2), (2, 1))


def test_insert_into_empty_tableau():
    p = RowIncreasingTableau(SkewShape((), ()), ())
    p2, path = star_insert_one(p, 5)
    assert p2.rows == ((5,),)
    assert path == ((1, 1),)


def test_insert_one_rejects_braids():
    p = RowIncreasingTableau(SkewShape((2,), ()), ((1, 2),))
    with pytest.raises(DomainError):
        star_insert_one(p, 1)  # word 1 2 1 has a braid


def test_reverse_bump_worked_example():
    u = RowIncreasingTableau(
        SkewShape((3, 3, 2, 1, 1), ()),
        ((1, 2, 4), (2, 3, 5), (2, 5), (2,), (5,)))
    t, letter = reverse_bump(u, (5, 1))
    assert letter == 2
    assert t.rows == ((1, 3, 4), (2, 3, 5), (2, 5), (5,))
    redo, _ = star_insert_one(t, letter)
    assert redo == u


def test_reverse_bump_of_fresh_append():
    p = RowIncreasingTableau(SkewShape((2,), ()), ((1, 3),))
    t, letter = reverse_bump(p, (1, 2))
    assert letter == 3
    assert t.rows == ((1,),)


def test_reverse_bump_requires_a_corner():
    p = RowIncreasingTableau(SkewShape((2, 1), ()), ((1, 3), (2,)))
    with pytest.raises(ValidationError):
        reverse_bump(p, (1, 1))


def test_reverse_bump_round_trip_exhaustive():
    """Every small tableau and letter round-trips through one insertion."""
    from heckecrystals.hecke import eval_word, is_fully_commutative

    def small_tableaux():
        from heckecrystals.verification import Bounds, fc_factorizations

        seen = set()
        for f in fc_factorizations(Bounds(n=5, m=3, max_letters=5)):
            p = star_insert(to_biword(f)).p
            if p.rows not in seen and p.shape.size() <= 5:
                seen.add(p.rows)
                yield p

    for p in small_tableaux():
        for x in range(1, 5):
            try:
                p2, path = star_insert_one(p, x)
            except DomainError:
                continue
            if p2.shape == p.shape:
                continue  # insertion must grow the tableau by one cell
            corner = path[-1]
            back, letter = reverse_bump(p2, corner)
            assert (back, letter) == (p, x)


def test_star_inverse_of_worked_example():
    b = parse_biword("4 4 2 2 1 1 / 4 2 4 2 3 1")
    result = star_insert(b)
    back = star_inverse(result.p, result.q)
    assert (back.top, back.bottom) == (b.top, b.bottom)


def test_star_inverse_of_empty():
    from heckecrystals.tableaux import SemistandardTableau

    p = RowIncreasingTableau(SkewShape((), ()), ())
    q = SemistandardTableau(SkewShape((), ()), ())
    assert len(star_inverse(p, q)) == 0


def test_star_inverse_rejects_mismatched_shapes():
    from heckecrystals.tableaux import SemistandardTableau

    p = RowIncreasingTableau(SkewShape((2,), ()), ((1, 2),))
    q = SemistandardTableau(SkewShape((1,), ()), ((1,),))
    with pytest.raises(ValidationError):
        star_inverse(p, q)


def test_star_inverse_outside_image():
    from heckecrystals.tableaux import SemistandardTableau

    # a braided row word cannot come from the insertion
    p = RowIncreasingTableau(SkewShape((2, 1), ()), ((1, 2), (2,)))
    q = SemistandardTableau(SkewShape((2, 1), ()), ((1, 1), (2,)))
    with pytest.raises(ReconstructionError,
                       match="^row word of the insertion tableau has a braid$"):
        star_inverse(p, q)


@pytest.mark.parametrize("shape, p_rows, q_rows, q_cls, message", [
    # a semistandard Q always gives horizontal strips; a plain tableau need not
    (((2, 1), ()), ((1, 2), (1,)), ((1, 1), (1,)), "Tableau",
     "label 1 does not form a horizontal strip"),
    (((2, 1), ()), ((1, 2), (1,)), ((2, 1), (1,)), "Tableau",
     "label 2 cell (1,1) is not removable"),
    # the rows of P are peeled as a straight shape, so a skew cell never comes off
    (((2,), (1,)), ((1,),), ((1,),), "SemistandardTableau",
     "label 1 cell (1,2) is not removable"),
], ids=["strip", "corner", "skew"])
def test_star_inverse_reconstruction_errors(shape, p_rows, q_rows, q_cls, message):
    """The peel's ways of finding no preimage, by their messages (the braid is above)."""
    from heckecrystals import tableaux

    shape = SkewShape(*shape)
    p = RowIncreasingTableau(shape, p_rows)
    with pytest.raises(ReconstructionError) as err:
        star_inverse(p, getattr(tableaux, q_cls)(shape, q_rows))
    assert str(err.value) == message


@pytest.mark.parametrize("rows, q_shape, q_rows, message", [
    # star_inverse rejects this braided P first; the row core peels it
    ([[1, 2], [1, 2]], ((2, 2), ()), ((1, 1), (2, 2)),
     "label 2 block is not strictly decreasing"),
    ([[1, 2]], ((2,), (1,)), ((1,),), "letters remain after peeling the recording tableau"),
], ids=["block", "remain"])
def test_star_peel_reconstruction_errors(rows, q_shape, q_rows, message):
    """Two peel errors of the row core: a braided P, which ``star_inverse`` rejects
    before peeling, and rows with a cell that Q does not record."""
    from heckecrystals.insertion import star_peel
    from heckecrystals.tableaux import SemistandardTableau

    with pytest.raises(ReconstructionError) as err:
        star_peel(rows, SemistandardTableau(SkewShape(*q_shape), q_rows))
    assert str(err.value) == message


def test_star_peel_is_the_core_of_star_inverse():
    """On the worked example the row core returns the biword's two rows and
    empties the rows it is given."""
    from heckecrystals.insertion import star_peel

    b = parse_biword("4 4 2 2 1 1 / 4 2 4 2 3 1")
    result = star_insert(b)
    rows = [list(r) for r in result.p.rows]
    assert star_peel(rows, result.q) == (b.top, b.bottom)
    assert rows == []


def test_micro_class_of_13242():
    cls = micro_class((1, 3, 2, 4, 2))
    for other in [(3, 1, 2, 4, 2), (1, 3, 4, 2, 2), (1, 3, 2, 2, 4), (3, 1, 2, 2, 4)]:
        assert other in cls
    ps = {star_insert_word(u).p.rows for u in cls}
    assert ps == {((1, 2, 4), (1,), (3,))}


def test_micro_equivalent_api():
    a = HeckeWord((1, 3, 2, 4, 2), 5)
    assert micro_equivalent(a, HeckeWord((3, 1, 2, 4, 2), 5))
    assert micro_equivalent(a, a)
    assert not micro_equivalent(a, HeckeWord((1, 3, 2, 4, 3), 5))


def test_micro_equivalent_rejects_braids():
    with pytest.raises(DomainError):
        micro_equivalent(HeckeWord((1, 2, 1), 3), HeckeWord((2, 1, 2), 3))


def test_micro_moves_preserve_evaluation():
    from heckecrystals.hecke import eval_word

    for word in [(1, 3, 2, 4, 2), (2, 1, 3), (1, 2, 2), (2, 4, 3, 1)]:
        e = eval_word(HeckeWord(word, 5))
        for other in micro_moves(word):
            assert eval_word(HeckeWord(other, 5)) == e


def test_bumping_comparison_for_increasing_letters():
    """Inserting x < x' puts the second new cell strictly right and
    weakly below the first."""
    from heckecrystals.verification import Bounds, fc_factorizations
    from heckecrystals.hecke import eval_word, is_fully_commutative

    checked = 0
    for f in fc_factorizations(Bounds(n=5, m=2, max_letters=4)):
        p = star_insert(to_biword(f)).p
        word = tuple(v for row in reversed(p.rows) for v in row)
        for x in range(1, 5):
            for x2 in range(x + 1, 5):
                try:
                    p1, path1 = star_insert_one(p, x)
                    p2, path2 = star_insert_one(p1, x2)
                except DomainError:
                    continue
                r1, c1 = path1[-1]
                r2, c2 = path2[-1]
                assert c2 > c1 and r2 <= r1
                checked += 1
    assert checked > 50
