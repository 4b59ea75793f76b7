import pytest

from heckecrystals.errors import ValidationError
from heckecrystals.tableaux import (
    FlaggedIncreasingTableau,
    IncreasingTableau,
    RowIncreasingTableau,
    SemistandardTableau,
    SetValuedFilling,
    SkewSetValuedTableau,
    SkewShape,
    Tableau,
    excess_of,
    row_word,
    svt_fillings,
    weight_of,
)
from heckecrystals.verification import Bounds, skew_shapes


def test_shape_containment_checked():
    with pytest.raises(ValidationError):
        SkewShape((2, 2), (3,))
    with pytest.raises(ValidationError):
        SkewShape((2, 3), ())


def test_shape_contents():
    sh = SkewShape((2, 2), (1,))
    assert sh.content(1, 2) == 3
    assert sh.content(2, 1) == 1
    assert sh.geometry.cells == ((1, 2), (2, 1), (2, 2))


def _naive_geometry(shape: SkewShape) -> dict:
    """The geometry of ``shape`` recomputed from its two partitions alone."""
    offsets = shape.inner + (0,) * (len(shape.outer) - len(shape.inner))
    rows = tuple(tuple((i, j) for j in range(offsets[i - 1] + 1, shape.outer[i - 1] + 1))
                 for i in range(1, len(shape.outer) + 1))
    cells = [c for row in rows for c in row]

    def at(c):
        return cells.index(c) if c in cells else -1

    return {"offsets": offsets, "rows": rows, "cells": tuple(cells),
            "index": {c: at(c) for c in cells},
            "right": tuple(at((i, j + 1)) for i, j in cells),
            "up": tuple(at((i + 1, j)) for i, j in cells),
            "columns": tuple(tuple(k for k, (_, j) in enumerate(cells) if j == col)
                             for col in range(1, max(shape.outer, default=0) + 1)),
            "hash": hash((shape.outer, shape.inner))}


def test_shared_geometry_matches_a_naive_recomputation():
    shapes = list(skew_shapes(Bounds(max_cells=6, max_rows=4, max_cols=4)))
    assert len(shapes) > 500
    for shape in shapes:
        naive = _naive_geometry(shape)
        geo = shape.geometry
        assert {name: getattr(geo, name) for name in naive} == naive, shape
        box = [(i, j) for i in range(6) for j in range(6)]
        assert [c for c in box if c in shape] == sorted(naive["cells"])
        twin = SkewShape(tuple(list(shape.outer)), tuple(list(shape.inner)))
        assert twin is not shape and twin == shape
        assert hash(twin) == hash(shape) == naive["hash"]
        assert twin.geometry is geo


def test_fillings_read_cells_through_the_geometry():
    t = SkewSetValuedTableau(SkewShape((3, 2), (1,)), (((1,), (1, 2)), ((2,), (3,))))
    assert list(t.cells()) == [(1, 2, (1,)), (1, 3, (1, 2)), (2, 1, (2,)), (2, 2, (3,))]
    assert t.flat() == ((1,), (1, 2), (2,), (3,))
    assert t.cell(2, 2) == (3,)
    with pytest.raises(ValidationError, match="outside shape"):
        t.cell(1, 1)
    twin = SkewSetValuedTableau(SkewShape((3, 2), (1,)), t.rows)
    assert twin == t and hash(twin) == hash(t) == hash((t.shape, t.rows))
    moved = t.with_cells({(1, 3): (2,), (2, 2): (3, 4)})
    assert moved.rows == (((1,), (2,)), ((2,), (3, 4)))
    assert type(moved) is SkewSetValuedTableau and t.rows[0][1] == (1, 2)
    with pytest.raises(ValidationError, match="column condition"):
        t.with_cells({(2, 2): (1,)})
    with pytest.raises(ValidationError, match="outside shape"):
        t.with_cells({(1, 1): (1,)})


def test_svt_example_is_valid():
    t = SkewSetValuedTableau(SkewShape((2, 2), (1,)), (((1, 2),), ((2, 3), (3,))))
    assert weight_of(t) == (1, 2, 2)
    assert excess_of(t) == 2


def test_row_condition_rejected():
    with pytest.raises(ValidationError):
        SkewSetValuedTableau(SkewShape((2,), ()), (((2, 3), (1,)),))


def test_column_condition_rejected():
    with pytest.raises(ValidationError):
        SkewSetValuedTableau(SkewShape((1, 1), ()), (((2,),), ((2,),)))


def test_duplicate_entries_rejected_for_svt_but_kept_for_fillings():
    with pytest.raises(ValidationError):
        SkewSetValuedTableau(SkewShape((1,), ()), (((2, 2),),))
    filling = SetValuedFilling(SkewShape((1,), ()), (((2, 2),),))
    assert filling.cell(1, 1) == (2, 2)


def test_row_increasing_rejects_weak_rows():
    with pytest.raises(ValidationError):
        RowIncreasingTableau(SkewShape((2, 2), ()), ((1, 1), (2, 2)))


# The CLI prints the first violation as ``error: <message>``.  Several cases
# break more than one condition, which pins the order the conditions are
# checked in: rows before columns for single-valued tableaux, the bottom row
# before the order for flagged ones, and cell by cell for set-valued ones.
@pytest.mark.parametrize("cls, outer, inner, rows, message", [
    (SemistandardTableau, (2, 2), (), ((1, 2), (1, 3)),
     "column 1 is not strictly increasing at row 1"),
    (SemistandardTableau, (2, 2), (), ((2, 1), (1, 3)),
     "row 1 decreases at column 1"),
    (RowIncreasingTableau, (2, 2), (), ((1, 1), (2, 2)),
     "row 1 is not strictly increasing at column 1"),
    (RowIncreasingTableau, (2, 2), (), ((2, 3), (1, 4)),
     "column 1 decreases at row 1"),
    (IncreasingTableau, (2, 2), (), ((1, 2), (1, 3)),
     "column 1 is not strictly increasing at row 1"),
    (IncreasingTableau, (2, 2), (), ((1, 2), (1, 1)),
     "row 2 is not strictly increasing at column 1"),
    (FlaggedIncreasingTableau, (2, 2), (2,), ((), (1, 2)),
     "entry 2 in row 2 exceeds the flag 1"),
    (FlaggedIncreasingTableau, (2,), (), ((2, 1),),
     "flagged tableau must have an empty bottom row"),
    (SkewSetValuedTableau, (1,), (), (((2, 2),),),
     "cell (1,1) repeats an entry: (2, 2)"),
    (SkewSetValuedTableau, (2,), (), (((2, 3), (1,)),),
     "row condition fails between (1,1) and (1,2): max(2, 3) > min(1,)"),
    (SkewSetValuedTableau, (1, 1), (), (((2,),), ((2,),)),
     "column condition fails between (1,1) and (2,1): max(2,) >= min(2,)"),
    (SkewSetValuedTableau, (2, 2), (), (((1,), (1,)), ((1,), (2,))),
     "column condition fails between (1,1) and (2,1): max(1,) >= min(1,)"),
])
def test_first_violation_message(cls, outer, inner, rows, message):
    with pytest.raises(ValidationError) as exc:
        cls(SkewShape(outer, inner), rows)
    assert str(exc.value) == message


def test_recording_filling_example_is_valid_svt():
    t = SkewSetValuedTableau(
        SkewShape((2, 2, 1), ()), (((1,), (1, 3)), ((3,), (4,)), ((5,),)))
    assert weight_of(t) == (2, 0, 2, 1, 1)


def test_weight_of_empty():
    t = SkewSetValuedTableau(SkewShape((), ()), ())
    assert weight_of(t) == ()
    assert excess_of(t) == 0


def test_row_word_reads_top_down():
    p = RowIncreasingTableau(SkewShape((3, 1, 1), ()), ((1, 2, 4), (1,), (3,)))
    assert row_word(p).letters == (3, 1, 1, 2, 4)
    single = RowIncreasingTableau(SkewShape((3,), ()), ((1, 3, 4),))
    assert row_word(single).letters == (1, 3, 4)


def _transpose(t: Tableau) -> Tableau:
    cols = t.shape.outer[0] if t.shape.outer else 0
    rows = []
    for j in range(1, cols + 1):
        rows.append(tuple(t.cell(i, j) for i in range(1, t.shape.rows + 1)
                          if (i, j) in t.shape))
    return Tableau(SkewShape(tuple(len(r) for r in rows), ()), tuple(rows))


def _ssyt(mu: tuple[int, ...], m: int) -> list[SemistandardTableau]:
    """The semistandard tableaux of the straight shape ``mu`` with entries at most ``m``."""
    shape = SkewShape(mu, ())
    return [SemistandardTableau(shape, tuple(tuple(c[0] for c in row) for row in t.rows))
            for t in svt_fillings(shape, m, max_excess=0)]


@pytest.mark.parametrize("mu", [(2, 1), (2, 2), (3, 1), (1, 1, 1)])
def test_transpose_of_semistandard_is_row_increasing(mu):
    for t in _ssyt(mu, 3):
        tt = _transpose(t)
        RowIncreasingTableau(tt.shape, tt.rows)  # validates
        back = _transpose(tt)
        assert back.rows == t.rows


def test_minimal_filling_is_unique_with_its_weight():
    from heckecrystals.uncrowding import t_mu

    for mu in [(1,), (2,), (2, 1), (3, 2, 1), (2, 2, 2)]:
        matches = [t.rows for t in _ssyt(mu, len(mu)) if weight_of(t) == mu]
        assert matches == [t_mu(mu).rows]


def test_excess_nonnegative_and_zero_iff_singletons():
    shape = SkewShape((2, 1), ())
    for t in svt_fillings(shape, 3):
        e = excess_of(t)
        assert e >= 0
        assert (e == 0) == all(len(c) == 1 for _, _, c in t.cells())
