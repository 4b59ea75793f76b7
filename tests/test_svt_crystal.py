import pytest

from heckecrystals.residue import res
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.svt_crystal import (
    e_svt,
    epsilon_svt,
    f_svt,
    phi_svt,
    signature,
)
from heckecrystals.tableaux import (
    SkewSetValuedTableau,
    SkewShape,
    excess_of,
    weight_of,
)
from heckecrystals.verification import Bounds, skew_shapes, svt_fillings

# straight shape (2,1): bottom row {1},{1,2,3}; top row {3}
T = SkewSetValuedTableau(SkewShape((2, 1), ()), (((1,), (1, 2, 3)), ((3,),)))


def test_signature_of_example():
    sig = signature(T, 1)
    assert sig.unpaired_minus == (1,)
    assert sig.unpaired_plus == ()


def test_signature_without_the_letters():
    sig = signature(T, 4)
    assert sig.unpaired_minus == sig.unpaired_plus == ()


def _reference_signature(t, i: int) -> tuple:
    """The unpaired minus and plus columns of the bracket rule on per-column
    letter sets, with the columns read off ``rows`` and the inner partition
    directly."""
    inner = t.shape.inner
    cols = [set() for _ in range(max(t.shape.outer, default=0))]
    for r, row in enumerate(t.rows):
        for k, cell in enumerate(row):
            j = (inner[r] if r < len(inner) else 0) + k + 1
            cols[j - 1].update(cell if isinstance(cell, tuple) else (cell,))
    signs = tuple("-" if i in c and i + 1 not in c else
                  "+" if i + 1 in c and i not in c else "" for c in cols)
    minus, plus = [], []
    for j, s in enumerate(signs, start=1):
        if s == "+":
            plus.append(j)
        elif s == "-":
            if plus:
                plus.pop()
            else:
                minus.append(j)
    return tuple(minus), tuple(plus)


def test_signature_agrees_with_per_column_sets():
    """Every set-valued filling (semistandard or not) with at most 3 cells
    and entries at most 3, and every semistandard tableau with at most 4
    cells and entries at most 4."""
    from itertools import combinations, product

    from heckecrystals.tableaux import SemistandardTableau, SetValuedFilling

    def check(t, m):
        for i in range(1, m + 1):
            sig = signature(t, i)
            assert (sig.unpaired_minus, sig.unpaired_plus) == \
                _reference_signature(t, i), (t.rows, i)

    subsets = [s for r in (1, 2, 3) for s in combinations((1, 2, 3), r)]
    fillings = 0
    for shape in skew_shapes(Bounds(max_cells=3, max_rows=3, max_cols=3)):
        lengths = [len(row) for row in shape.geometry.rows]
        for flat in product(subsets, repeat=shape.size()):
            rows, k = [], 0
            for n in lengths:
                rows.append(tuple(flat[k:k + n]))
                k += n
            check(SetValuedFilling(shape, tuple(rows)), 3)
            fillings += 1
    tableaux = 0
    for shape in skew_shapes(Bounds(max_cells=4, max_rows=4, max_cols=4)):
        for svt in svt_fillings(shape, 4, max_excess=0):
            check(SemistandardTableau(shape, tuple(tuple(c[0] for c in row)
                                                   for row in svt.rows)), 4)
            tableaux += 1
    assert fillings > 10_000 and tableaux > 10_000


def test_statistics_from_signature():
    assert phi_svt(T, 1) == 1
    assert epsilon_svt(T, 1) == 0


def test_lowering_with_neighbor_donation():
    out = f_svt(T, 1)
    assert out == SkewSetValuedTableau(
        SkewShape((2, 1), ()), (((1, 2), (2, 3)), ((3,),)))
    assert res(out, 3) == pf("(31)(32)(2)")
    assert res(T, 3) == pf("(31)(3)(32)")


def test_raising_annihilates_without_unpaired_plus():
    assert e_svt(T, 1) is None


def test_raising_inverts_lowering():
    lowered = f_svt(T, 1)
    assert e_svt(lowered, 1) == T


def test_null_when_no_unpaired_minus():
    t = SkewSetValuedTableau(SkewShape((1, 1), ()), (((1,),), ((2,),)))
    assert f_svt(t, 1) is None


def test_operators_preserve_shape_excess_and_validity():
    bounds = Bounds(m=3, max_cells=4, max_rows=3, max_cols=3)
    for shape in skew_shapes(bounds):
        for t in svt_fillings(shape, 3):
            for i in (1, 2):
                for op, delta in ((f_svt, -1), (e_svt, +1)):
                    out = op(t, i)
                    if out is None:
                        continue
                    assert type(out) is SkewSetValuedTableau  # re-validated
                    assert out.shape == t.shape
                    assert excess_of(out) == excess_of(t)
                    wt, wo = weight_of(t), weight_of(out)
                    pad = max(len(wt), len(wo), i + 1)
                    wt = wt + (0,) * (pad - len(wt))
                    wo = wo + (0,) * (pad - len(wo))
                    assert wo[i - 1] - wt[i - 1] == delta
                    assert wo[i] - wt[i] == -delta


def test_classical_restriction_on_singletons():
    from heckecrystals.svt_crystal import f_classical
    from heckecrystals.tableaux import SemistandardTableau

    t = SemistandardTableau(SkewShape((2,), ()), ((1, 1),))
    out = f_classical(t, 1)
    assert out.rows == ((1, 2),)
    out2 = f_classical(out, 1)
    assert out2.rows == ((2, 2),)
    assert f_classical(out2, 1) is None


def test_classical_operators_are_the_restriction_of_the_svt_operators():
    """On every semistandard tableau of at most 4 cells with entries at
    most 4, the classical operators equal the set-valued ones applied to
    the all-singleton filling, read back as a single-valued tableau."""
    from heckecrystals.svt_crystal import e_classical, f_classical
    from heckecrystals.tableaux import SemistandardTableau

    def reference(op, t, i):
        out = op(t.as_set_valued(), i)
        if out is None:
            return None
        return SemistandardTableau(out.shape, tuple(tuple(c[0] for c in row) for row in out.rows))

    m, checked = 4, 0
    for shape in skew_shapes(Bounds(m=m, max_cells=4, max_rows=4, max_cols=4)):
        for svt in svt_fillings(shape, m, max_excess=0):
            t = SemistandardTableau(shape, tuple(tuple(c[0] for c in row) for row in svt.rows))
            for i in range(1, m):
                assert f_classical(t, i) == reference(f_svt, t, i)
                assert e_classical(t, i) == reference(e_svt, t, i)
                checked += 1
    assert checked > 10_000
