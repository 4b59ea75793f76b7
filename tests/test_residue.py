import pytest

from heckecrystals.errors import DomainError, ReconstructionError
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.residue import res, res_inv, res_inv_shaped
from heckecrystals.tableaux import SkewSetValuedTableau, SkewShape, weight_of
from heckecrystals.verification import Bounds, skew_shapes, svt_fillings

T_EXAMPLE = SkewSetValuedTableau(SkewShape((2, 2), (1,)), (((1, 2),), ((2, 3), (3,))))


def test_residue_of_skew_example():
    assert res(T_EXAMPLE, 3) == pf("(21)(31)(3)")


def test_residue_of_minimal_filling():
    from heckecrystals.uncrowding import t_mu

    assert res(t_mu((2,)).as_set_valued(), 1) == pf("(21)")


def test_residue_of_empty_tableau():
    t = SkewSetValuedTableau(SkewShape((), ()), ())
    assert res(t, 3) == pf("()()()", n=1)


def test_inverse_picks_fewest_rows():
    t = res_inv(pf("(61)(752)(75)(762)"))
    assert t.shape == SkewShape((4, 4, 1, 1), (2, 2))
    assert t.rows == (((1,), (1, 2, 3)), ((2, 3), (4,)), ((1, 3),), ((4,),))


def test_inverse_with_prescribed_shape():
    t = res_inv_shaped(pf("(61)(752)(75)(762)"), SkewShape((3, 3, 1, 1, 1), (1, 1, 1)))
    assert t.rows == (((1,), (1, 2, 3)), ((2, 3), (4,)), (), ((1, 3),), ((4,),))


def test_inverse_with_prescribed_shape_second_example():
    t = res_inv_shaped(pf("(8431)(863)(8654)(941)"),
                       SkewShape((5, 5, 4, 3, 1), (4, 4, 1, 1)))
    assert t.rows == (((1,),), ((2, 3, 4),), ((1, 2), (2,), (2, 3)),
                      ((3, 4), (4,)), ((1, 4),))
    assert res(t, 4) == pf("(8431)(863)(8654)(941)")
    assert res_inv(pf("(8431)(863)(8654)(941)")) == t  # the published shape is canonical


def test_inverse_rejects_inconsistent_shape():
    with pytest.raises(ReconstructionError):
        res_inv_shaped(pf("(61)(752)(75)(762)"), SkewShape((4, 4, 1, 1), (2, 1)))


def test_inverse_of_empty():
    t = res_inv(pf("()()()", n=1))
    assert t.shape == SkewShape((), ())


def test_inverse_rejects_braided_factorization():
    with pytest.raises(DomainError):
        res_inv(pf("(21)(21)", n=3))  # word 2121 evaluates to the longest element


def test_round_trip_on_canonical_example():
    f = res(T_EXAMPLE, 3)
    assert res_inv(f) == T_EXAMPLE  # the example is already canonical


def test_round_trips_exhaustively():
    bounds = Bounds(m=3, max_cells=3, max_rows=3, max_cols=3)
    seen = set()
    for shape in skew_shapes(bounds):
        for t in svt_fillings(shape, 3):
            f = res(t, 3)
            assert weight_of(t) == tuple(len(f.factor(k)) for k in range(1, 4))[:len(weight_of(t))]
            if f.factors in seen:
                continue
            seen.add(f.factors)
            back = res_inv(f)
            assert res(back, 3).factors == f.factors
            shaped = res_inv_shaped(f, back.shape)
            assert shaped == back


def test_inverse_is_least_preimage():
    """Against every preimage in the box: ``res_inv`` uses the fewest rows,
    and when it fits in the box it is the least by rows, then inner shape."""
    bounds = Bounds(m=3, max_cells=3, max_rows=3, max_cols=3)
    preimages: dict[tuple, list] = {}
    for shape in skew_shapes(bounds):
        for t in svt_fillings(shape, 3):
            preimages.setdefault(res(t, 3).factors, []).append(t)
    assert len(preimages) == 1642
    in_box = 0
    for ts in preimages.values():
        got = res_inv(res(ts[0], 3))
        assert got.shape.rows <= min(t.shape.rows for t in ts)
        if got.shape.rows <= 3 and got.shape.outer[0] <= 3:
            in_box += 1
            assert got == min(ts, key=lambda t: (t.shape.rows, t.shape.inner,
                                                 t.shape.outer, t.rows))
    assert in_box == 1150
