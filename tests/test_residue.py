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


def test_flat_residue_reads_the_diagonal_label_of_each_cell():
    """``res`` runs on flat cells over the geometry's labels; each letter ``k`` of
    the cell ``(i, j)`` puts the label ``rows + j - i`` into block ``k``."""
    from heckecrystals.residue import _res_flat

    checked = 0
    for shape in skew_shapes(Bounds(m=3, max_cells=3, max_rows=3, max_cols=3)):
        for t in svt_fillings(shape, 3):
            blocks = [[] for _ in range(3)]
            for i, j, cell in t.cells():
                for k in cell:
                    blocks[k - 1].append(shape.rows + j - i)
            expected = tuple(tuple(sorted(b, reverse=True)) for b in reversed(blocks))
            f = _res_flat(shape.geometry, t.flat(), 3)
            assert f.factors == expected and f == res(t, 3)
            checked += 1
    assert checked == 2_749


def _fill_with_round_trip(f, outer, inner, cells):
    """``residue._fill`` as it was when it confirmed each preimage by running :func:`res`
    on it a second time: the reference for the size test that replaced that round trip."""
    from heckecrystals.errors import ValidationError
    from heckecrystals.tableaux import from_cells

    try:
        t = from_cells(SkewShape(outer, inner), cells)
    except ValidationError as exc:
        raise ReconstructionError(f"no skew filling realizes {f}: {exc}") from exc
    if res(t, f.m).factors != f.factors:
        raise ReconstructionError(f"cannot place the letters of {f} within shape {t.shape}")
    return t


def test_fill_agrees_with_the_round_trip_reference(monkeypatch):
    """On the residues of the fillings of the 3x3 box with excess at most 1, against each
    shape of the box that has an anchor for every run and no more cells on a label than
    the residue's heap, ``res_inv_shaped`` gives the reference's tableau or raises its
    message.  The filter keeps every pair with a preimage or that reaches the "cannot
    place" test: a dropped pair lacks an anchor, so fails before ``_fill``, or has a cell
    that no letter reaches, so fails in ``from_cells``, the same code in both."""
    from collections import Counter

    from heckecrystals import residue
    from heckecrystals.residue import _res_flat, _runs
    from heckecrystals.tableaux import _svt_flats

    def outcome(fill, *args):
        try:
            return fill(*args)
        except ReconstructionError as exc:
            return str(exc)

    def both(*args):
        got = outcome(real, *args)
        assert got == outcome(_fill_with_round_trip, *args)
        seen[type(got).__name__ if isinstance(got, SkewSetValuedTableau) else got[:9]] += 1
        if isinstance(got, str):
            raise ReconstructionError(got)
        return got

    shapes = [(s, Counter(s.geometry.labels))
              for s in skew_shapes(Bounds(m=3, max_cells=3, max_rows=3, max_cols=3))]
    residues = {}
    for s, _ in shapes:
        for flat in _svt_flats(s, 3, 1):
            f = _res_flat(s.geometry, flat, 3)
            residues.setdefault(f.factors, f)
    real, seen = residue._fill, Counter()
    monkeypatch.setattr(residue, "_fill", both)
    for f in residues.values():
        runs = _runs(f)
        heap = Counter(c for run in runs for _, c in run)
        anchors = {min(run)[1] for run in runs}
        for s, labels in shapes:
            if anchors <= labels.keys() and all(heap[c] >= k for c, k in labels.items()):
                try:
                    res_inv_shaped(f, s)
                except ReconstructionError:
                    pass
    assert seen == {"cannot pl": 3_020, "SkewSetValuedTableau": 1_662, "no skew f": 1_969}


def _runs_by_links(f):
    """``residue._runs`` as it was when it linked each new cell to the latest cells on
    its label and both neighbours and read the rows off each linked component: the
    reference for the construction that replaced the link graph."""
    labels, letters, links, top = [], [], [], {}
    for k in range(f.m, 0, -1):
        for c in f.factor(k):
            latest = top.get(c, -1)
            if latest > top.get(c - 1, -1) and latest > top.get(c + 1, -1):
                letters[latest].append(k)
                continue
            new = len(labels)
            labels.append(c)
            letters.append([k])
            links.append([])
            for label, up in ((c + 1, 0), (c - 1, 1), (c, 1)):
                if label in top:
                    links[new].append((top[label], up))
                    links[top[label]].append((new, -up))
            top[c] = new
    row = [None] * len(labels)
    runs = []
    for first in range(len(labels)):
        if row[first] is not None:
            continue
        row[first] = 0
        run, todo = [first], [first]
        while todo:
            u = todo.pop()
            for v, up in links[u]:
                if row[v] is None:
                    row[v] = row[u] + up
                    run.append(v)
                    todo.append(v)
        low = min(row[u] for u in run)
        runs.append({(row[u] - low, labels[u]): tuple(reversed(letters[u])) for u in run})
    runs.sort(key=lambda run: -max(c for _, c in run))
    return runs


def test_runs_agree_with_the_link_graph_reference():
    """``_runs`` gives the reference's runs, in the same order, on every distinct residue
    of the fillings of the 4x4 box with at most 4 cells, m = 3 and excess at most 2, and
    on every factorization of the fully-commutative elements of S_5 with m <= 4 blocks
    and excess at most 2."""
    from heckecrystals.factorization import enumerate_factorizations
    from heckecrystals.hecke import fully_commutative_elements
    from heckecrystals.residue import _res_flat, _runs
    from heckecrystals.tableaux import _svt_flats

    residues = {}
    for s in skew_shapes(Bounds(m=3, max_cells=4, max_rows=4, max_cols=4)):
        for flat in _svt_flats(s, 3, 2):
            f = _res_flat(s.geometry, flat, 3)
            residues.setdefault(f.factors, f)
    factorizations = [f for w in fully_commutative_elements(5) for m in range(1, 5)
                      for f in enumerate_factorizations(w, m, 2)]
    for f in [*residues.values(), *factorizations]:
        assert _runs(f) == _runs_by_links(f), f
    assert (len(residues), len(factorizations)) == (21_277, 7_252)
