import pytest

from heckecrystals import tableaux
from heckecrystals.errors import ValidationError
from heckecrystals.factorization import DecreasingFactorization, HeckeBiword, to_biword
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.insertion import InsertionResult, star_insert
from heckecrystals.residue import res, res_inv
from heckecrystals.tableaux import (
    FlaggedIncreasingTableau,
    SemistandardTableau,
    SkewSetValuedTableau,
    SkewShape,
    Tableau,
    excess_of,
    from_cells,
    svt_fillings,
    weight_of,
)
from heckecrystals.uncrowding import _star_tilde, star_tilde, t_mu, uncrowd, uncrowd_step
from heckecrystals.verification import Bounds, skew_shapes

# the SMALL bounds of uncrowding-compat in tests/test_verification.py
SMALL = Bounds(m=3, max_cells=3, max_rows=3, max_cols=3, max_excess=2)

BIG = SkewSetValuedTableau(
    SkewShape((6, 3, 3, 1), ()),
    (((1,), (1,), (1,), (1, 2), (2, 3, 4), (5,)),
     ((2,), (2, 3), (3,)),
     ((4,), (4,), (5,)),
     ((5,),)))


def test_uncrowd_step_worked_example():
    out, added, source = uncrowd_step(BIG)
    assert added == (5, 1) and source == 2
    assert out.rows == (
        ((1,), (1,), (1,), (1, 2), (2, 3, 4), (5,)),
        ((2,), (2,), (3,)),
        ((3,), (4,), (5,)),
        ((4,),),
        ((5,),))


def test_uncrowd_step_single_cell():
    t = SkewSetValuedTableau(SkewShape((1,), ()), (((1, 2),),))
    out, added, source = uncrowd_step(t)
    assert out.rows == (((1,),), ((2,),))
    assert added == (2, 1) and source == 1


def test_uncrowd_step_decrements_excess():
    cur = BIG
    while True:
        try:
            nxt, _, _ = uncrowd_step(cur)
        except ValidationError:
            break
        assert excess_of(nxt) == excess_of(cur) - 1
        cur = nxt


def test_uncrowd_step_requires_multicell():
    t = SkewSetValuedTableau(SkewShape((1,), ()), (((1,),),))
    with pytest.raises(ValidationError):
        uncrowd_step(t)


def test_uncrowd_worked_example():
    p, q = uncrowd(BIG)
    assert p.rows == ((1, 1, 1, 1, 2, 5), (2, 2, 2, 3), (3, 3, 4), (4, 4), (5, 5))
    assert q.shape == SkewShape((6, 4, 3, 2, 2), (6, 3, 3, 1))
    assert q.rows == ((), (1,), (), (3,), (3, 4))
    assert weight_of(p) == weight_of(BIG)
    assert isinstance(q, FlaggedIncreasingTableau)


def test_uncrowd_of_multicell_free_tableau():
    t = SkewSetValuedTableau(SkewShape((2, 1), ()), (((1,), (2,)), ((2,),)))
    p, q = uncrowd(t)
    assert p.rows == ((1, 2), (2,))
    assert q.shape.size() == 0


def test_minimal_filling():
    assert t_mu((2, 1)).rows == ((1, 1), (2,))
    assert t_mu(()).rows == ()


def test_star_tilde_equals_plain_insertion_for_straight_class():
    from heckecrystals.factorization import to_biword
    from heckecrystals.insertion import star_insert

    t = SkewSetValuedTableau(SkewShape((2,), ()), (((1,), (1, 2)),))
    g = res(t, 2)  # canonical preimage is straight
    assert star_tilde(g).q == star_insert(to_biword(g)).q


def test_star_tilde_on_skew_example():
    t = SkewSetValuedTableau(SkewShape((2, 2), (1,)), (((1, 2),), ((2, 3), (3,))))
    result = star_tilde(res(t, 3))
    p_tilde, _ = uncrowd(t)
    assert result.q == p_tilde
    assert result.q.shape == SkewShape((2, 2, 2), (1,))
    assert result.p.shape == result.q.shape


def test_star_tilde_sink_gives_lowest_weight_recording():
    """At a sink, the normalized recording tableau is the unique
    lowest-weight semistandard tableau of the sorted weight."""
    from heckecrystals.star_crystal import f_star
    from heckecrystals.verification import Bounds, fc_factorizations

    checked = 0
    for f in fc_factorizations(Bounds(n=4, m=3, max_letters=5)):
        if any(f_star(f, i) is not None for i in (1, 2)):
            continue
        result = star_tilde(f)
        if result.q.shape.inner:
            continue
        from heckecrystals.svt_crystal import f_classical
        from heckecrystals.tableaux import weight_of

        assert all(f_classical(result.q, i) is None for i in range(1, f.m))
        wt = weight_of(result.q) + (0,) * (f.m - len(weight_of(result.q)))
        assert all(wt[i] <= wt[i + 1] for i in range(len(wt) - 1))
        checked += 1
    assert checked > 10


def test_uncrowd_builds_only_its_results(monkeypatch):
    built = []
    validate = tableaux._Filling.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        validate(self)

    monkeypatch.setattr(tableaux._Filling, "__post_init__", counting)
    uncrowd(BIG)
    assert built == ["SemistandardTableau", "FlaggedIncreasingTableau"]


def test_star_tilde_builds_only_its_results(monkeypatch):
    h = pf("(8431)(863)(8654)(941)")
    canonical = res_inv(h)
    assert canonical.shape.inner == (4, 4, 1, 1)
    built = []
    validate = tableaux._Filling.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        validate(self)

    monkeypatch.setattr(tableaux._Filling, "__post_init__", counting)
    _star_tilde(h, canonical)
    assert built == ["SemistandardTableau", "Tableau"]


def _uncrowd_by_steps(t):
    """Full uncrowding as repeated validated steps."""
    recording, cur = {}, t
    while any(len(c) > 1 for _, _, c in cur.cells()):
        cur, added, source = uncrowd_step(cur)
        recording[added] = added[0] - source
    p = SemistandardTableau(cur.shape, tuple(tuple(c[0] for c in row) for row in cur.rows))
    q_shape = SkewShape(cur.shape.outer, t.shape.outer)
    return p, from_cells(q_shape, recording, FlaggedIncreasingTableau)


def test_uncrowd_is_iterated_uncrowd_step():
    checked = 0
    for shape in skew_shapes(SMALL):
        for t in svt_fillings(shape, SMALL.m, max_excess=SMALL.max_excess):
            p, q = uncrowd(t)
            p2, q2 = _uncrowd_by_steps(t)
            assert (type(p), type(q), p, q) == (type(p2), type(q2), p2, q2), t.rows
            checked += 1
    assert checked == 2394


def _star_tilde_by_product(f):
    """The padded insertion as star insertion of the product biword ``f . g``,
    where ``g`` is the residue of the minimal filling of the inner shape ``mu``
    of ``res_inv(f)`` in its ambient diagram, its blocks labelled ``1..len(mu)``
    below those of ``f``; both tableaux are then cut to the skew shape cell by
    cell."""
    canonical = res_inv(f)
    mu, rows = canonical.shape.inner, canonical.shape.rows
    if not mu:
        return star_insert(to_biword(f))
    lm = len(mu)
    blocks = tuple(tuple(range(rows - k + mu[k - 1], rows - k, -1)) for k in range(lm, 0, -1))
    g = DecreasingFactorization(blocks, max(c for blk in blocks for c in blk) + 1)
    bf, bg = to_biword(f), to_biword(g)
    result = star_insert(HeckeBiword(tuple(k + lm for k in bf.top) + bg.top,
                                     bf.bottom + bg.bottom, max(f.n, g.n), f.m + lm))
    assert all(result.q.cell(i, j) == i for i in range(1, lm + 1) for j in range(1, mu[i - 1] + 1))
    skew = SkewShape(result.p.shape.outer, mu)
    q = from_cells(skew, {(i, j): v - lm for i, j, v in result.q.cells() if (i, j) in skew},
                   SemistandardTableau)
    p = from_cells(skew, {(i, j): v for i, j, v in result.p.cells() if (i, j) in skew}, Tableau)
    return InsertionResult(p, q)


def test_star_tilde_is_the_product_biword_insertion():
    seen = set()
    skewed = 0
    for shape in skew_shapes(SMALL):
        for t in svt_fillings(shape, SMALL.m, max_excess=SMALL.max_excess):
            h = res(t, SMALL.m)
            if h.factors in seen:
                continue
            seen.add(h.factors)
            got, want = star_tilde(h), _star_tilde_by_product(h)
            assert got == want, h
            assert (type(got.p), type(got.q)) == (type(want.p), type(want.q)), h
            skewed += bool(got.q.shape.inner)
    assert (len(seen), skewed) == (1375, 1288)


def test_row_core_gives_the_cells_of_p_and_q():
    """``_uncrowded`` returns P's outer shape, P's flat cells as singletons and
    Q's cells in Q's flat order, which ``uncrowd`` builds into P and Q."""
    from heckecrystals.uncrowding import _uncrowded

    checked = 0
    for shape in skew_shapes(SMALL):
        for t in svt_fillings(shape, SMALL.m, max_excess=SMALL.max_excess):
            outer, p_flat, recording = _uncrowded(shape, t.flat())
            p, q = uncrowd(t)
            assert (outer, p.shape.inner, q.shape.inner) == (p.shape.outer, shape.inner,
                                                             shape.outer)
            assert p_flat == tuple((v,) for v in p.flat())
            assert recording == tuple(((i, j), v) for i, j, v in q.cells())
            checked += 1
    assert checked == 2394
