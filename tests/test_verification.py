from collections import Counter
from contextlib import nullcontext

import pytest

from heckecrystals import mutations
from heckecrystals.errors import ValidationError
from heckecrystals.graphs import build_component
from heckecrystals.formats import parse_factorization as pf
from heckecrystals.star_crystal import star_step
from heckecrystals.factorization import weight
from heckecrystals.verification import (
    Bounds,
    available_checks,
    check_theorem,
    default_bounds,
    stembridge_audit,
)

SMALL = {
    "residue-intertwining": Bounds(m=3, max_cells=3, max_rows=3, max_cols=3),
    "hecke-recording": Bounds(m=2, max_cells=4, max_rows=3, max_cols=3),
    "star-bijection": Bounds(n=4, m=3, max_letters=4),
    "insertion-invariance": Bounds(n=4, max_letters=5),
    "operator-rewrites": Bounds(n=4, m=3, max_letters=5),
    "recording-intertwining": Bounds(n=4, m=3, max_letters=4),
    "uncrowding-compat": Bounds(m=3, max_cells=3, max_rows=3, max_cols=3, max_excess=2),
    "uncrowding-intertwining": Bounds(m=3, max_cells=3, max_rows=3, max_cols=3,
                                      max_excess=2),
    "sink-rows": Bounds(n=4, m=3, max_letters=4),
    "pairing-side-conditions": Bounds(n=4, m=3, max_letters=5),
    "stembridge-star": Bounds(n=4, m=3, max_letters=4),
    "stembridge-svt": Bounds(m=3, max_cells=4, max_rows=3, max_cols=3),
    "stembridge-local3": Bounds(m=4, max_letters=4),
    "local3-consistency": Bounds(m=4, max_letters=4),
    "dual-pipeline": Bounds(n=3, m=3, max_beta=2),
    "grassmannian-match": Bounds(m=2, max_cells=3, max_rows=2, max_cols=3),
}


def test_every_check_is_covered_here():
    assert set(SMALL) == set(available_checks())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_passes_at_small_bounds(name):
    report = check_theorem(name, SMALL[name])
    assert report.ok, report.failures[:3]
    assert report.instances > 0
    assert report.elapsed < 60


def test_unknown_check_rejected():
    with pytest.raises(ValidationError):
        check_theorem("no-such-check")
    with pytest.raises(ValidationError):
        default_bounds("no-such-check")


def test_deep_profile_differs():
    deeper = {name for name in available_checks()
              if default_bounds(name, deep=True) != default_bounds(name)}
    assert deeper == {"residue-intertwining", "star-bijection", "stembridge-svt",
                      "uncrowding-compat"}


def test_reports_are_order_independent():
    a = check_theorem("dual-pipeline", SMALL["dual-pipeline"])
    b = check_theorem("dual-pipeline", SMALL["dual-pipeline"])
    assert (a.instances, a.failures) == (b.instances, b.failures)


def test_mutated_star_operator_is_caught():
    with mutations.mutation(mutations.FSTAR_NEIGHBOR_CASE_OFF):
        report = check_theorem("operator-rewrites", SMALL["operator-rewrites"])
    assert not report.ok


def test_witnesses_are_capped_at_fifty():
    with mutations.mutation(mutations.FSTAR_NEIGHBOR_CASE_OFF):
        report = check_theorem("residue-intertwining", SMALL["residue-intertwining"])
    assert report.instances == 1234
    assert len(report.failures) == 51
    assert all(w.startswith(("lower ", "raise ")) for w in report.failures[:50])
    assert report.failures[50] == "... further failures suppressed"


def test_raising_operator_becomes_one_exception_witness():
    with mutations.mutation(mutations.FSTAR_NEIGHBOR_CASE_OFF):
        report = check_theorem("recording-intertwining", SMALL["recording-intertwining"])
    assert report.instances == 57
    assert len(report.failures) == 1
    assert report.failures[0].startswith("exception: DomainError(")


def test_mutated_svt_operator_is_caught():
    with mutations.mutation(mutations.FSVT_EXCEPTION_OFF):
        report = check_theorem("residue-intertwining", SMALL["residue-intertwining"])
    assert not report.ok


def test_mutated_insertion_case_is_caught():
    with mutations.mutation(mutations.STAR_INSERT_RUN_CASE_OFF):
        report = check_theorem("star-bijection", SMALL["star-bijection"])
    assert not report.ok


def test_audit_passes_on_a_component():
    seed = pf("()(2)(1)(32)")
    g = build_component([seed], (1, 2, 3), star_step, weight)
    assert stembridge_audit(g).ok


def test_audit_on_single_node():
    g = build_component(["x"], (1,), lambda u, c: (None, None), lambda u: (1, 1))
    assert (g.node, g.wt, g.out, g.inn) == (["x"], [(1, 1)], {1: [-1]}, {1: [-1]})
    assert stembridge_audit(g).ok


def test_audit_flags_a_deleted_edge():
    seed = pf("()(2)(1)(32)")
    g = build_component([seed], (1, 2, 3), star_step, weight)
    a, c, b = sorted(g.edges, key=str)[0]
    g.out[c][g.index[a]] = g.inn[c][g.index[b]] = -1
    assert (a, c, b) not in g.edges
    report = stembridge_audit(g)
    assert not report.ok


def _counting(monkeypatch, modules, name):
    """Replace ``name`` in each of ``modules`` by one counting wrapper around
    the original function, and return the list of its arguments."""
    real = getattr(modules[0], name)
    calls = []

    def wrapper(x, *args, **kwargs):
        calls.append(x)
        return real(x, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


def _calls(monkeypatch, module, name):
    """Replace ``name`` in ``module`` by a wrapper that records the positional
    arguments of each call, and return the list of them."""
    real, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_uncrowding_intertwining_uncrowds_each_filling_once(monkeypatch):
    """The row core runs once on the flat cells of each filling, in enumeration
    order; each filling's P is built, so validated, and each shape's Q once per
    distinct recording: no uncrowd, and no filling built."""
    from heckecrystals import verification
    from heckecrystals.uncrowding import _uncrowded
    from heckecrystals.verification import skew_shapes, svt_fillings

    b = SMALL["uncrowding-intertwining"]
    fillings = [(shape, t.flat()) for shape in skew_shapes(b)
                for t in svt_fillings(shape, b.m, max_excess=b.max_excess)]
    uncrowded = [(shape, *_uncrowded(shape, flat)) for shape, flat in fillings]
    calls = _counting(monkeypatch, [verification], "uncrowd")
    cores = _calls(monkeypatch, verification, "_uncrowded")
    ps = _calls(monkeypatch, verification, "_p_tableau")
    qs = _calls(monkeypatch, verification, "_q_tableau")
    report = check_theorem("uncrowding-intertwining", b)
    assert report.ok and report.instances == len(fillings) * (b.m - 1) == 2_394 * 2
    assert calls == [] and cores == fillings
    assert ps == [(shape, outer, p_flat) for shape, outer, p_flat, _ in uncrowded]
    recordings = {(shape, recording) for shape, _, _, recording in uncrowded}
    assert len(qs) == len(recordings) == 418
    assert {(shape, recording) for recording, shape, _ in qs} == recordings


def test_uncrowding_compat_inverts_each_residue_once(monkeypatch):
    from heckecrystals import uncrowding, verification

    calls = _counting(monkeypatch, [verification, uncrowding], "res_inv")
    report = check_theorem("uncrowding-compat", SMALL["uncrowding-compat"])
    assert report.ok and report.instances > 100
    assert len(calls) == report.instances
    assert len({f.factors for f in calls}) == report.instances


def test_uncrowding_compat_builds_three_fillings_per_residue(monkeypatch):
    """Per residue the check builds the canonical preimage and the padded insertion's P
    and Q, and compares that Q with the rows of the uncrowding core: no uncrowd, no
    second res inside res_inv, no P or Q of uncrowd, and no factorization constructed."""
    from heckecrystals import residue, tableaux, uncrowding, verification
    from heckecrystals.factorization import DecreasingFactorization

    built = _counting(monkeypatch, [tableaux._Filling], "__post_init__")
    unused = [_counting(monkeypatch, [verification], "uncrowd"),
              _counting(monkeypatch, [residue, verification], "res"),
              _counting(monkeypatch, [uncrowding, verification], "_p_tableau"),
              _counting(monkeypatch, [uncrowding, verification], "_q_tableau"),
              _counting(monkeypatch, [DecreasingFactorization], "__post_init__")]
    report = check_theorem("uncrowding-compat", SMALL["uncrowding-compat"])
    assert report.ok and report.instances == 1_375
    assert len(built) == 3 * report.instances
    assert unused == [[]] * 5


@pytest.mark.parametrize("b, residues", [
    pytest.param(SMALL["uncrowding-compat"], 1_375, id="small"),
    pytest.param(default_bounds("uncrowding-compat"), 42_418, id="default"),
])
def test_uncrowding_compat_enumerates_each_residue_class(monkeypatch, b, residues):
    """Per shape, the residues of the fillings are, without repeats, the
    factorizations of the shape's element: its diagonal labels, rows top to
    bottom and each right to left.  Distinct elements give disjoint
    classes, and the check runs once on each distinct residue of a filling."""
    from heckecrystals import verification
    from heckecrystals.factorization import enumerate_factorizations
    from heckecrystals.hecke import HeckeWord, eval_word
    from heckecrystals.residue import res
    from heckecrystals.verification import skew_shapes, svt_fillings

    classes = {}
    for shape in skew_shapes(b):
        offsets = shape.inner + (0,) * (shape.rows - len(shape.inner))
        labels = tuple(shape.rows + j - i for i in range(shape.rows, 0, -1)
                       for j in range(shape.outer[i - 1], offsets[i - 1], -1))
        w = eval_word(HeckeWord(labels, max(labels) + 1))
        found = [res(t, b.m).factors for t in svt_fillings(shape, b.m, max_excess=b.max_excess)]
        built = [f.factors for f in enumerate_factorizations(w, b.m, b.max_excess)]
        assert len(set(found)) == len(found) and len(set(built)) == len(built)
        assert set(found) == set(built), shape
        classes[w] = set(found)
    distinct = set().union(*classes.values())
    assert len(distinct) == sum(map(len, classes.values())) == residues

    # every residue gets one fixed canonical preimage and its padded insertion,
    # which agree on rows, so the check never falls back to uncrowd
    inverted, h0 = [], pf("(1)")
    t0 = verification.res_inv(h0)
    tilde = verification._star_tilde(h0, t0)
    monkeypatch.setattr(verification, "res_inv", lambda h: inverted.append(h.factors) or t0)
    monkeypatch.setattr(verification, "uncrowd", lambda t: (None, None))
    monkeypatch.setattr(verification, "_star_tilde", lambda h, t: tilde)
    report = check_theorem("uncrowding-compat", b)
    assert report.ok and report.instances == residues
    assert len(inverted) == residues and set(inverted) == distinct


def test_local3_graph_pairs_each_node_once_per_color(monkeypatch):
    from heckecrystals import local3

    b = SMALL["stembridge-local3"]
    calls = _counting(monkeypatch, [local3], "pairing3")
    report = check_theorem("stembridge-local3", b)
    assert report.ok and report.instances == len(local3.all_factorizations3(b.m, b.max_letters))
    assert len(calls) == report.instances * (b.m - 1)


def test_operator_rewrites_pairs_once_per_letter(monkeypatch):
    from heckecrystals import star_crystal, verification
    from heckecrystals.verification import fc_factorizations

    b = SMALL["operator-rewrites"]
    calls = _counting(monkeypatch, [star_crystal, verification], "pairing")
    assert check_theorem("operator-rewrites", b).ok
    assert len(calls) == len(list(fc_factorizations(b))) * (b.m - 1)


@pytest.mark.parametrize("name, apply", [("residue-intertwining", "res"),
                                         ("uncrowding-intertwining", "uncrowd")])
def test_intertwining_checks_look_images_up_not_rebuild(monkeypatch, name, apply):
    """Each operator image is looked up among the enumerated flat cells of its
    shape: the check constructs no SkewSetValuedTableau at all, never calls ``res``
    or ``uncrowd``, and runs their flat core once on the flat cells of each filling,
    in order.  ``residue-intertwining`` runs its core only on the fillings of the
    first shape of each class (see :func:`_shape_class`), never on a repeated class."""
    from heckecrystals import verification
    from heckecrystals.tableaux import SkewSetValuedTableau
    from heckecrystals.verification import skew_shapes, svt_fillings

    b = SMALL[name]
    excess = b.max_excess if name == "uncrowding-intertwining" else None
    key = lambda geo, flat: (geo.offsets, geo.cells, flat)  # noqa: E731 - fixes the shape
    shapes = list(skew_shapes(b))
    firsts = {}
    for shape in shapes:
        firsts.setdefault(_shape_class(shape), shape)
    computed = list(firsts.values()) if apply == "res" else shapes
    fillings = [key(shape.geometry, t.flat())
                for shape in computed for t in svt_fillings(shape, b.m, excess)]
    instances = sum(1 for shape in shapes for _ in svt_fillings(shape, b.m, excess))
    core = {"res": "_res_flat", "uncrowd": "_uncrowded"}[apply]
    built = _counting(monkeypatch, [SkewSetValuedTableau], "__post_init__")
    wrapped = _counting(monkeypatch, [verification], apply)
    applied = _calls(monkeypatch, verification, core)
    report = check_theorem(name, b)
    assert report.ok and report.instances == instances * (b.m - 1)
    assert built == wrapped == []
    geo = (lambda g: g) if apply == "res" else (lambda shape: shape.geometry)
    assert [key(geo(at), flat) for at, flat, *_ in applied] == fillings


def test_stembridge_star_constructs_each_factorization_once(monkeypatch):
    """Each operator image is looked up among the enumerated factorizations, which
    the enumerator builds valid by construction, so the check makes no validated
    factorization construction at all."""
    from heckecrystals.factorization import DecreasingFactorization
    from heckecrystals.verification import fc_factorizations

    b = SMALL["stembridge-star"]
    nodes = len(list(fc_factorizations(b)))
    built = _counting(monkeypatch, [DecreasingFactorization], "__post_init__")
    report = check_theorem("stembridge-star", b)
    assert report.ok and report.instances == nodes == 180
    assert built == []


def test_recording_intertwining_constructs_only_the_enumerated_factorizations(monkeypatch):
    """Each lowered image is looked up by its blocks among the element's enumerated
    factorizations, which the enumerator builds valid by construction, so the check
    makes no validated factorization construction, and inserts each on rows without
    ``star_insert``."""
    from heckecrystals import verification
    from heckecrystals.factorization import DecreasingFactorization

    b = SMALL["recording-intertwining"]
    built = _counting(monkeypatch, [DecreasingFactorization], "__post_init__")
    inserted = _counting(monkeypatch, [verification], "star_insert")
    assert check_theorem("recording-intertwining", b).ok
    assert built == []
    assert inserted == []


def test_operator_rewrites_constructs_no_factorization(monkeypatch):
    """Both star images are read off their blocks, and the enumerator builds its
    factorizations valid by construction, so the check makes no validated
    factorization construction and calls no operator wrapper."""
    from heckecrystals import star_crystal
    from heckecrystals.factorization import DecreasingFactorization

    b = SMALL["operator-rewrites"]
    built = _counting(monkeypatch, [DecreasingFactorization], "__post_init__")
    wrapped = _counting(monkeypatch, [star_crystal], "_built")
    report = check_theorem("operator-rewrites", b)
    assert report.ok and report.instances == 356
    assert built == wrapped == []


def test_fc_words_match_a_brute_force_filter():
    """``fc_words`` yields the fully-commutative words of every length from 1 to
    ``max_letters``, in the order of a depth-first walk over all words, which fixes
    the witness order of ``insertion-invariance``."""
    from heckecrystals.hecke import HeckeWord, eval_word, is_fully_commutative
    from heckecrystals.verification import fc_words

    def brute(b):
        def rec(word):
            if word:
                yield word
            if len(word) < b.max_letters:
                for a in range(1, b.n):
                    yield from rec(word + (a,))

        return [w for w in rec(()) if is_fully_commutative(eval_word(HeckeWord(w, b.n)))]

    for b in (SMALL["insertion-invariance"], Bounds(n=5, max_letters=7)):
        words = list(fc_words(b))
        assert words == brute(b)
        assert len(words) == len(set(words)) > 0


def test_insertion_invariance_evaluates_no_word(monkeypatch):
    """The words' elements are carried down ``fc_words``'s recursion, one Demazure
    step per letter, so the check evaluates no word."""
    from heckecrystals import hecke, insertion, verification

    calls = _counting(monkeypatch, [hecke, insertion, verification], "eval_word")
    report = check_theorem("insertion-invariance", SMALL["insertion-invariance"])
    assert report.ok and report.instances == 100
    assert calls == []


def test_stembridge_svt_builds_no_image(monkeypatch):
    """The audit's nodes are the enumerated flat cells of each shape, and each operator
    image is looked up among them: no operator wrapper (``svt_step`` and the others build
    through ``svt_crystal._built``), no ``from_flat`` in the check on a clean run, and,
    once the Schur characters are known, no filling constructed and no flat cells read
    off a filling."""
    from heckecrystals import svt_crystal, tableaux, verification
    from heckecrystals.tableaux import SkewSetValuedTableau
    from heckecrystals.verification import _svt_flats, skew_shapes

    b = SMALL["stembridge-svt"]
    nodes = sum(1 for shape in skew_shapes(b) for _ in _svt_flats(shape, b.m))
    assert check_theorem("stembridge-svt", b).ok     # fills the Schur memo
    wrapped = _counting(monkeypatch, [svt_crystal], "_built")
    rebuilt = _calls(monkeypatch, verification, "from_flat")
    built = _counting(monkeypatch, [SkewSetValuedTableau], "__post_init__")
    read = _counting(monkeypatch, [tableaux._Filling], "flat")
    report = check_theorem("stembridge-svt", b)
    assert report.ok and report.instances == nodes == 4_341
    assert wrapped == [] and rebuilt == []
    assert built == [] and read == []


@pytest.mark.parametrize("name", ["residue-intertwining", "stembridge-svt",
                                  "uncrowding-intertwining"])
def test_mutated_svt_bracket_is_caught(name):
    """With a plus never cancelling a minus in the column signature, each of
    these checks fills its 50 witnesses and the suppression line."""
    assert check_theorem(name, SMALL[name]).ok
    with mutations.mutation(mutations.SVT_BRACKET_OFF):
        report = check_theorem(name, SMALL[name])
    assert len(report.failures) == 51
    assert report.failures[50] == "... further failures suppressed"


def test_an_image_outside_the_enumerated_fillings_is_a_witness(monkeypatch):
    """With the first filling of every shape left out of the enumeration, the
    raising image onto it is a valid tableau outside the node table: the
    check ends with one exception witness that names it."""
    from heckecrystals import verification

    real = verification._svt_flats
    monkeypatch.setattr(verification, "_svt_flats",
                        lambda shape, m, max_excess=None: list(real(shape, m, max_excess))[1:])
    report = check_theorem("residue-intertwining", SMALL["residue-intertwining"])
    assert len(report.failures) == 1
    assert report.failures[0].startswith("exception: ValidationError(")
    assert "outside the enumerated fillings" in report.failures[0]


def _shape_class(shape):
    """The class of ``shape`` whose members ``residue-intertwining`` runs once: its flat
    cells moved so that the lowest row and column are 0, each with its diagonal label."""
    geo = shape.geometry
    i0, j0 = geo.cells[0][0], min(j for _, j in geo.cells)
    return tuple((i - i0, j - j0, c) for (i, j), c in zip(geo.cells, geo.labels))


def _residue_intertwining_by_shape(b):
    """``residue-intertwining`` as it ran before the classes of shapes: every shape in
    full.  The reference for the stream of the check."""
    from heckecrystals.verification import (_check_domain, _outside, _res_flat, _svt_flats,
                                            _table_step, from_flat, skew_shapes, star_moves,
                                            svt_moves)

    for shape in skew_shapes(b):
        geo = shape.geometry
        ids = {flat: k for k, flat in enumerate(_svt_flats(shape, b.m))}
        step = _table_step(ids, lambda u, i: svt_moves(geo, u, i), lambda u: _outside(shape, u))
        residues = [_res_flat(geo, flat, b.m) for flat in ids]
        for flat, f in zip(ids, residues):
            for i in range(1, b.m):
                yield None
                images = step(flat, i)
                _check_domain(f, i)
                for k, rhs, tag in zip(images, star_moves(f.factors, i), ("lower", "raise")):
                    lhs = None if k is None else residues[k].factors
                    if lhs != rhs:
                        t = from_flat(shape, flat)
                        yield f"{tag} {i} on {shape}: {t.rows} -> {lhs} vs {rhs}"


def _stream(items):
    """Every item of ``items``, uncapped, and the ``repr`` of the exception that ends them."""
    out = []
    try:
        out.extend(items)
    except Exception as exc:  # noqa: BLE001 - the exception is part of the stream
        out.append(repr(exc))
    return out


def test_residue_intertwining_streams_as_the_shape_by_shape_run():
    """Clean and under every fault, the check yields the reference's items, without the
    50-witness cap: each ``None``, each witness in its place, and the same ending
    exception.  The faulted streams hold classes whose later members fail again, which
    the capped fixture cannot show."""
    from heckecrystals.verification import _check_residue_intertwining
    from test_small_witnesses import FAULTS

    b = SMALL["residue-intertwining"]
    streams = {}
    for fault in FAULTS:
        with mutations.mutation(fault) if fault != "clean" else nullcontext():
            streams[fault] = _stream(_check_residue_intertwining(b))
            assert streams[fault] == _stream(_residue_intertwining_by_shape(b)), fault
    sizes = {fault: (len(s), sum(x is not None for x in s)) for fault, s in streams.items()}
    assert sizes["clean"] == (5_498, 0)
    assert sizes[mutations.FSTAR_NEIGHBOR_CASE_OFF] == (5_726, 228)
    assert sizes[mutations.SVT_BRACKET_OFF] == (6_362, 864)
    raised = streams[mutations.FSVT_EXCEPTION_OFF]
    assert len(raised) == 72 and raised[-1].startswith("ValidationError(")


def test_shapes_of_a_class_give_the_same_flats_moves_and_residues():
    """The identity behind running ``residue-intertwining`` once per class: every member
    of a class has its first member's enumerated flat cells, ``svt_moves`` at each
    color and residues.  A core that read absolute positions would break it."""
    from heckecrystals.residue import _res_flat
    from heckecrystals.svt_crystal import svt_moves
    from heckecrystals.tableaux import SkewShape, _svt_flats
    from heckecrystals.verification import skew_shapes

    def outputs(shape, m):
        geo, flats = shape.geometry, list(_svt_flats(shape, m))
        return (flats, [svt_moves(geo, flat, i) for flat in flats for i in range(1, m)],
                [_res_flat(geo, flat, m) for flat in flats])

    b = SMALL["residue-intertwining"]
    first = {}
    for shape in skew_shapes(b):
        rep = first.setdefault(_shape_class(shape), (shape, outputs(shape, b.m)))
        assert outputs(shape, b.m) == rep[1], (shape, rep[0])
    assert len(first) < sum(1 for _ in skew_shapes(b))
    workload = Bounds(m=3, max_cells=3, max_rows=4, max_cols=4)     # verify-tableau's
    shapes = list(skew_shapes(workload))
    assert (len(shapes), len(set(map(_shape_class, shapes)))) == (590, 128)
    # the same cells up to translation, but labels 2 and 3
    assert _shape_class(SkewShape((2,), (1,))) != _shape_class(SkewShape((2, 1), (1, 1)))
