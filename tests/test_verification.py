import pytest

from heckecrystals import mutations
from heckecrystals.errors import ValidationError
from heckecrystals.graphs import ColoredDigraph, build_component
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
    g = ColoredDigraph((1,), weights={"x": (1, 1)})
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


def test_uncrowding_intertwining_uncrowds_each_filling_once(monkeypatch):
    from heckecrystals import verification
    from heckecrystals.verification import skew_shapes, svt_fillings

    b = SMALL["uncrowding-intertwining"]
    calls = _counting(monkeypatch, [verification], "uncrowd")
    report = check_theorem("uncrowding-intertwining", b)
    fillings = [t for shape in skew_shapes(b)
                for t in svt_fillings(shape, b.m, max_excess=b.max_excess)]
    assert report.ok and report.instances == len(fillings) * (b.m - 1)
    assert sorted(map(hash, calls)) == sorted(map(hash, fillings))
    assert len(calls) == len(fillings)


def test_uncrowding_compat_inverts_each_residue_once(monkeypatch):
    from heckecrystals import uncrowding, verification

    calls = _counting(monkeypatch, [verification, uncrowding], "res_inv")
    report = check_theorem("uncrowding-compat", SMALL["uncrowding-compat"])
    assert report.ok and report.instances > 100
    assert len(calls) == report.instances
    assert len({f.factors for f in calls}) == report.instances


def test_local3_graph_pairs_each_node_once_per_color(monkeypatch):
    from heckecrystals import local3

    b = SMALL["stembridge-local3"]
    calls = _counting(monkeypatch, [local3], "pairing3")
    report = check_theorem("stembridge-local3", b)
    assert report.ok and report.instances == len(local3.all_factorizations3(b.m, b.max_letters))
    assert len(calls) == report.instances * (b.m - 1)


def test_operator_rewrites_pairs_once_per_letter(monkeypatch):
    from heckecrystals import star_crystal
    from heckecrystals.verification import fc_factorizations

    b = SMALL["operator-rewrites"]
    calls = _counting(monkeypatch, [star_crystal], "pairing")
    assert check_theorem("operator-rewrites", b).ok
    assert len(calls) == len(list(fc_factorizations(b))) * (b.m - 1)
