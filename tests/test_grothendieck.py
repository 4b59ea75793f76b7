import pytest

from heckecrystals.errors import DomainError, ValidationError
from heckecrystals.grothendieck import (
    grassmannian_element,
    grothendieck_poly,
    schur_coeffs_via_crystal,
    schur_dict,
    schur_expand,
    series_via_expansion,
)
from heckecrystals.hecke import HeckeWord, eval_word, identity
from heckecrystals.svt_crystal import e_svt
from heckecrystals.tableaux import SkewShape, weight_of
from heckecrystals.verification import svt_fillings


def test_schur_single_box():
    assert schur_dict((1,), 2) == {(1, 0): 1, (0, 1): 1}


def test_schur_21_in_two_variables():
    assert schur_dict((2, 1), 2) == {(2, 1): 1, (1, 2): 1}


def test_schur_vanishes_beyond_variable_count():
    assert schur_dict((1, 1, 1), 2) == {}


def test_schur_empty_partition():
    assert schur_dict((), 2) == {(0, 0): 1}


def test_expand_is_idempotent_on_schur():
    assert schur_expand(schur_dict((2, 1), 3), 3) == {(2, 1): 1}


def test_expand_rejects_asymmetric_input():
    with pytest.raises(ValidationError):
        schur_expand({(2, 0): 1}, 2)


def test_grothendieck_of_identity():
    out = grothendieck_poly(identity(3), 2, 1)
    assert out[0] == {(0, 0): 1}
    assert out[1] == {}


def test_expansion_of_12132():
    w = eval_word(HeckeWord((1, 2, 1, 3, 2), 4))
    series = series_via_expansion(w, 4, 2)
    assert series.slice(0) == {(2, 2, 1): 1}
    assert series.slice(1) == {(2, 2, 2): 2, (2, 2, 1, 1): 3}
    assert series.slice(2) == {(2, 2, 2, 1): 6}


def test_zero_beta_layer_matches_reduced_expansion():
    """With no surplus letters the coefficients count reduced
    factorizations, cross-checked through both pipelines."""
    w = eval_word(HeckeWord((2, 1, 3, 2), 4))
    crystal = schur_coeffs_via_crystal(w, 3, 0)
    poly = series_via_expansion(w, 3, 0)
    assert crystal == poly
    assert all(d == 0 for d, _ in crystal.coeffs)


def test_crystal_pipeline_rejects_braided_elements():
    w = eval_word(HeckeWord((1, 2, 1, 3, 2), 4))
    with pytest.raises(DomainError):
        schur_coeffs_via_crystal(w, 3, 1)


def test_dual_pipeline_simple_cases():
    s1 = eval_word(HeckeWord((1,), 2))
    assert (schur_coeffs_via_crystal(s1, 2, 1)
            == series_via_expansion(s1, 2, 1))
    w = eval_word(HeckeWord((2, 1, 3, 2), 4))
    assert (schur_coeffs_via_crystal(w, 3, 1)
            == series_via_expansion(w, 3, 1))


def test_grassmannian_elements():
    assert grassmannian_element((1,), 1).perm == (2, 1)
    assert grassmannian_element((2, 1), 2).perm == (2, 4, 1, 3)


def test_highest_weight_tableau_counts_match_expansion():
    """Counting raising-annihilated tableaux per weight and surplus
    reproduces the Schur expansion of the set-valued series."""
    m = 3
    for mu in [(1,), (2,), (2, 1), (2, 2)]:
        shape = SkewShape(mu, ())
        series: dict[int, dict] = {}
        counts: dict[tuple[int, tuple[int, ...]], int] = {}
        for t in svt_fillings(shape, m):
            wt = weight_of(t) + (0,) * (m - len(weight_of(t)))
            d = sum(len(c) for _, _, c in t.cells()) - sum(mu)
            series.setdefault(d, {})
            series[d][wt] = series[d].get(wt, 0) + 1
            if all(e_svt(t, i) is None for i in range(1, m)):
                key = (d, tuple(v for v in wt if v))
                counts[key] = counts.get(key, 0) + 1
        expanded = {
            (d, nu): c
            for d, poly in series.items()
            for nu, c in schur_expand(poly, m).items()
        }
        assert counts == expanded


def test_ssyt_enumeration_counts():
    def count(mu, m):
        return sum(1 for _ in svt_fillings(SkewShape(mu), m, max_excess=0))

    assert count((2, 1), 3) == 8  # dimension of the adjoint
    assert count((1,), 4) == 4
    assert count((2, 1, 1), 2) == 0
