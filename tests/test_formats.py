import pytest

from heckecrystals.errors import ValidationError
from heckecrystals import formats
from heckecrystals.tableaux import (
    SemistandardTableau,
    SkewSetValuedTableau,
    SkewShape,
    pretty,
)


def test_parse_factorization_compact_style():
    f = formats.parse_factorization("(7532)(621)(6)")
    assert f.factors == ((7, 5, 3, 2), (6, 2, 1), (6,))
    assert f.n == 8
    assert str(f) == "(7532)(621)(6)"


def test_parse_factorization_empty_blocks():
    f = formats.parse_factorization("()(21)(\\;)(32)")
    assert f.factors == ((), (2, 1), (), (3, 2))
    assert str(f) == "()(21)()(32)"


def test_parse_factorization_multidigit_letters():
    f = formats.parse_factorization("(12 11)(5)")
    assert f.factors == ((12, 11), (5,))
    assert str(f) == "(12 11)(5)"


def test_parse_factorization_rejects_garbage():
    with pytest.raises(ValidationError):
        formats.parse_factorization("21)(3")
    with pytest.raises(ValidationError):
        formats.parse_factorization("(12)", n=2)


def test_word_round_trip():
    w = formats.parse_word("1 3 2 4 2")
    assert w.letters == (1, 3, 2, 4, 2)
    assert formats.parse_word("13242").letters == w.letters


def test_biword_parsing():
    b = formats.parse_biword("5 4 3 3 1 1 / 1 2 3 1 3 2")
    assert b.top == (5, 4, 3, 3, 1, 1)
    assert b.bottom == (1, 2, 3, 1, 3, 2)
    with pytest.raises(ValidationError):
        formats.parse_biword("1 2 3")


def test_shape_parsing():
    sh = formats.parse_shape("4,4,1,1/2,2")
    assert sh == SkewShape((4, 4, 1, 1), (2, 2))
    assert formats.parse_shape("3 2 1") == SkewShape((3, 2, 1), ())


def test_factorization_json_round_trip():
    f = formats.parse_factorization("()(21)(32)")
    data = formats.factorization_to_json(f)
    assert data == {"n": 4, "factors": [[], [2, 1], [3, 2]]}
    assert formats.factorization_from_json(data) == f


def test_filling_json_round_trip():
    t = SkewSetValuedTableau(SkewShape((2, 2), (1,)), (((1, 2),), ((2, 3), (3,))))
    data = formats.filling_to_json(t)
    assert data["notation"] == "french"
    assert data["rows"] == [[[1, 2]], [[2, 3], [3]]]
    assert formats.filling_from_json(data) == t


def test_tableau_json_round_trip():
    t = SemistandardTableau(SkewShape((2, 1), ()), ((1, 1), (2,)))
    data = formats.tableau_to_json(t)
    assert data["rows"] == [[[1], [1]], [[2]]]


@pytest.mark.parametrize("reader, data", [
    (formats.filling_from_json, [1]),
    (formats.filling_from_json, {"outer": [1], "rows": [[1]]}),
    (formats.factorization_from_json, {"factors": [[1]], "n": 3.0}),
])
def test_json_readers_reject_malformed_input(reader, data):
    with pytest.raises(ValidationError):
        reader(data)


def test_pretty_layout_puts_top_row_first():
    t = SkewSetValuedTableau(SkewShape((2, 2), (1,)), (((1, 2),), ((2, 3), (3,))))
    assert pretty(t).splitlines() == ["23 3", ".  12"]


def test_loads_rejects_bad_json():
    with pytest.raises(ValidationError):
        formats.loads("{not json")
