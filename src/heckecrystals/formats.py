"""Text and JSON formats for words, factorizations, biwords and tableaux.

Factorizations print the way this corner of combinatorics writes them:
``(7532)(621)(6)``, empty blocks as ``()``.  On input a block may also
separate letters with spaces or commas (required once letters exceed 9)
and ``(\\;)`` is accepted for an empty block.  Tableau JSON is explicit
about the row convention: row 1 is the bottom row and rows are listed
bottom-up; every cell is an ascending list even when it is a singleton.
The full grammar ships in ``docs/grammar.ebnf``.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import ValidationError
from .factorization import DecreasingFactorization, HeckeBiword
from .hecke import HeckeWord
from .tableaux import (
    SetValuedFilling,
    SkewSetValuedTableau,
    SkewShape,
    Tableau,
)

__all__ = [
    "parse_word",
    "parse_factorization", "factorization_to_json", "factorization_from_json",
    "parse_biword", "parse_shape",
    "filling_to_json", "filling_from_json",
    "tableau_to_json",
]

_BLOCK = re.compile(r"\(([^()]*)\)")


def _ints(text: str) -> tuple[int, ...]:
    """The integers of a comma- or space-separated list."""
    try:
        return tuple(int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok)
    except ValueError as exc:
        raise ValidationError(f"cannot read integers from {text!r}") from exc


def _letters(text: str) -> tuple[int, ...]:
    text = text.replace("\\;", " ").strip()
    if not text:
        return ()
    if any(sep in text for sep in (" ", ",")):
        return _ints(text)
    if not text.isdigit():
        raise ValidationError(f"cannot read letters from {text!r}")
    return tuple(int(ch) for ch in text)


def _bound(letters: tuple[int, ...]) -> int:
    """The alphabet bound ``max + 1`` inferred from letters, which start at 1."""
    if any(a < 1 for a in letters):
        raise ValidationError(f"letter {min(letters)} is below 1; letters start at 1")
    return max(letters, default=0) + 1


def parse_word(text: str) -> HeckeWord:
    letters = _letters(text)
    if not letters:
        raise ValidationError(f"word {text!r} has no letters")
    return HeckeWord(letters, _bound(letters))


def parse_factorization(text: str, n: int | None = None) -> DecreasingFactorization:
    if not re.fullmatch(r"\s*(?:\([^()]*\)\s*)*", text):
        raise ValidationError(f"cannot parse factorization {text!r}")
    factors = tuple(_letters(b) for b in _BLOCK.findall(text))
    bound = _bound(tuple(a for f in factors for a in f))
    return DecreasingFactorization(factors, bound if n is None else max(n, 1))


def parse_biword(text: str) -> HeckeBiword:
    if "/" not in text:
        raise ValidationError("biword text needs a '/' between the two rows")
    top_text, bottom_text = text.split("/", 1)
    top = _letters(top_text)
    bottom = _letters(bottom_text)
    if not top or not bottom:
        raise ValidationError(f"biword {text!r} has a row with no letters")
    return HeckeBiword(top, bottom, _bound(bottom))


def parse_shape(text: str) -> SkewShape:
    outer_text, slash, inner_text = text.partition("/")
    outer, inner = _ints(outer_text), _ints(inner_text)
    if not outer or (slash and not inner):
        raise ValidationError(f"shape {text!r} has an empty partition")
    return SkewShape(outer, inner)


def factorization_to_json(f: DecreasingFactorization) -> dict[str, Any]:
    return {"n": f.n, "factors": [list(b) for b in f.factors]}


def factorization_from_json(data: dict[str, Any]) -> DecreasingFactorization:
    _json_fields(data, "factorization", "factors", "n")
    factors = data["factors"]
    if not isinstance(factors, list):
        raise ValidationError(f'"factors" must be a list of blocks, got {factors!r}')
    return DecreasingFactorization(tuple(_json_ints(b, "a block") for b in factors),
                                   _json_int(data["n"], '"n"'))


def filling_to_json(t: SetValuedFilling) -> dict[str, Any]:
    return {
        "notation": "french",
        "outer": list(t.shape.outer),
        "inner": list(t.shape.inner),
        "rows": [[list(cell) for cell in row] for row in t.rows],
    }


def filling_from_json(data: dict[str, Any]) -> SetValuedFilling:
    _json_fields(data, "tableau", "outer", "rows")
    if data.get("notation", "french") != "french":
        raise ValidationError("only French notation is supported")
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError(f'"rows" must be a list of rows, got {rows!r}')
    shape = SkewShape(_json_ints(data["outer"], '"outer"'),
                      _json_ints(data.get("inner", []), '"inner"'))
    return SkewSetValuedTableau(
        shape, tuple(tuple(_json_ints(cell, "a cell") for cell in row) for row in rows))


def _json_fields(data: Any, what: str, *keys: str) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} JSON must be an object, got {data!r}")
    if any(key not in data for key in keys):
        raise ValidationError(f"{what} JSON needs " + " and ".join(f'"{key}"' for key in keys))


def _json_int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _json_ints(value: Any, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise ValidationError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def tableau_to_json(t: Tableau) -> dict[str, Any]:
    return filling_to_json(t.as_set_valued())


def loads(text: str) -> dict[str, Any]:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad JSON input: {exc}") from exc
