"""Crystal operators on skew semistandard set-valued tableaux.

The signature rule works column by column: a column carrying ``i`` but
not ``i+1`` contributes a minus, the opposite a plus, and each plus
immediately left of a surviving minus cancels against it.  Lowering
turns the ``i`` in the rightmost unpaired minus column into ``i+1``,
except that a right neighbor holding both letters donates instead
(keeping the filling semistandard without moving the column signature).

Classical crystal operators on single-valued semistandard tableaux are
the restriction of these maps to all-singleton fillings, so the module
also serves as the operator backend for recording tableaux.  They read
the same column signature off the tableau itself: a singleton cell never
holds both letters, so the donating case cannot arise, and the operator
only relabels the lowest cell of the chosen column.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import mutations
from .errors import ValidationError
from .graphs import ColoredDigraph, build_component
from .tableaux import (
    SetValuedFilling,
    SkewSetValuedTableau,
    Tableau,
    from_cells,
    weight_of,
)

__all__ = ["Signature", "signature", "f_svt", "e_svt", "phi_svt", "epsilon_svt",
           "f_classical", "e_classical", "crystal_graph_svt"]


@dataclass(frozen=True)
class Signature:
    """Per-column signs for one letter, with the surviving brackets."""

    signs: tuple[str, ...]              # one of "-", "+", "" per column
    unpaired_minus: tuple[int, ...]     # column indices, left to right
    unpaired_plus: tuple[int, ...]


def _column_letters(t: SetValuedFilling | Tableau) -> list[set[int]]:
    cols: list[set[int]] = [set() for _ in range(max(t.shape.outer, default=0) + 1)]
    if isinstance(t, Tableau):
        for _, j, v in t.cells():
            cols[j].add(v)
    else:
        for _, j, cell in t.cells():
            cols[j].update(cell)
    return cols


def signature(t: SetValuedFilling | Tableau, i: int) -> Signature:
    if i < 1:
        raise ValidationError("letter index must be positive")
    cols = _column_letters(t)
    signs = []
    for j in range(1, len(cols)):
        has_i, has_i1 = i in cols[j], i + 1 in cols[j]
        if has_i and not has_i1:
            signs.append("-")
        elif has_i1 and not has_i:
            signs.append("+")
        else:
            signs.append("")
    minus: list[int] = []
    plus_stack: list[int] = []
    for j, s in enumerate(signs, start=1):
        if s == "+":
            plus_stack.append(j)
        elif s == "-":
            if plus_stack:
                plus_stack.pop()
            else:
                minus.append(j)
    return Signature(tuple(signs), tuple(minus), tuple(plus_stack))


def _find_cell_with(t: SetValuedFilling, column: int,
                    letter: int) -> tuple[int, int, tuple[int, ...]]:
    for r, c, cell in t.cells():
        if c == column and letter in cell:
            return r, c, cell
    raise AssertionError(f"no cell with {letter} in column {column}")


def _replace_cells(t: SetValuedFilling,
                   changes: dict[tuple[int, int], tuple[int, ...]]) -> SetValuedFilling:
    cells = {(r, c): cell for r, c, cell in t.cells()}
    cells.update((rc, tuple(sorted(new))) for rc, new in changes.items())
    return from_cells(t.shape, cells, type(t))


def f_svt(t: SetValuedFilling, i: int) -> SetValuedFilling | None:
    sig = signature(t, i)
    if not sig.unpaired_minus:
        return None
    col = sig.unpaired_minus[-1]
    r, c, b = _find_cell_with(t, col, i)
    right = t.cell(r, c + 1) if (r, c + 1) in t.shape else ()
    if (not mutations.enabled(mutations.FSVT_EXCEPTION_OFF)
            and i in right and i + 1 in right):
        moved = tuple(v for v in right if v != i)
        return _replace_cells(t, {(r, c): b + (i + 1,), (r, c + 1): moved})
    return _replace_cells(t, {(r, c): tuple(v for v in b if v != i) + (i + 1,)})


def e_svt(t: SetValuedFilling, i: int) -> SetValuedFilling | None:
    sig = signature(t, i)
    if not sig.unpaired_plus:
        return None
    col = sig.unpaired_plus[0]
    r, c, b = _find_cell_with(t, col, i + 1)
    left = t.cell(r, c - 1) if (r, c - 1) in t.shape else ()
    if i in left and i + 1 in left:
        moved = tuple(v for v in left if v != i + 1)
        return _replace_cells(t, {(r, c): b + (i,), (r, c - 1): moved})
    return _replace_cells(t, {(r, c): tuple(v for v in b if v != i + 1) + (i,)})


def phi_svt(t: SetValuedFilling, i: int) -> int:
    return len(signature(t, i).unpaired_minus)


def epsilon_svt(t: SetValuedFilling, i: int) -> int:
    return len(signature(t, i).unpaired_plus)


def _relabel(t: Tableau, column: int, old: int, new: int) -> Tableau:
    """``t`` with the lowest ``old`` in ``column`` replaced by ``new``."""
    row = next(r for r, c, v in t.cells() if c == column and v == old)
    cells = {(r, c): v for r, c, v in t.cells()}
    cells[(row, column)] = new
    return from_cells(t.shape, cells, type(t))


def f_classical(t: Tableau, i: int) -> Tableau | None:
    """Classical lowering operator on a single-valued tableau: the
    restriction of :func:`f_svt` to singleton cells."""
    sig = signature(t, i)
    if not sig.unpaired_minus:
        return None
    return _relabel(t, sig.unpaired_minus[-1], i, i + 1)


def e_classical(t: Tableau, i: int) -> Tableau | None:
    """Classical raising operator: the restriction of :func:`e_svt`."""
    sig = signature(t, i)
    if not sig.unpaired_plus:
        return None
    return _relabel(t, sig.unpaired_plus[0], i + 1, i)


def crystal_graph_svt(seed: SkewSetValuedTableau, m: int) -> ColoredDigraph:
    """Connected component of ``seed`` under letters ``1..m-1``."""
    if seed.max_entry() > m:
        raise ValidationError(f"seed has entries above {m}")
    return build_component(
        [seed], tuple(range(1, m)),
        lower=f_svt, raise_=e_svt,
        weight=lambda t: _padded_weight(t, m),
    )


def _padded_weight(t: SetValuedFilling, m: int) -> tuple[int, ...]:
    w = weight_of(t)
    return w + (0,) * (m - len(w))
