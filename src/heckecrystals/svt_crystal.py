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
    weight_of,
)

__all__ = ["Signature", "signature", "svt_step", "f_svt", "e_svt", "phi_svt", "epsilon_svt",
           "f_classical", "e_classical", "crystal_graph_svt"]


@dataclass(frozen=True)
class Signature:
    """The columns of one letter's signature left unbracketed."""

    unpaired_minus: tuple[int, ...]     # column indices, left to right
    unpaired_plus: tuple[int, ...]


def signature(t: SetValuedFilling | Tableau, i: int) -> Signature:
    if i < 1:
        raise ValidationError("letter index must be positive")
    flat = t.flat()
    if isinstance(t, Tableau):
        flat = tuple((v,) for v in flat)
    minus: list[int] = []
    plus_stack: list[int] = []
    for j, column in enumerate(t.shape.geometry.columns, start=1):
        has_i = has_i1 = False
        for k in column:
            cell = flat[k]
            if i in cell:
                has_i = True
            if i + 1 in cell:
                has_i1 = True
        if has_i == has_i1:
            continue
        if not has_i:
            plus_stack.append(j)
        elif plus_stack:
            plus_stack.pop()
        else:
            minus.append(j)
    return Signature(tuple(minus), tuple(plus_stack))


def _move(t: SetValuedFilling, column: int, old: int, new: int, side: int,
          donate: bool = True) -> SetValuedFilling:
    """Turn ``old`` into ``new`` in the lowest cell of ``column`` holding it; if ``donate``
    and the neighbour on ``side`` holds both, it loses ``old`` and the cell gains ``new``."""
    geo, flat = t.shape.geometry, t.flat()
    k = next(k for k in geo.columns[column - 1] if old in flat[k])
    (r, c), b = geo.cells[k], flat[k]
    n = geo.index.get((r, c + side))
    other = () if n is None else flat[n]
    if donate and old in other and new in other:
        return t.with_cells({(r, c): tuple(sorted(b + (new,))),
                             (r, c + side): tuple(v for v in other if v != old)})
    return t.with_cells({(r, c): tuple(sorted([v for v in b if v != old] + [new]))})


def svt_step(t: SetValuedFilling, i: int
             ) -> tuple[SetValuedFilling | None, SetValuedFilling | None]:
    """``(f_svt(t, i), e_svt(t, i))`` from one signature."""
    sig = signature(t, i)
    return _lower(t, i, sig), _raise(t, i, sig)


def f_svt(t: SetValuedFilling, i: int) -> SetValuedFilling | None:
    return _lower(t, i, signature(t, i))


def e_svt(t: SetValuedFilling, i: int) -> SetValuedFilling | None:
    return _raise(t, i, signature(t, i))


def _lower(t: SetValuedFilling, i: int, sig: Signature) -> SetValuedFilling | None:
    if not sig.unpaired_minus:
        return None
    return _move(t, sig.unpaired_minus[-1], i, i + 1, +1,
                 not mutations.enabled(mutations.FSVT_EXCEPTION_OFF))


def _raise(t: SetValuedFilling, i: int, sig: Signature) -> SetValuedFilling | None:
    return _move(t, sig.unpaired_plus[0], i + 1, i, -1) if sig.unpaired_plus else None


def phi_svt(t: SetValuedFilling, i: int) -> int:
    return len(signature(t, i).unpaired_minus)


def epsilon_svt(t: SetValuedFilling, i: int) -> int:
    return len(signature(t, i).unpaired_plus)


def _relabel(t: Tableau, column: int, old: int, new: int) -> Tableau:
    """``t`` with the lowest ``old`` in ``column`` replaced by ``new``."""
    geo, flat = t.shape.geometry, t.flat()
    k = next(k for k in geo.columns[column - 1] if flat[k] == old)
    return t.with_cells({geo.cells[k]: new})


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
    return build_component([seed], tuple(range(1, m)), svt_step, lambda t: weight_of(t, m))
