"""Crystal operators on skew semistandard set-valued tableaux.

The signature rule works column by column: a column carrying ``i`` but
not ``i+1`` contributes a minus, the opposite a plus, and each plus
immediately left of a surviving minus cancels against it.  Lowering
turns the ``i`` in the rightmost unpaired minus column into ``i+1``,
except that a right neighbor holding both letters donates instead
(keeping the filling semistandard without moving the column signature).

The core works on flat cells and builds or validates nothing:
:func:`svt_moves` gives the lowered and raised cells from one signature, or
one side alone.  The public operators wrap it and build what they return;
``f_svt`` and ``e_svt`` compute only their own side.  The classical
operators on single-valued tableaux (the backend for recording tableaux)
are the same maps on singleton cells, where the donating case cannot arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import mutations
from .errors import ValidationError
from .graphs import ColoredDigraph, build_component
from .tableaux import (Geometry, SetValuedFilling, SkewSetValuedTableau, Tableau, from_flat,
                       weight_of)

__all__ = ["Signature", "signature", "svt_moves", "svt_step", "f_svt", "e_svt", "phi_svt",
           "epsilon_svt", "f_classical", "e_classical", "crystal_graph_svt"]


@dataclass(frozen=True)
class Signature:
    """The columns of one letter's signature left unbracketed."""

    unpaired_minus: tuple[int, ...]     # column indices, left to right
    unpaired_plus: tuple[int, ...]


def _bracket(columns: tuple[tuple[int, ...], ...], flat: tuple, i: int
             ) -> tuple[list[int], list[int]]:
    """The unpaired minus and plus columns (numbered from 1) of letter ``i``."""
    if i < 1:
        raise ValidationError("letter index must be positive")
    bracket = not mutations.enabled(mutations.SVT_BRACKET_OFF)
    minus: list[int] = []
    plus_stack: list[int] = []
    for j, column in enumerate(columns, start=1):
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
        elif plus_stack and bracket:
            plus_stack.pop()
        else:
            minus.append(j)
    return minus, plus_stack


def svt_moves(geo: Geometry, flat: tuple, i: int, sides: tuple = (+1, -1)) -> tuple:
    """The flat cells of ``f_svt`` (side +1) and ``e_svt`` (-1) of the filling with flat
    cells ``flat`` on a shape of geometry ``geo``, one per entry of ``sides`` and None where
    undefined, from one signature.  Nothing is validated: the wrappers build their images."""
    minus, plus = _bracket(geo.columns, flat, i)
    ends = {+1: minus[-1:], -1: plus[:1]}      # the column each side moves in, if any
    return tuple([_move(geo, flat, i, s, ends[s][0]) if ends[s] else None for s in sides])


def _move(geo: Geometry, flat: tuple, i: int, side: int, column: int) -> tuple:
    """``flat`` with ``i`` turned into ``i + 1`` (``side`` +1, ``column`` the last unpaired
    minus) or ``i + 1`` into ``i`` (-1, the first unpaired plus) in the lowest cell of
    ``column`` holding it; a neighbour on ``side`` holding both letters donates instead."""
    old, new = (i, i + 1) if side > 0 else (i + 1, i)
    k = next(k for k in geo.columns[column - 1] if old in flat[k])
    r, c = geo.cells[k]
    n = geo.index.get((r, c + side))
    cells = list(flat)
    if (n is not None and old in flat[n] and new in flat[n]
            and (side < 0 or not mutations.enabled(mutations.FSVT_EXCEPTION_OFF))):
        cells[k] = tuple(sorted(flat[k] + (new,)))
        cells[n] = tuple(v for v in flat[n] if v != old)
    else:
        cells[k] = tuple(sorted([v for v in flat[k] if v != old] + [new]))
    return tuple(cells)


def _singletons(t: SetValuedFilling | Tableau) -> tuple:
    """The flat cells of ``t``, those of a single-valued tableau as 1-tuples."""
    return tuple(zip(t.flat())) if isinstance(t, Tableau) else t.flat()


def signature(t: SetValuedFilling | Tableau, i: int) -> Signature:
    minus, plus = _bracket(t.shape.geometry.columns, _singletons(t), i)
    return Signature(tuple(minus), tuple(plus))


def _built(t: SetValuedFilling | Tableau, flat: tuple | None):
    """The filling of ``t``'s class and shape with flat cells ``flat``, validated."""
    if flat is None:
        return None
    if isinstance(t, Tableau):
        flat = tuple(chain.from_iterable(flat))
    return from_flat(t.shape, flat, type(t))


def svt_step(t: SetValuedFilling | Tableau, i: int) -> tuple:
    """``(f_svt(t, i), e_svt(t, i))`` from one signature."""
    return tuple(_built(t, u) for u in svt_moves(t.shape.geometry, _singletons(t), i))


def f_svt(t: SetValuedFilling | Tableau, i: int) -> SetValuedFilling | Tableau | None:
    return _built(t, *svt_moves(t.shape.geometry, _singletons(t), i, (+1,)))


def e_svt(t: SetValuedFilling | Tableau, i: int) -> SetValuedFilling | Tableau | None:
    return _built(t, *svt_moves(t.shape.geometry, _singletons(t), i, (-1,)))


# The classical operators on a single-valued tableau: the restriction to singleton cells.
f_classical, e_classical = f_svt, e_svt


def phi_svt(t: SetValuedFilling, i: int) -> int:
    return len(signature(t, i).unpaired_minus)


def epsilon_svt(t: SetValuedFilling, i: int) -> int:
    return len(signature(t, i).unpaired_plus)


def crystal_graph_svt(seed: SkewSetValuedTableau, m: int) -> ColoredDigraph:
    """Connected component of ``seed`` under letters ``1..m-1``."""
    if seed.max_entry() > m:
        raise ValidationError(f"seed has entries above {m}")
    return build_component([seed], tuple(range(1, m)), svt_step, lambda t: weight_of(t, m))
