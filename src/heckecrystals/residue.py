"""The residue map between set-valued tableaux and decreasing factorizations.

``res`` reads, for each letter ``k``, the diagonal labels (``rows + col -
row``) of the cells containing ``k``.

The inverse is built, not searched for.  The cells of a tableau whose
residue is fully commutative form the heap of the residue's Demazure
product, which is a skew diagram (Stembridge, "On the fully commutative
elements of Coxeter groups", 1996).  Reading the letters of ``f`` in word
order (largest letter first, labels decreasing), a letter on label ``c``
joins the latest cell on ``c`` when that cell is newer than the latest
cells on ``c - 1`` and ``c + 1``: there the Demazure product keeps the
permutation fixed.  Otherwise it opens a new cell, one row below the
previous cell on ``c``.  A label's first cell fixes its offset to each
neighbour that already has cells: it is level with the latest cell on
``c + 1`` and one row below the latest cell on ``c - 1``.  In a skew
diagram every later cell agrees with these offsets, so they fix the rows
inside each run of consecutive labels, read from its largest label down.
A row never holds two runs, and runs with larger labels sit lower, so
only the height of each run is free; where two runs' labels differ by
exactly two they touch at a corner.

``res_inv`` stacks the runs with no empty rows between them, which gives
the canonical preimage: fewest rows, then lexicographically smallest
inner shape.  ``res_inv_shaped`` instead anchors each run on the given
shape and returns the unique filling on it.
"""

from __future__ import annotations

from . import mutations
from .errors import DomainError, ReconstructionError, ValidationError
from .factorization import DecreasingFactorization
from .tableaux import Geometry, SetValuedFilling, SkewSetValuedTableau, SkewShape, from_cells

__all__ = ["res", "res_inv", "res_inv_shaped"]

Run = dict[tuple[int, int], tuple[int, ...]]   # (row, label) -> letters, row 0 lowest


def res(t: SetValuedFilling, m: int | None = None) -> DecreasingFactorization:
    """Factorization whose block ``k`` lists the diagonal labels of the
    cells of ``t`` containing ``k``, in decreasing order."""
    top = t.max_entry()
    m = top if m is None else m
    if top > m:
        raise ValidationError(f"tableau entry {top} exceeds block count {m}")
    return _res_flat(t.shape.geometry, t.flat(), m)


def _res_flat(geo: Geometry, flat: tuple, m: int) -> DecreasingFactorization:
    """:func:`res` of the flat cells ``flat``, entries at most ``m``, on geometry ``geo``."""
    blocks: list[list[int]] = [[] for _ in range(m)]
    for c, cell in zip(geo.labels, flat):
        for k in cell:
            blocks[k - 1].append(c)
    factors = tuple(tuple(sorted(block, reverse=True)) for block in reversed(blocks))
    return DecreasingFactorization(factors, max(geo.labels, default=0) + 1)  # no cell is empty


def _require_fc(f: DecreasingFactorization, what: str) -> None:
    if not f.fully_commutative:
        raise DomainError(f"{what} requires a fully-commutative factorization, got {f}")


def _runs(f: DecreasingFactorization) -> list[Run]:
    """The heap of ``f``, one run of consecutive labels at a time, the
    run with the largest labels first."""
    cells: dict[int, list[list[int]]] = {}        # label -> letters per cell, in opening order
    up: dict[int, int] = {}                       # c -> row of c's first cell less c + 1's
    top: dict[int, int] = {}                      # label -> when its latest cell opened
    opened = 0
    for k in range(f.m, 0, -1):
        for c in f.factor(k):
            latest = top.get(c, -1)
            if latest > top.get(c - 1, -1) and latest > top.get(c + 1, -1):
                cells[c][-1].append(k)
                continue
            if c not in cells:
                cells[c] = []
                if c + 1 in cells:
                    up[c] = 1 - len(cells[c + 1])
                if c - 1 in cells:
                    up[c - 1] = len(cells[c - 1])
            cells[c].append([k])
            opened += 1
            top[c] = opened
    runs: list[Run] = []
    for c in sorted(cells, reverse=True):
        if c + 1 in cells:
            row += up[c]
        else:
            row, run = 0, {}
            runs.append(run)
        for j, vals in enumerate(cells[c]):
            run[(row - j, c)] = tuple(reversed(vals))
    lows = [min(r for r, _ in run) for run in runs]
    return [{(r - low, c): vals for (r, c), vals in run.items()} for run, low in zip(runs, lows)]


def _fill(f: DecreasingFactorization, outer: tuple[int, ...], inner: tuple[int, ...],
          cells: dict[tuple[int, int], tuple[int, ...]]) -> SkewSetValuedTableau:
    """The preimage of ``f`` with ``cells`` on ``outer/inner``, or a ReconstructionError.
    A cell of label ``c`` in row ``i`` sits in column ``c + i - rows``, and one label's
    cells are one run on distinct rows, so no two cells share a position: once
    ``from_cells`` has filled the shape, a letter is lost only on a cell outside it."""
    try:
        t = from_cells(SkewShape(outer, inner), cells)
    except ValidationError as exc:
        raise ReconstructionError(f"no skew filling realizes {f}: {exc}") from exc
    if len(cells) != t.shape.size():
        raise ReconstructionError(f"cannot place the letters of {f} within shape {t.shape}")
    return t  # type: ignore[return-value]


def res_inv(f: DecreasingFactorization) -> SkewSetValuedTableau:
    """Canonical preimage of ``f`` under :func:`res`: fewest rows, then
    lexicographically smallest inner shape."""
    _require_fc(f, "res_inv")
    runs = _runs(f)
    heights = [max(r for r, _ in run) + 1 for run in runs]
    rows = sum(heights)
    cells: dict[tuple[int, int], tuple[int, ...]] = {}
    base = 1
    for run, height in zip(runs, heights):
        for (r, c), vals in run.items():
            cells[(base + r, c + base + r - rows)] = vals
        base += height + mutations.enabled(mutations.RES_INV_STACK_OFF)  # fault: a gap row
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for i, j in cells:
        left[i] = min(left.get(i, j), j)
        right[i] = max(right.get(i, j), j)
    outer = tuple(right.get(i, 0) for i in range(1, rows + 1))
    inner = [left.get(i, 1) - 1 for i in range(1, rows + 1)]
    while inner and inner[-1] == 0:
        inner.pop()
    return _fill(f, outer, tuple(inner), cells)


def res_inv_shaped(f: DecreasingFactorization, shape: SkewShape) -> SkewSetValuedTableau:
    """The unique filling of ``shape`` with residue ``f``."""
    _require_fc(f, "res_inv_shaped")
    geo = shape.geometry
    lowest = {c: i for (i, _), c in zip(geo.cells[::-1], geo.labels[::-1])}   # label -> lowest row
    cells: dict[tuple[int, int], tuple[int, ...]] = {}
    for run in _runs(f):
        _, anchor = min(run)                      # a cell in the run's lowest row
        if anchor not in lowest:
            raise ReconstructionError(f"shape {shape} has no cell on diagonal label {anchor}")
        for (r, c), vals in run.items():
            i = lowest[anchor] + r
            cells[(i, c + i - shape.rows)] = vals
    return _fill(f, shape.outer, shape.inner, cells)
