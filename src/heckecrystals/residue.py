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
permutation fixed.  Otherwise it opens a new cell, in the row of the
latest cell on ``c + 1`` and one row below the latest cells on ``c - 1``
and ``c``.  These links fix the rows inside each run of consecutive
labels.  A row never holds two runs, and runs with larger labels sit
lower, so only the height of each run is free; where two runs' labels
differ by exactly two they touch at a corner.

``res_inv`` stacks the runs with no empty rows between them, which gives
the canonical preimage: fewest rows, then lexicographically smallest
inner shape.  ``res_inv_shaped`` instead anchors each run on the given
shape and returns the unique filling on it.
"""

from __future__ import annotations

from .errors import DomainError, ReconstructionError, ValidationError
from .factorization import DecreasingFactorization
from .tableaux import SetValuedFilling, SkewSetValuedTableau, SkewShape, from_cells

__all__ = ["res", "res_inv", "res_inv_shaped"]

Run = dict[tuple[int, int], tuple[int, ...]]   # (row, label) -> letters, row 0 lowest


def res(t: SetValuedFilling, m: int | None = None) -> DecreasingFactorization:
    """Factorization whose block ``k`` lists the diagonal labels of the
    cells of ``t`` containing ``k``, in decreasing order."""
    top = t.max_entry()
    if m is None:
        m = top
    if top > m:
        raise ValidationError(f"tableau entry {top} exceeds block count {m}")
    blocks: list[list[int]] = [[] for _ in range(m)]
    for i, j, cell in t.cells():
        c = t.shape.content(i, j)
        for k in cell:
            blocks[k - 1].append(c)
    factors = tuple(tuple(sorted(blocks[m - 1 - pos], reverse=True)) for pos in range(m))
    n = max((c for blk in factors for c in blk), default=0) + 1
    return DecreasingFactorization(factors, max(n, 1))


def _require_fc(f: DecreasingFactorization, what: str) -> None:
    if not f.fully_commutative:
        raise DomainError(f"{what} requires a fully-commutative factorization, got {f}")


def _runs(f: DecreasingFactorization) -> list[Run]:
    """The heap of ``f``, one run of consecutive labels at a time, the
    run with the largest labels first."""
    labels: list[int] = []                        # per cell, in the order cells open
    letters: list[list[int]] = []
    links: list[list[tuple[int, int]]] = []       # (other cell, its row minus this row)
    top: dict[int, int] = {}                      # label -> latest cell on it
    for k in range(f.m, 0, -1):
        for c in f.factor(k):
            latest = top.get(c, -1)
            if latest > top.get(c - 1, -1) and latest > top.get(c + 1, -1):
                letters[latest].append(k)
                continue
            new = len(labels)
            labels.append(c)
            letters.append([k])
            links.append([])
            for label, up in ((c + 1, 0), (c - 1, 1), (c, 1)):
                if label in top:
                    links[new].append((top[label], up))
                    links[top[label]].append((new, -up))
            top[c] = new

    row: list[int | None] = [None] * len(labels)
    runs: list[Run] = []
    for first in range(len(labels)):
        if row[first] is not None:
            continue
        row[first] = 0
        run, todo = [first], [first]
        while todo:
            u = todo.pop()
            for v, up in links[u]:
                if row[v] is None:
                    row[v] = row[u] + up
                    run.append(v)
                    todo.append(v)
        low = min(row[u] for u in run)
        runs.append({(row[u] - low, labels[u]): tuple(reversed(letters[u])) for u in run})
    runs.sort(key=lambda run: -max(c for _, c in run))
    return runs


def _fill(f: DecreasingFactorization, outer: tuple[int, ...], inner: tuple[int, ...],
          cells: dict[tuple[int, int], tuple[int, ...]]) -> SkewSetValuedTableau:
    """The tableau with ``cells`` on ``outer/inner``; any way in which it
    fails to be a preimage of ``f`` is a :class:`ReconstructionError`."""
    try:
        t = from_cells(SkewShape(outer, inner), cells)
    except ValidationError as exc:
        raise ReconstructionError(f"no skew filling realizes {f}: {exc}") from exc
    if res(t, f.m).factors != f.factors:
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
        base += height
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
    lowest: dict[int, int] = {}                   # label -> lowest row of shape on it
    for i, j in shape.geometry.cells:
        lowest.setdefault(shape.content(i, j), i)
    cells: dict[tuple[int, int], tuple[int, ...]] = {}
    for run in _runs(f):
        _, anchor = min(run)                      # a cell in the run's lowest row
        if anchor not in lowest:
            raise ReconstructionError(f"shape {shape} has no cell on diagonal label {anchor}")
        for (r, c), vals in run.items():
            i = lowest[anchor] + r
            cells[(i, c + i - shape.rows)] = vals
    return _fill(f, shape.outer, shape.inner, cells)
