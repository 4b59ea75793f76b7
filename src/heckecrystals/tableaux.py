"""Skew shapes and tableaux, in French notation throughout.

Row 1 is the bottom row and row indices increase upward; every
serialization and pretty-printer in the package states this convention.
Cells of set-valued fillings are stored as ascending tuples so that
hashing and equality are deterministic.  The recording filling of Hecke
insertion may repeat a label inside a cell, so the base class permits
duplicates; :class:`SkewSetValuedTableau` rejects them along with the
other semistandardness conditions.

A shape owns its geometry (:class:`Geometry`): row offsets, the cells of
each row, the flat cells (bottom row first, left to right, so a cell's flat
index is its place in ``rows`` read one row after another) with a cell to
index map, each cell's right and upper neighbour, each column's cells, and
the hash.  It is shared per ``(outer, inner)`` through one bounded table,
which first checks both partitions and their containment: each distinct
shape is checked once while the table holds it, and an invalid one, which
the table never keeps, raises on every construction.  Fillings read, build
(:func:`from_cells`) and change (:meth:`_Filling.with_cells`) cells through
it, and cache their hash.

Every filling is validated on every construction, with one walk over the
cells that meets each cell together with its right and upper neighbours;
each tableau class states only whether rows and columns increase weakly or
strictly.  Operators, insertion and uncrowding build the tableaux they
return through the same constructors, so a broken operator fails where it
returns a bad tableau; their intermediate steps work on plain lists of rows
and build none.  A trusted constructor would be a second construction
path, and it would let exactly the faults that the mutation tests inject
pass unseen.

:func:`svt_fillings` is the one enumerator of fillings: every
semistandard set-valued filling of a shape, the semistandard tableaux
among them with ``max_excess=0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import Any, ClassVar, Iterator, Mapping

from .errors import ValidationError
from .hecke import HeckeWord

__all__ = [
    "Geometry",
    "SkewShape",
    "SetValuedFilling",
    "SkewSetValuedTableau",
    "Tableau",
    "SemistandardTableau",
    "RowIncreasingTableau",
    "IncreasingTableau",
    "FlaggedIncreasingTableau",
    "weight_of",
    "excess_of",
    "row_word",
    "svt_fillings",
]


@dataclass(frozen=True, eq=False, slots=True)
class Geometry:
    """Where one shape's cells sit; a flat index of -1 marks a missing neighbour."""

    offsets: tuple[int, ...]                      # per row, inner cells left of it
    rows: tuple[tuple[tuple[int, int], ...], ...]  # per row, its (i, j) cells
    cells: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    right: tuple[int, ...]                        # per cell, the flat index of (i, j + 1)
    up: tuple[int, ...]                           # per cell, the flat index of (i + 1, j)
    columns: tuple[tuple[int, ...], ...]          # per column 1..width, lowest cell first
    hash: int


# Each check walks one shape at a time; 256 also holds the distinct shapes of
# a long-lived residue sample, whose equal shapes would otherwise keep copies.
_GEOMETRIES = 256


@lru_cache(maxsize=_GEOMETRIES)
def _geometry(outer: tuple[int, ...], inner: tuple[int, ...]) -> Geometry:
    for parts, name in ((outer, "outer shape"), (inner, "inner shape")):
        if any(p <= 0 for p in parts):
            raise ValidationError(f"{name} has non-positive parts: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValidationError(f"{name} is not weakly decreasing: {parts}")
    if len(inner) > len(outer):
        raise ValidationError("inner shape has more rows than outer shape")
    if any(a > b for a, b in zip(inner, outer)):
        raise ValidationError(f"inner shape {inner} not contained in {outer}")
    offsets = inner + (0,) * (len(outer) - len(inner))
    rows = tuple(tuple((i, j) for j in range(a + 1, b + 1))
                 for i, (a, b) in enumerate(zip(offsets, outer), start=1))
    cells = tuple(c for row in rows for c in row)
    index = {c: k for k, c in enumerate(cells)}
    return Geometry(
        offsets, rows, cells, index,
        right=tuple(index.get((i, j + 1), -1) for i, j in cells),
        up=tuple(index.get((i + 1, j), -1) for i, j in cells),
        columns=tuple(tuple(k for k, (_, j) in enumerate(cells) if j == col)
                      for col in range(1, max(outer, default=0) + 1)),
        hash=hash((outer, inner)))


@dataclass(frozen=True)
class SkewShape:
    """Outer and inner partitions with ``inner`` contained in ``outer``."""

    outer: tuple[int, ...]
    inner: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _geometry(self.outer, self.inner)   # checks each distinct shape once

    @cached_property
    def geometry(self) -> Geometry:
        """Built on first use, and shared with every equal shape."""
        return _geometry(self.outer, self.inner)

    @property
    def rows(self) -> int:
        return len(self.outer)

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def content(self, i: int, j: int) -> int:
        """Diagonal label ``rows + j - i`` of the cell ``(i, j)``."""
        return self.rows + j - i

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self.geometry.index

    def __hash__(self) -> int:
        return self.geometry.hash

    def __str__(self) -> str:
        outer = ",".join(str(p) for p in self.outer)
        inner = ",".join(str(p) for p in self.inner)
        return f"{outer}/{inner}" if self.inner else outer


@dataclass(frozen=True, eq=False)
class _Filling:
    """Cells on a skew shape, stored row by row: ``rows[i - 1]`` holds row
    ``i`` from left to right, its first cell in column ``inner_i + 1``.

    The constructor checks the row lengths, then each row's cells
    (:meth:`_row_problem`), then the order conditions between cells
    (:meth:`_violation`), and raises on the first failure.
    """

    shape: SkewShape
    rows: tuple

    def __post_init__(self) -> None:
        rows = self.shape.geometry.rows
        if len(self.rows) != len(rows):
            raise ValidationError(f"expected {len(rows)} rows, got {len(self.rows)}")
        for i, (row, cells) in enumerate(zip(self.rows, rows), start=1):
            problem = (f"row {i} has {len(row)} cells, shape wants {len(cells)}"
                       if len(row) != len(cells) else self._row_problem(i, row))
            if problem is not None:
                raise ValidationError(problem)
        problem = self._violation()
        if problem is not None:
            raise ValidationError(problem)

    def _row_problem(self, i: int, row: tuple) -> str | None:
        raise NotImplementedError

    def _letters(self) -> Iterator[int]:
        raise NotImplementedError

    def _violation(self) -> str | None:
        return None

    def cell(self, i: int, j: int):
        if (i, j) not in self.shape:
            raise ValidationError(f"cell ({i}, {j}) outside shape {self.shape}")
        return self.rows[i - 1][j - 1 - self.shape.geometry.offsets[i - 1]]

    def flat(self) -> tuple:
        """Every cell's content, in the order of the shape's flat cells."""
        return tuple(chain.from_iterable(self.rows))

    def cells(self) -> Iterator[tuple[int, int, Any]]:
        """``(i, j, cell)`` for every cell, bottom row first and left to right."""
        return ((i, j, cell) for (i, j), cell in zip(self.shape.geometry.cells, self.flat()))

    def with_cells(self, changes: Mapping[tuple[int, int], Any]):
        """This filling with ``changes[(i, j)]`` in cell ``(i, j)``, validated anew."""
        offsets = self.shape.geometry.offsets
        rows = list(self.rows)
        for (i, j), cell in changes.items():
            self.cell(i, j)   # raises outside the shape
            row, k = rows[i - 1], j - 1 - offsets[i - 1]
            rows[i - 1] = row[:k] + (cell,) + row[k + 1:]
        return type(self)(self.shape, tuple(rows))

    def max_entry(self) -> int:
        return max(self._letters(), default=0)

    def __eq__(self, other: object) -> bool:
        # a set-valued filling never equals a single-valued tableau
        if not isinstance(other, _Filling) or isinstance(other, Tableau) != isinstance(self, Tableau):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.shape, self.rows)))
            return self._hash

    def __str__(self) -> str:
        return pretty(self)


def _neighbours(t: _Filling) -> Iterator[tuple[tuple[int, int], Any, Any, Any]]:
    """``((i, j), cell, right, up)`` for every cell of ``t`` in flat order, with the
    cells at ``(i, j + 1)`` and ``(i + 1, j)``, or None outside the shape."""
    geo = t.shape.geometry
    flat = t.flat() + (None,)   # a missing neighbour, -1, reads None
    return zip(geo.cells, flat, map(flat.__getitem__, geo.right),
               map(flat.__getitem__, geo.up))


class SetValuedFilling(_Filling):
    """A skew shape with a nonempty ascending tuple of labels per cell.

    Labels may repeat inside a cell (needed for Hecke recording
    fillings); no order conditions between cells are imposed here.
    """

    def _row_problem(self, i: int, row: tuple) -> str | None:
        for cell in row:
            if not cell:
                return f"empty cell in row {i}"
            if len(cell) > 1 and any(a > b for a, b in zip(cell, cell[1:])):
                return f"cell {cell} in row {i} is not ascending"
            if cell[0] < 1:
                return f"cell {cell} in row {i} has entries < 1"
        return None

    def _letters(self) -> Iterator[int]:
        return (v for row in self.rows for cell in row for v in cell)


class SkewSetValuedTableau(SetValuedFilling):
    """Semistandard set-valued tableau: duplicate-free cells, weak rows
    (max of a cell <= min of its right neighbor), strict columns."""

    def _violation(self) -> str | None:
        for (i, j), cell, right, up in _neighbours(self):
            if len(set(cell)) != len(cell):
                return f"cell ({i},{j}) repeats an entry: {cell}"
            if right is not None and cell[-1] > right[0]:
                return (f"row condition fails between ({i},{j}) and ({i},{j + 1}): "
                        f"max{cell} > min{right}")
            if up is not None and cell[-1] >= up[0]:
                return (f"column condition fails between ({i},{j}) and ({i + 1},{j}): "
                        f"max{cell} >= min{up}")
        return None


class Tableau(_Filling):
    """A skew shape with a single positive integer per cell.

    Subclasses order their cells through ``row_strict`` and
    ``col_strict``: None imposes nothing, False asks each cell to be at
    most its right (upper) neighbour, True strictly less.
    """

    row_strict: ClassVar[bool | None] = None
    col_strict: ClassVar[bool | None] = None

    def _row_problem(self, i: int, row: tuple) -> str | None:
        return f"row {i} has entries < 1" if row and min(row) < 1 else None

    def _letters(self) -> Iterator[int]:
        return (v for row in self.rows for v in row)

    def _violation(self) -> str | None:
        """The first row violation, else the first column violation."""
        rs, cs = self.row_strict, self.col_strict
        if rs is None and cs is None:
            return None
        column = None
        for (i, j), v, right, up in _neighbours(self):
            if rs is not None and right is not None and (v >= right if rs else v > right):
                return (f"row {i} is not strictly increasing at column {j}" if rs
                        else f"row {i} decreases at column {j}")
            if column is None and cs is not None and up is not None and (
                    v >= up if cs else v > up):
                column = (f"column {j} is not strictly increasing at row {i}" if cs
                          else f"column {j} decreases at row {i}")
        return column

    def as_set_valued(self) -> SetValuedFilling:
        rows = tuple(tuple((v,) for v in row) for row in self.rows)
        return SetValuedFilling(self.shape, rows)


class SemistandardTableau(Tableau):
    """Rows weakly increase, columns strictly increase."""

    row_strict, col_strict = False, True


class RowIncreasingTableau(Tableau):
    """Rows strictly increase, columns weakly increase (transpose is
    semistandard)."""

    row_strict, col_strict = True, False


class IncreasingTableau(Tableau):
    """Rows and columns strictly increase."""

    row_strict, col_strict = True, True


class FlaggedIncreasingTableau(Tableau):
    """Strictly increasing skew filling with entries in row ``i`` at most
    ``i - 1``; here outer and inner shapes share the first part, so the
    bottom row carries no cells."""

    row_strict, col_strict = True, True

    def _violation(self) -> str | None:
        if self.rows and self.rows[0]:
            return "flagged tableau must have an empty bottom row"
        return super()._violation() or next(
            (f"entry {v} in row {i} exceeds the flag {i - 1}"
             for i, row in enumerate(self.rows, start=1) for v in row if v > i - 1), None)


def weight_of(t: SetValuedFilling | Tableau, length: int = 0) -> tuple[int, ...]:
    """Multiplicity vector of the letters ``1..max``, padded with zeros to ``length``."""
    entries = list(t._letters())
    counts = [0] * max(max(entries, default=0), length)
    for v in entries:
        counts[v - 1] += 1
    return tuple(counts)


def excess_of(t: SetValuedFilling) -> int:
    return sum(len(c) for row in t.rows for c in row) - t.shape.size()


def row_word(p: Tableau, n: int | None = None) -> HeckeWord:
    """Row reading word: rows top to bottom, each left to right."""
    letters = tuple(v for row in reversed(p.rows) for v in row)
    if n is None:
        n = max(letters, default=0) + 1
    return HeckeWord(letters, max(n, 1))


def pretty(t: SetValuedFilling | Tableau) -> str:
    """Diagram layout with the top row first and inner cells dotted."""

    def text(v: int | tuple[int, ...]) -> str:
        if isinstance(v, tuple):
            return "".join(map(str, v)) if all(x <= 9 for x in v) else ",".join(map(str, v))
        return str(v)

    width = max(t.shape.outer, default=0)
    grid = [["."] * a + [text(v) for v in row] + [""] * (width - a - len(row))
            for row, a in reversed(list(zip(t.rows, t.shape.geometry.offsets)))]
    colw = [max((len(row[c]) for row in grid), default=1) for c in range(width)]
    lines = [" ".join(row[c].ljust(colw[c]) for c in range(width)).rstrip() for row in grid]
    return "\n".join(line for line in lines if line) or "(empty)"


def from_cells(shape: SkewShape, cells: Mapping[tuple[int, int], Any],
               cls: type = SkewSetValuedTableau) -> SetValuedFilling | Tableau:
    """The filling of class ``cls`` on ``shape`` whose cell ``(i, j)`` holds
    ``cells[(i, j)]`` (an ascending tuple for set-valued classes, an int
    for single-valued ones); the one map from cells to rows."""
    try:
        rows = tuple(tuple(map(cells.__getitem__, row)) for row in shape.geometry.rows)
    except KeyError as exc:
        raise ValidationError(f"missing cell {exc.args[0]}") from None
    return cls(shape, rows)


def svt_fillings(shape: SkewShape, m: int,
                 max_excess: int | None = None) -> Iterator[SkewSetValuedTableau]:
    """Every semistandard set-valued filling of ``shape`` with entries at
    most ``m`` (and bounded surplus when requested)."""
    geo = shape.geometry
    largest = m if max_excess is None else min(m, max_excess + 1)
    subsets = [s for r in range(1, largest + 1) for s in combinations(range(1, m + 1), r)]
    before = [(geo.index.get((i, j - 1)), geo.index.get((i - 1, j))) for i, j in geo.cells]
    flat: list[tuple[int, ...]] = []

    def rec(extra: int) -> Iterator[SkewSetValuedTableau]:
        if len(flat) == len(before):
            yield from_cells(shape, dict(zip(geo.cells, flat)))
            return
        left, below = before[len(flat)]
        lo = flat[left][-1] if left is not None else 1
        strict_lo = flat[below][-1] if below is not None else 0
        for s in subsets:
            surplus = extra + len(s) - 1
            if s[0] < lo or s[0] <= strict_lo or (max_excess is not None
                                                   and surplus > max_excess):
                continue
            flat.append(s)
            yield from rec(surplus)
            flat.pop()

    yield from rec(0)
