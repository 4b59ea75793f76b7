"""Row insertion algorithms for decreasing Hecke biwords.

Both algorithms read the biword right to left.  Hecke insertion bumps
into strictly increasing tableaux and may leave the tableau unchanged,
recording such steps inside an existing corner cell of the recording
filling.  The star insertion targets tableaux whose transpose is
semistandard; its distinguishing rule fires when the inserted letter is
already present in a row, in which case the left endpoint of the maximal
consecutive run ending at that letter is bumped instead.

Micro-moves are the local rewrites (Knuth, weak Knuth and one idempotent
move) under which the star insertion tableau is invariant; words here
are always taken in insertion order, i.e. the reverse of the factorized
word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import mutations
from .errors import DomainError, ReconstructionError, ValidationError
from .factorization import HeckeBiword
from .hecke import HeckeWord, eval_word, is_fully_commutative
from .tableaux import (
    IncreasingTableau,
    RowIncreasingTableau,
    SemistandardTableau,
    SetValuedFilling,
    SkewShape,
    Tableau,
    row_word,
)

__all__ = [
    "InsertionResult",
    "hecke_insert",
    "star_insert",
    "star_insert_word",
    "star_insert_one",
    "reverse_bump",
    "star_inverse",
    "micro_moves",
    "micro_class",
    "micro_equivalent",
]

Path = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class InsertionResult:
    p: Tableau
    q: Tableau | SetValuedFilling
    trace: tuple[Path, ...] | None = field(default=None)


def _as_tableau(rows: list[list[int]], cls: type) -> Tableau:
    rows = [r for r in rows if r]
    return cls(SkewShape(tuple(map(len, rows)), ()), tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# Hecke insertion

def _hecke_can_append(rows: list[list[int]], r: int, x: int) -> bool:
    c = len(rows[r])
    if rows[r] and rows[r][-1] >= x:
        return False
    if r > 0 and (len(rows[r - 1]) <= c or rows[r - 1][c] >= x):
        return False
    return True


def _hecke_can_replace(rows: list[list[int]], r: int, c: int, x: int) -> bool:
    if c > 0 and rows[r][c - 1] >= x:
        return False
    if r > 0 and rows[r - 1][c] >= x:
        return False
    return True


def hecke_insert(b: HeckeBiword, trace: bool = False) -> InsertionResult:
    """Hecke row insertion of the biword, rightmost column first."""
    rows: list[list[int]] = []
    qrows: list[list[list[int]]] = []
    paths: list[Path] = []
    for label, x in zip(reversed(b.top), reversed(b.bottom)):
        path: list[tuple[int, int]] = []
        r = 0
        while True:
            if r == len(rows):
                rows.append([])
                qrows.append([])
            row = rows[r]
            if not row or x >= row[-1]:
                if _hecke_can_append(rows, r, x):
                    row.append(x)
                    qrows[r].append([label])
                    path.append((r + 1, len(row)))
                else:
                    # row unchanged; record inside the corner above the
                    # rightmost cell of this row
                    col = len(row) - 1
                    rr = r
                    while rr + 1 < len(rows) and len(rows[rr + 1]) > col:
                        rr += 1
                    qrows[rr][col].append(label)
                    path.append((rr + 1, col + 1))
                break
            c = next(k for k, z in enumerate(row) if z > x)
            z = row[c]
            if _hecke_can_replace(rows, r, c, x):
                row[c] = x
            path.append((r + 1, c + 1))
            x = z
            r += 1
        paths.append(tuple(path))
    rows = [r for r in rows if r]
    qrows = [r for r in qrows if r]
    shape = SkewShape(tuple(len(r) for r in rows), ())
    p = IncreasingTableau(shape, tuple(tuple(r) for r in rows))
    q = SetValuedFilling(shape, tuple(tuple(tuple(sorted(c)) for c in r) for r in qrows))
    return InsertionResult(p, q, tuple(paths) if trace else None)


# ---------------------------------------------------------------------------
# star insertion

def _star_insert_row(row: list[int], x: int) -> tuple[int | None, int]:
    """Insert ``x`` into one row in place.  Returns (bumped letter or
    None when the insertion terminates here, 0-based path column)."""
    if not row or x > row[-1]:
        row.append(x)
        return None, len(row) - 1
    if x not in row:
        c = next(k for k, z in enumerate(row) if z > x)
        y = row[c]
        row[c] = x
        return y, c
    c = row.index(x)
    if mutations.enabled(mutations.STAR_INSERT_RUN_CASE_OFF):
        return x, c
    start = c
    while start > 0 and row[start - 1] == row[start] - 1:
        start -= 1
    return row[start], c


def _star_insert_cells(rows: list[list[int]], x: int) -> Path:
    """Insert ``x`` through the rows, returning the insertion path; the
    last path cell is new exactly when the tableau grew."""
    path: list[tuple[int, int]] = []
    r = 0
    out: int | None = x
    while out is not None:
        if r == len(rows):
            rows.append([])
        before = len(rows[r])
        out, c = _star_insert_row(rows[r], out)
        path.append((r + 1, c + 1))
        if out is None and len(rows[r]) == before:
            raise AssertionError("terminating step must add a cell")
        r += 1
    return tuple(path)


def _star_insert_rows(letters: tuple[int, ...], labels, trace: bool) -> InsertionResult:
    rows: list[list[int]] = []
    qrows: list[list[int]] = []
    paths: list[Path] = []
    for x, label in zip(letters, labels):
        path = _star_insert_cells(rows, x)
        r, c = path[-1]
        if r > len(qrows):
            qrows.append([])
        qrows[r - 1].append(label)
        if len(qrows[r - 1]) != c:
            raise AssertionError("recording tableau out of step")
        paths.append(path)
    p = _as_tableau(rows, RowIncreasingTableau)
    q = _as_tableau(qrows, SemistandardTableau)
    return InsertionResult(p, q, tuple(paths) if trace else None)


def star_insert_word(letters, labels=None) -> InsertionResult:
    """Star-insert a fully-commutative sequence of letters left to right.

    ``labels`` (defaults to 1, 2, ...) fill the recording tableau at the
    cells created by each insertion.
    """
    letters = tuple(letters)
    if letters and not is_fully_commutative(eval_word(HeckeWord(letters, max(letters) + 1))):
        raise DomainError(f"word {letters} is not fully commutative")
    if labels is None:
        labels = range(1, len(letters) + 1)
    return _star_insert_rows(letters, labels, False)


def star_insert(b: HeckeBiword, trace: bool = False) -> InsertionResult:
    """Star insertion of a fully-commutative decreasing Hecke biword."""
    if b.bottom and not is_fully_commutative(b.eval()):
        raise DomainError(f"biword {b} is not fully commutative")
    return _star_insert_rows(tuple(reversed(b.bottom)), tuple(reversed(b.top)), trace)


def star_insert_one(p: RowIncreasingTableau, x: int) -> tuple[RowIncreasingTableau, Path]:
    """One star insertion step into an existing tableau."""
    word = row_word(p).letters + (x,)
    n = max(word) + 1
    if not is_fully_commutative(eval_word(HeckeWord(word, n))):
        raise DomainError(f"row word extended by {x} is not fully commutative")
    rows = [list(r) for r in p.rows]
    path = _star_insert_cells(rows, x)
    return _as_tableau(rows, RowIncreasingTableau), path


# ---------------------------------------------------------------------------
# reverse bumping and the inverse of star insertion

def _is_corner(lens: list[int], r: int) -> bool:
    return lens[r] > 0 and (r + 1 == len(lens) or lens[r + 1] < lens[r])


def _unbump(rows: list[list[int]], r: int) -> int:
    """Remove the last cell of row ``r`` (0-based), which must be an inner
    corner, and reverse-bump its letter down through the rows in place;
    returns the letter that leaves the bottom row.  A row left empty is
    deleted."""
    y = rows[r].pop()
    if not rows[r]:
        del rows[r]
    while r > 0:
        r -= 1
        row = rows[r]
        if y in row:
            c = row.index(y)
            end = c
            while end + 1 < len(row) and row[end + 1] == row[end] + 1:
                end += 1
            y = row[end]
        else:
            cands = [k for k, z in enumerate(row) if z < y]
            if not cands:
                raise ReconstructionError("reverse bump found no smaller letter")
            k = cands[-1]
            row[k], y = y, row[k]
    return y


def reverse_bump(p: RowIncreasingTableau, corner: tuple[int, int]
                 ) -> tuple[RowIncreasingTableau, int]:
    """Undo one star insertion starting at an inner corner (1-based)."""
    rows = [list(r) for r in p.rows]
    r, c = corner[0] - 1, corner[1] - 1
    lens = [len(row) for row in rows]
    if not (0 <= r < len(rows) and c == lens[r] - 1 and _is_corner(lens, r)):
        raise ValidationError(f"cell {corner} is not an inner corner of the tableau")
    y = _unbump(rows, r)
    return _as_tableau(rows, RowIncreasingTableau), y


def star_inverse(p: RowIncreasingTableau, q: SemistandardTableau) -> HeckeBiword:
    """Invert star insertion by peeling the letters of ``q`` from the
    largest down, each as a horizontal strip processed right to left.

    The letters are peeled off one list of rows; only the inputs and the
    returned biword are validated."""
    if p.shape != q.shape:
        raise ValidationError("tableaux must share a shape")
    p_word = row_word(p)
    if p_word.letters and not is_fully_commutative(eval_word(p_word)):
        raise ReconstructionError("row word of the insertion tableau has a braid")
    rows = [list(r) for r in p.rows]
    m = q.max_entry()
    top: list[int] = []
    bottom: list[int] = []
    for k in range(m, 0, -1):
        strip = sorted(((i, j) for i, j, v in q.cells() if v == k),
                       key=lambda cell: -cell[1])
        cols = [j for _, j in strip]
        if len(set(cols)) != len(cols):
            raise ReconstructionError(f"label {k} does not form a horizontal strip")
        block: list[int] = []
        for (i, j) in strip:
            lens = [len(r) for r in rows]
            if not (i - 1 < len(rows) and j == lens[i - 1] and _is_corner(lens, i - 1)):
                raise ReconstructionError(f"label {k} cell ({i},{j}) is not removable")
            block.append(_unbump(rows, i - 1))
        if any(block[a] <= block[a + 1] for a in range(len(block) - 1)):
            raise ReconstructionError(f"label {k} block is not strictly decreasing")
        top.extend([k] * len(block))
        bottom.extend(block)
    if rows:
        raise ReconstructionError("letters remain after peeling the recording tableau")
    n = max(bottom, default=0) + 1
    return HeckeBiword(tuple(top), tuple(bottom), max(n, 1), m)


# ---------------------------------------------------------------------------
# micro-moves

def micro_moves(word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Words one local rewrite away from ``word`` (both directions)."""
    out: set[tuple[int, ...]] = set()
    for i in range(len(word) - 2):
        a, b, c = word[i:i + 3]
        swaps: list[tuple[int, int, int]] = []
        if (a < c < b) or (b < c < a):                       # Knuth on first two
            swaps.append((b, a, c))
        if (b == c and b > a + 1) or (a == c and a > b + 1):  # weak Knuth, first two
            swaps.append((b, a, c))
        if (b < a < c) or (c < a < b):                       # Knuth on last two
            swaps.append((a, c, b))
        if (a == b and c > a + 1) or (a == c and b > a + 1):  # weak Knuth, last two
            swaps.append((a, c, b))
        if a == b and c == a + 1:                             # idempotent move
            swaps.append((a, a + 1, a + 1))
        if b == c and b == a + 1:
            swaps.append((a, a, a + 1))
        for triple in swaps:
            out.add(word[:i] + triple + word[i + 3:])
    out.discard(word)
    return out


def micro_class(word: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Closure of ``word`` under micro-moves."""
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for w2 in micro_moves(w):
            if w2 not in seen:
                seen.add(w2)
                frontier.append(w2)
    return frozenset(seen)


def micro_equivalent(a: HeckeWord, b: HeckeWord) -> bool:
    if a.n != b.n:
        raise ValidationError(f"mixed alphabet bounds: {a.n} != {b.n}")
    for w in (a, b):
        if not is_fully_commutative(eval_word(w)):
            raise DomainError(f"word {w} is not fully commutative")
    if len(a.letters) != len(b.letters):
        return False
    return b.letters in micro_class(a.letters)
