"""Uncrowding of set-valued tableaux and the padded star insertion.

One uncrowding step finds the topmost row still holding a multicell,
removes the largest letter lying in a multicell of that row, and
Schensted-bumps it through the rows above (which by choice of row are
all single-valued).  The recording side collects, for every step, the
vertical travel distance of the removed letter into a flagged
increasing tableau on the new cells.

``star_tilde`` reconciles this with insertion: it star-inserts the
minimal filling of the inner shape, read as diagonal labels of its cells,
ahead of the factorization, and strips that minimal filling from both
tableaux.

Both work on plain lists of rows; only the tableaux they return are
built, and so validated.
"""

from __future__ import annotations

from .errors import ValidationError
from .factorization import DecreasingFactorization, to_biword
from .insertion import InsertionResult, _check_fc_word, _star_insert_rows, star_insert
from .residue import res_inv
from .tableaux import (
    FlaggedIncreasingTableau,
    SemistandardTableau,
    SkewSetValuedTableau,
    SkewShape,
    Tableau,
    from_cells,
)

__all__ = ["uncrowd_step", "uncrowd", "t_mu", "star_tilde"]


def _uncrowd_rows(rows: list[list[list[int]]], outer: list[int]
                  ) -> tuple[tuple[int, int], int] | None:
    """One uncrowding step on ``rows`` (ascending cell lists) and their
    ``outer`` lengths, in place.  Returns the added cell and the row the
    removed letter came from, or None once no multicell is left."""
    r = max((i for i, row in enumerate(rows, start=1) if any(len(c) > 1 for c in row)),
            default=None)
    if r is None:
        return None
    _, k = max((cell[-1], k) for k, cell in enumerate(rows[r - 1]) if len(cell) > 1)
    x = rows[r - 1][k].pop()

    # Bump x up through the single-valued rows above r; the letter that
    # finds no larger entry ends its row (or opens a new one).
    i = r
    while i < len(rows):
        cell = next((cell for cell in rows[i] if cell[0] > x), None)
        if cell is None:
            break
        cell[0], x = x, cell[0]
        i += 1
    if i == len(rows):
        rows.append([])
        outer.append(0)
    rows[i].append([x])
    outer[i] += 1
    return (i + 1, outer[i]), r


def _lists(t: SkewSetValuedTableau) -> tuple[list[list[list[int]]], list[int]]:
    return [[list(cell) for cell in row] for row in t.rows], list(t.shape.outer)


def uncrowd_step(t: SkewSetValuedTableau) -> tuple[SkewSetValuedTableau, tuple[int, int], int]:
    """One uncrowding step.  Returns the new tableau, the added cell and
    the row the removed letter came from."""
    rows, outer = _lists(t)
    step = _uncrowd_rows(rows, outer)
    if step is None:
        raise ValidationError("tableau has no multicell")
    shape = SkewShape(tuple(outer), t.shape.inner)
    return SkewSetValuedTableau(shape, tuple(tuple(map(tuple, row)) for row in rows)), *step


def uncrowd(t: SkewSetValuedTableau) -> tuple[SemistandardTableau, FlaggedIncreasingTableau]:
    """Full uncrowding: a single-valued semistandard tableau together
    with the flagged recording tableau on the added cells."""
    rows, outer = _lists(t)
    recording: dict[tuple[int, int], int] = {}
    while (step := _uncrowd_rows(rows, outer)) is not None:
        added, source = step
        recording[added] = added[0] - source
    shape = SkewShape(tuple(outer), t.shape.inner)
    p = SemistandardTableau(shape, tuple(tuple(cell[0] for cell in row) for row in rows))
    q = from_cells(SkewShape(shape.outer, t.shape.outer), recording, FlaggedIncreasingTableau)
    return p, q


def t_mu(mu: tuple[int, ...]) -> SemistandardTableau:
    """The minimal semistandard filling: row ``i`` holds only letter ``i``."""
    shape = SkewShape(tuple(mu), ())
    return SemistandardTableau(shape, tuple((i + 1,) * p for i, p in enumerate(mu)))


def star_tilde(f: DecreasingFactorization) -> InsertionResult:
    """Star insertion normalized by the inner shape of the canonical
    preimage of ``f`` under the residue map."""
    return _star_tilde(f, res_inv(f))


def _star_tilde(f: DecreasingFactorization, canonical: SkewSetValuedTableau) -> InsertionResult:
    """:func:`star_tilde` of ``f``, given its canonical preimage ``res_inv(f)``.

    Row ``k`` of the inner shape ``mu`` is inserted first, as the diagonal
    labels ``rows - k + j`` of its cells in the ambient diagram and with
    label ``k``; the labels of ``f`` are shifted above them."""
    mu = canonical.shape.inner
    if not mu:
        return star_insert(to_biword(f))
    lm, ambient = len(mu), canonical.shape.rows
    letters = [ambient - k + j for k in range(1, lm + 1) for j in range(1, mu[k - 1] + 1)]
    labels = [k for k in range(1, lm + 1) for _ in range(mu[k - 1])]
    b = to_biword(f)
    word = tuple(letters) + tuple(reversed(b.bottom))
    _check_fc_word(word)
    rows, qrows, _ = _star_insert_rows(word, labels + [k + lm for k in reversed(b.top)])
    skew = SkewShape(tuple(map(len, rows)), mu)   # raises unless P contains mu
    for i, (row, a) in enumerate(zip(qrows, mu), start=1):
        if row[:a] != [i] * a:
            raise ValidationError(f"recording tableau does not contain the minimal filling "
                                  f"in row {i}")
    offsets = skew.geometry.offsets
    q = SemistandardTableau(skew, tuple(tuple(v - lm for v in row[a:])
                                        for row, a in zip(qrows, offsets)))
    p = Tableau(skew, tuple(tuple(row[a:]) for row, a in zip(rows, offsets)))
    return InsertionResult(p, q)
