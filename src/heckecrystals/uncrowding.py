"""Uncrowding of set-valued tableaux and the padded star insertion.

One uncrowding step finds the topmost row still holding a multicell,
removes the largest letter lying in a multicell of that row, and
Schensted-bumps it through the rows above (which by choice of row are
all single-valued).  A step leaves them single-valued, so ``uncrowd``
walks the rows once from the top down, stepping out of each row while it
holds a multicell.  The recording side collects, for every step, the
vertical travel distance of the removed letter into a flagged
increasing tableau on the new cells.

``star_tilde`` reconciles this with insertion: it star-inserts the
minimal filling of the inner shape, read as diagonal labels of its cells,
ahead of the factorization, and strips that minimal filling from both
tableaux.

Both work on plain lists of rows and build only the tableaux they return,
so validated; the row core of ``uncrowd``, ``_uncrowded``, takes and
returns flat cells, for the checks that compare them.
"""

from __future__ import annotations

from . import mutations
from .errors import ValidationError
from .factorization import DecreasingFactorization, to_biword
from .insertion import InsertionResult, _check_fc_word, star_insert_rows, star_insert
from .residue import res_inv
from .tableaux import (FlaggedIncreasingTableau, SemistandardTableau, SkewSetValuedTableau,
                       SkewShape, Tableau, from_cells, from_flat)

__all__ = ["uncrowd_step", "uncrowd", "t_mu", "star_tilde"]


def _uncrowd_rows(rows: list[list[list[int]]], outer: list[int], r: int) -> tuple[int, int]:
    """One uncrowding step out of row ``r`` of ``rows`` (ascending cell lists) and their
    ``outer`` lengths, in place; row ``r`` holds a multicell and no row above it does.
    Returns the added cell."""
    _, k = max((cell[-1], k) for k, cell in enumerate(rows[r - 1]) if len(cell) > 1)
    x = rows[r - 1][k].pop()

    # Bump x up through the single-valued rows above r; the letter that
    # finds no larger entry ends its row (or opens a new one).
    i = min(r + 1, len(rows)) if mutations.enabled(mutations.UNCROWD_BUMP_ROW_OFF) else r
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
    return i + 1, outer[i]


def uncrowd_step(t: SkewSetValuedTableau) -> tuple[SkewSetValuedTableau, tuple[int, int], int]:
    """One uncrowding step.  Returns the new tableau, the added cell and
    the row the removed letter came from."""
    rows, outer = [[list(cell) for cell in row] for row in t.rows], list(t.shape.outer)
    r = max((i for i, row in enumerate(rows, start=1) if any(len(c) > 1 for c in row)),
            default=None)
    if r is None:
        raise ValidationError("tableau has no multicell")
    added = _uncrowd_rows(rows, outer, r)
    shape = SkewShape(tuple(outer), t.shape.inner)
    return SkewSetValuedTableau(shape, tuple(tuple(map(tuple, row)) for row in rows)), added, r


def uncrowd(t: SkewSetValuedTableau) -> tuple[SemistandardTableau, FlaggedIncreasingTableau]:
    """Full uncrowding: a single-valued semistandard tableau together
    with the flagged recording tableau on the added cells."""
    outer, p_flat, recording = _uncrowded(t.shape, t.flat())
    return _p_tableau(t.shape, outer, p_flat), _q_tableau(recording, t.shape, outer)


def _uncrowded(shape: SkewShape, flat: tuple) -> tuple[tuple[int, ...], tuple, tuple]:
    """The row core of :func:`uncrowd` on the cells ``flat`` of ``shape``, building nothing:
    P's outer shape, P's flat cells as singletons, Q's ``((i, j), label)`` in flat order."""
    cells = iter(flat)
    rows = [[list(next(cells)) for _ in row] for row in shape.geometry.rows]
    outer, recording = list(shape.outer), []
    for r in range(len(rows), 0, -1):
        while any(len(c) > 1 for c in rows[r - 1]):
            added = _uncrowd_rows(rows, outer, r)
            recording.append((added, added[0] - r))
    p_flat = tuple(tuple(cell) for row in rows for cell in row)
    return tuple(outer), p_flat, tuple(sorted(recording))


def _p_tableau(shape: SkewShape, outer: tuple, p_flat: tuple) -> SemistandardTableau:
    """P from :func:`_uncrowded` on ``shape``, built and so validated."""
    p = tuple(v for v, in p_flat)
    return from_flat(SkewShape(outer, shape.inner), p, SemistandardTableau)


def _q_tableau(recording: tuple, shape: SkewShape, outer: tuple) -> FlaggedIncreasingTableau:
    """Q from :func:`_uncrowded` on ``shape``, built and so validated."""
    return from_cells(SkewShape(outer, shape.outer), dict(recording), FlaggedIncreasingTableau)


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
    rows, qrows, _ = star_insert_rows(word, labels + [k + lm for k in reversed(b.top)])
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
