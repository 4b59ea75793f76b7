"""Uncrowding of set-valued tableaux and the padded star insertion.

One uncrowding step finds the topmost row still holding a multicell,
removes the largest letter lying in a multicell of that row, and
Schensted-bumps it through the rows above (which by choice of row are
all single-valued).  The recording side collects, for every step, the
vertical travel distance of the removed letter into a flagged
increasing tableau on the new cells.

``star_tilde`` reconciles this with insertion: it appends the residue of
the minimal filling of the inner shape to a factorization, star-inserts
the product, and strips that minimal filling from the recording tableau.
"""

from __future__ import annotations

from .errors import ValidationError
from .factorization import DecreasingFactorization, HeckeBiword, to_biword
from .insertion import InsertionResult, star_insert
from .residue import res_inv
from .tableaux import (
    FlaggedIncreasingTableau,
    SemistandardTableau,
    SetValuedFilling,
    SkewSetValuedTableau,
    SkewShape,
    Tableau,
    from_cells,
)

__all__ = ["uncrowd_step", "uncrowd", "t_mu", "star_tilde"]


def _topmost_multicell_row(t: SetValuedFilling) -> int | None:
    return max((i for i, row in enumerate(t.rows, start=1) if any(len(c) > 1 for c in row)),
               default=None)


def uncrowd_step(t: SkewSetValuedTableau) -> tuple[SkewSetValuedTableau, tuple[int, int], int]:
    """One uncrowding step.  Returns the new tableau, the added cell and
    the row the removed letter came from."""
    r = _topmost_multicell_row(t)
    if r is None:
        raise ValidationError("tableau has no multicell")
    rows = [[list(cell) for cell in row] for row in t.rows]
    outer = list(t.shape.outer)
    x, k = max((cell[-1], k) for k, cell in enumerate(rows[r - 1]) if len(cell) > 1)
    rows[r - 1][k].remove(x)

    # Bump x up through the rows above r; a bump stays inside its row, so
    # the letter that finds no larger entry ends its row (or opens a new one).
    i = r + 1
    while i <= len(rows):
        cell = next((cell for cell in rows[i - 1] if min(cell) > x), None)
        if cell is None:
            break
        y = min(cell)
        cell.remove(y)
        cell.append(x)
        x = y
        i += 1
    if i > len(rows):
        rows.append([])
        outer.append(0)
    rows[i - 1].append([x])
    outer[i - 1] += 1

    shape = SkewShape(tuple(outer), t.shape.inner)
    new_rows = tuple(tuple(tuple(sorted(cell)) for cell in row) for row in rows)
    return SkewSetValuedTableau(shape, new_rows), (i, outer[i - 1]), r


def uncrowd(t: SkewSetValuedTableau) -> tuple[SemistandardTableau, FlaggedIncreasingTableau]:
    """Full uncrowding: a single-valued semistandard tableau together
    with the flagged recording tableau on the added cells."""
    recording: dict[tuple[int, int], int] = {}
    cur = t
    while _topmost_multicell_row(cur) is not None:
        cur, added, source = uncrowd_step(cur)
        recording[added] = added[0] - source
    p_rows = tuple(tuple(cell[0] for cell in row) for row in cur.rows)
    p = SemistandardTableau(cur.shape, p_rows)
    q_shape = SkewShape(cur.shape.outer, t.shape.outer)
    q = from_cells(q_shape, recording, FlaggedIncreasingTableau)
    return p, q


def t_mu(mu: tuple[int, ...]) -> SemistandardTableau:
    """The minimal semistandard filling: row ``i`` holds only letter ``i``."""
    shape = SkewShape(tuple(mu), ())
    return SemistandardTableau(shape, tuple((i + 1,) * p for i, p in enumerate(mu)))


def _product_biword(f: DecreasingFactorization, g: DecreasingFactorization) -> HeckeBiword:
    """Biword of the concatenation ``f . g`` where the blocks of ``g``
    take indices 1..g.m and those of ``f`` are shifted above them."""
    n = max(f.n, g.n)
    bf, bg = to_biword(f), to_biword(g)
    top = tuple(k + g.m for k in bf.top) + bg.top
    return HeckeBiword(top, bf.bottom + bg.bottom, n, f.m + g.m)


def _padding(mu: tuple[int, ...], ambient_rows: int) -> DecreasingFactorization:
    """The residue of the minimal filling of ``mu`` sitting inside an
    ambient diagram with ``ambient_rows`` rows: block ``k`` covers the
    diagonal labels of the cells of row ``k``."""
    factors = []
    for k in range(len(mu), 0, -1):
        factors.append(tuple(range(ambient_rows - k + mu[k - 1], ambient_rows - k, -1)))
    n = max((c for blk in factors for c in blk), default=0) + 1
    return DecreasingFactorization(tuple(factors), max(n, 1))


def star_tilde(f: DecreasingFactorization, trace: bool = False) -> InsertionResult:
    """Star insertion normalized by the inner shape of the canonical
    preimage of ``f`` under the residue map."""
    return _star_tilde(f, res_inv(f), trace)


def _star_tilde(f: DecreasingFactorization, canonical: SkewSetValuedTableau,
                trace: bool = False) -> InsertionResult:
    """:func:`star_tilde` of ``f``, given its canonical preimage ``res_inv(f)``."""
    mu = canonical.shape.inner
    if not mu:
        return star_insert(to_biword(f), trace=trace)
    lm = len(mu)
    pad = _padding(mu, canonical.shape.rows)
    result = star_insert(_product_biword(f, pad), trace=trace)
    p_star, q_star = result.p, result.q
    outer = p_star.shape.outer
    if len(outer) < lm or any(outer[i] < mu[i] for i in range(lm)):
        raise ValidationError("insertion tableau does not contain the inner shape")
    for i in range(1, lm + 1):
        for j in range(1, mu[i - 1] + 1):
            if q_star.cell(i, j) != i:
                raise ValidationError(
                    f"recording tableau does not contain the minimal filling at ({i},{j})")
    skew = SkewShape(outer, mu)
    q = from_cells(skew, {(i, j): v - lm for i, j, v in q_star.cells() if (i, j) in skew},
                   SemistandardTableau)
    p = from_cells(skew, {(i, j): v for i, j, v in p_star.cells() if (i, j) in skew}, Tableau)
    return InsertionResult(p, q, result.trace)
