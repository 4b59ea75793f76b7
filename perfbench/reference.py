"""Reference combinatorics for the benchmark, written apart from the program.

Nothing here imports ``heckecrystals``: every count and checker is an
independent implementation of the definitions, so the benchmark can judge
the program's outputs instead of trusting them.

Conventions match the program's documented ones.  Shapes are French (row 1
at the bottom) and a filling is a tuple of rows, each a tuple of cells, each
an ascending tuple of letters.  A factorization is a tuple of blocks written
leftmost first (block m, ..., block 1).  The residue map puts the diagonal
label ``rows + j - i`` of a cell ``(i, j)`` holding letter ``k`` into block
``k``.

``python3 perfbench/reference.py`` runs the checker self-test and prints
every reference count; ``run.py`` computes them afresh in each run (well
under a second).
"""

from __future__ import annotations

import sys
from itertools import combinations, combinations_with_replacement, permutations

Shape = tuple[tuple[int, ...], tuple[int, ...]]          # (outer, inner)
Filling = tuple[tuple[tuple[int, ...], ...], ...]


# ---------------------------------------------------------------------------
# permutations, the Demazure product and 321-avoidance

def demazure(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """0-Hecke product of ``word`` in S_n, as a one-line permutation: the
    letter ``a`` swaps positions ``a`` and ``a + 1`` only when that adds an
    inversion."""
    p = list(range(1, n + 1))
    for a in word:
        if p[a - 1] < p[a]:
            p[a - 1], p[a] = p[a], p[a - 1]
    return tuple(p)


def avoids_321(p: tuple[int, ...]) -> bool:
    """A permutation avoids 321 iff the entries that are not left-to-right
    maxima increase (the permutation is a union of two increasing runs)."""
    top, last_low = 0, 0
    for v in p:
        if v > top:
            top = v
        elif v < last_low:
            return False
        else:
            last_low = v
    return True


def count_321_avoiding(n: int) -> int:
    return sum(avoids_321(p) for p in permutations(range(1, n + 1)))


def decreasing_blocks(n: int) -> list[tuple[int, ...]]:
    """Every strictly decreasing block over the letters 1..n-1."""
    letters = range(n - 1, 0, -1)
    return [blk for r in range(n) for blk in combinations(letters, r)]


def count_fc_factorizations(n: int, m: int, max_letters: int) -> int:
    """Factorizations into ``m`` decreasing blocks, at most ``max_letters``
    letters in all, whose Demazure product in S_n avoids 321."""
    blocks = decreasing_blocks(n)
    total = 0

    def rec(pos: int, word: tuple[int, ...]) -> None:
        nonlocal total
        if pos == m:
            total += avoids_321(demazure(word, n))
            return
        for blk in blocks:
            if len(word) + len(blk) <= max_letters:
                rec(pos + 1, word + blk)

    rec(0, ())
    return total


def count_block_sequences(blocks: tuple[tuple[int, ...], ...], m: int,
                          max_letters: int) -> int:
    """Sequences of ``m`` blocks from ``blocks`` with at most
    ``max_letters`` letters in all."""
    ways = {0: 1}
    for _ in range(m):
        nxt: dict[int, int] = {}
        for used, w in ways.items():
            for blk in blocks:
                if used + len(blk) <= max_letters:
                    nxt[used + len(blk)] = nxt.get(used + len(blk), 0) + w
        ways = nxt
    return sum(ways.values())


# ---------------------------------------------------------------------------
# skew shapes and semistandard set-valued fillings

def partitions(max_parts: int, max_part: int) -> list[tuple[int, ...]]:
    """Partitions with at most ``max_parts`` parts, each at most
    ``max_part``, the empty one included."""
    out = [()]
    for k in range(1, max_parts + 1):
        out += [tuple(sorted(c, reverse=True))
                for c in combinations_with_replacement(range(1, max_part + 1), k)]
    return out


def skew_shapes(max_cells: int, max_rows: int, max_cols: int) -> list[Shape]:
    """Every pair ``outer / inner`` inside the box with 1..max_cells cells.
    Rows of ``outer`` that ``inner`` fills completely stay: they shift the
    diagonal labels, so they are different shapes."""
    out = []
    for outer in partitions(max_rows, max_cols):
        if not outer:
            continue
        for inner in partitions(len(outer), outer[0]):
            if any(inner[i] > outer[i] for i in range(len(inner))):
                continue
            if 1 <= sum(outer) - sum(inner) <= max_cells:
                out.append((outer, inner))
    out.sort()
    return out


def shape_cells(shape: Shape) -> list[tuple[int, int]]:
    outer, inner = shape
    return [(i, j) for i in range(1, len(outer) + 1)
            for j in range((inner[i - 1] if i <= len(inner) else 0) + 1, outer[i - 1] + 1)]


def svt_cell_maps(shape: Shape, m: int, max_excess: int | None = None):
    """Every semistandard set-valued filling of ``shape`` with letters at
    most ``m``, as a dict from cell to an ascending tuple.  Cells are filled
    bottom row first, left to right, so the left and lower neighbours are
    known: a cell's least letter is at least the left cell's greatest and
    above the lower cell's greatest."""
    cells = shape_cells(shape)
    subsets = [s for r in range(1, m + 1) for s in combinations(range(1, m + 1), r)]
    filling: dict[tuple[int, int], tuple[int, ...]] = {}

    def rec(idx: int, extra: int):
        if idx == len(cells):
            yield filling
            return
        i, j = cells[idx]
        left = filling.get((i, j - 1))
        below = filling.get((i - 1, j))
        for s in subsets:
            if left is not None and s[0] < left[-1]:
                continue
            if below is not None and s[0] <= below[-1]:
                continue
            if max_excess is not None and extra + len(s) - 1 > max_excess:
                continue
            filling[(i, j)] = s
            yield from rec(idx + 1, extra + len(s) - 1)
            del filling[(i, j)]

    yield from rec(0, 0)


def count_svt(m: int, max_cells: int, max_rows: int, max_cols: int,
              max_excess: int | None = None) -> int:
    return sum(1 for shape in skew_shapes(max_cells, max_rows, max_cols)
               for _ in svt_cell_maps(shape, m, max_excess))


def rows_of(shape: Shape, cells: dict[tuple[int, int], tuple[int, ...]]) -> Filling:
    outer, inner = shape
    return tuple(tuple(cells[(i, j)] for j in range((inner[i - 1] if i <= len(inner) else 0) + 1,
                                                     outer[i - 1] + 1))
                 for i in range(1, len(outer) + 1))


# ---------------------------------------------------------------------------
# checkers for the residue inverse

def residue(shape: Shape, rows: Filling, m: int) -> tuple[tuple[int, ...], ...] | None:
    """Blocks m..1 (leftmost first); cell (i, j) with letter k puts
    ``rows + j - i`` into block k, and each block is read decreasing.
    None when a letter lies outside 1..m."""
    outer, inner = shape
    height = len(outer)
    blocks: list[list[int]] = [[] for _ in range(m)]
    for i, row in enumerate(rows, start=1):
        first = inner[i - 1] if i <= len(inner) else 0
        for col, cell in enumerate(row, start=first + 1):
            for k in cell:
                if not 1 <= k <= m:
                    return None
                blocks[k - 1].append(height + col - i)
    return tuple(tuple(sorted(blocks[k - 1], reverse=True)) for k in range(m, 0, -1))


def semistandard_problem(shape: Shape, rows: Filling) -> str | None:
    """First reason ``rows`` is not a semistandard set-valued filling of the
    skew shape, or None.  Cells are nonempty strictly increasing sets; along
    a row the greatest letter of a cell is at most the least letter of its
    right neighbour; up a column it is below the least letter of the cell
    above."""
    outer, inner = shape
    if any(a < b for a, b in zip(outer, outer[1:])) or any(a < b for a, b in zip(inner, inner[1:])):
        return f"{outer}/{inner} is not a pair of partitions"
    if len(inner) > len(outer) or any(v <= 0 for v in outer + inner):
        return f"{outer}/{inner} is not a pair of partitions"
    if any(inner[i] > outer[i] for i in range(len(inner))):
        return f"{inner} does not fit inside {outer}"
    if len(rows) != len(outer):
        return f"{len(rows)} rows for a shape with {len(outer)}"
    cells: dict[tuple[int, int], tuple[int, ...]] = {}
    for i, row in enumerate(rows, start=1):
        first = inner[i - 1] if i <= len(inner) else 0
        if len(row) != outer[i - 1] - first:
            return f"row {i} has {len(row)} cells, the shape wants {outer[i - 1] - first}"
        for col, cell in enumerate(row, start=first + 1):
            if not cell or any(a >= b for a, b in zip(cell, cell[1:])) or cell[0] < 1:
                return f"cell ({i},{col}) = {cell} is not a nonempty increasing set"
            cells[(i, col)] = tuple(cell)
    for (i, j), cell in cells.items():
        right = cells.get((i, j + 1))
        if right is not None and cell[-1] > right[0]:
            return f"row rule fails at ({i},{j})"
        above = cells.get((i + 1, j))
        if above is not None and cell[-1] >= above[0]:
            return f"column rule fails at ({i},{j})"
    return None


def label_clusters(blocks: tuple[tuple[int, ...], ...]) -> list[int]:
    """Letters per cluster, where a cluster is a maximal run of the occupied
    diagonal labels with gaps of at most two (gaps of three or more let
    groups of cells slide apart)."""
    count: dict[int, int] = {}
    for blk in blocks:
        for c in blk:
            count[c] = count.get(c, 0) + 1
    sizes: list[int] = []
    prev = None
    for c in sorted(count):
        if prev is None or c - prev >= 3:
            sizes.append(0)
        sizes[-1] += count[c]
        prev = c
    return sizes


def distinct_residues(m: int, max_cells: int, max_rows: int, max_cols: int
                      ) -> dict[tuple[tuple[int, ...], ...], Shape]:
    """Each distinct residue of the semistandard set-valued fillings within
    the bounds, with the shape of the first filling (in shape order) that
    has it."""
    out: dict = {}
    for shape in skew_shapes(max_cells, max_rows, max_cols):
        for cells in svt_cell_maps(shape, m):
            out.setdefault(residue(shape, rows_of(shape, cells), m), shape)
    return out


# ---------------------------------------------------------------------------
# the instance counts each verify workload must reproduce

def compute_counts() -> dict[str, int]:
    fc7 = count_fc_factorizations(5, 4, 7)
    return {
        "residue-intertwining": 2 * count_svt(3, 3, 4, 4),     # colors 1, 2 at m = 3
        "uncrowding-intertwining": 2 * count_svt(3, 3, 4, 4, max_excess=1),
        "stembridge-star": count_fc_factorizations(5, 4, 6),
        "stembridge-svt": count_svt(4, 6, 2, 3),
        "stembridge-local3": count_block_sequences(((), (1,), (2,), (2, 1)), 5, 6),
        "star-bijection": fc7,
        "recording-intertwining": 3 * fc7,            # colors 1, 2, 3 at m = 4
        "dual-pipeline": count_321_avoiding(5),
    }


# ---------------------------------------------------------------------------
# self-test: each checker must reject a deliberately corrupted input

def self_test() -> None:
    """Raises RuntimeError when a checker accepts a corrupted input or
    rejects a valid one."""
    # the published skew example: res = (21)(31)(3)
    shape: Shape = ((2, 2), (1,))
    rows: Filling = (((1, 2),), ((2, 3), (3,)))
    good = ((2, 1), (3, 1), (3,))
    cases = [
        ("valid example", semistandard_problem(shape, rows) is None),
        ("its residue", residue(shape, rows, 3) == good),
        ("repeated letter in a cell",
         semistandard_problem(shape, (((2, 2),), ((2, 3), (3,)))) is not None),
        ("row rule", semistandard_problem(shape, (((1, 2),), ((2, 3), (1,)))) is not None),
        ("column rule", semistandard_problem(shape, (((1, 3),), ((2, 3), (3,)))) is not None),
        ("missing cell", semistandard_problem(shape, (((1, 2),), ((2, 3),))) is not None),
        ("inner not a partition", semistandard_problem(((2, 2), (1, 2)), rows) is not None),
        ("letter dropped", residue(shape, (((1, 2),), ((2,), (3,))), 3) != good),
        ("corrupted factorization", residue(shape, rows, 3) != ((2, 1), (3, 2), (3,))),
        ("letter above m", residue(shape, (((1, 2),), ((2, 4), (3,))), 3) is None),
        ("Demazure product", demazure((1, 2, 1), 3) == (3, 2, 1) and demazure((1, 1), 3) == (2, 1, 3)),
        ("321 test", not avoids_321((3, 2, 1)) and avoids_321((2, 1, 3))),
        ("Catalan counts", [count_321_avoiding(n) for n in (3, 4)] == [5, 14]),
        ("label clusters", label_clusters(((6, 1), (7, 5, 2), (7, 5), (7, 6, 2))) == [3, 7]),
    ]
    broken = [what for what, ok in cases if not ok]
    if broken:
        raise RuntimeError(f"reference checkers fail their self-test: {broken}")


def main() -> int:
    self_test()
    print("self-test: every checker rejects its corrupted inputs")
    for name, value in compute_counts().items():
        print(f"{name}: {value}")
    # the same counts at the checks' default bounds, which the workloads cut down
    print(f"residue-intertwining at its default bounds: 2 x {count_svt(3, 4, 4, 4)}")
    print("uncrowding-intertwining at its default bounds: "
          f"2 x {count_svt(3, 5, 4, 4, max_excess=2)}")
    print(f"stembridge-svt at its default bounds: {count_svt(4, 6, 3, 3)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
