"""Decreasing factorizations in the 0-Hecke monoid and Hecke biwords.

A decreasing factorization splits a 0-Hecke word into ``m`` blocks of
strictly decreasing letters, written leftmost block first.  Internally
``factors[0]`` is the *leftmost* block; the customary superscript ``i``
(counting blocks from the right, so block 1 is rightmost) is translated
by :meth:`DecreasingFactorization.factor`, which is the only indexing
API the rest of the package uses.

The factorizations of an element ``w`` are enumerated by construction:
every block step keeps the Demazure prefix in the right weak order
interval below ``w``, read off the inversions of ``w``, so no branch is
searched that cannot end at ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Mapping

from .errors import ValidationError
from .hecke import HeckeElement, HeckeWord, eval_word, is_fully_commutative

__all__ = [
    "DecreasingFactorization",
    "HeckeBiword",
    "weight",
    "excess",
    "to_biword",
    "from_biword",
    "enumerate_factorizations",
]


@dataclass(frozen=True)
class DecreasingFactorization:
    """``m`` strictly decreasing (possibly empty) blocks of letters."""

    factors: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        for f in self.factors:
            if any(not 1 <= a <= self.n - 1 for a in f):
                raise ValidationError(f"factor {f} has letters outside [1, {self.n - 1}]")
            if any(f[k] <= f[k + 1] for k in range(len(f) - 1)):
                raise ValidationError(f"factor {f} is not strictly decreasing")

    @property
    def m(self) -> int:
        return len(self.factors)

    def factor(self, i: int) -> tuple[int, ...]:
        """The ``i``-th block counting from the right (block 1 is rightmost)."""
        if not 1 <= i <= self.m:
            raise ValidationError(f"factor index {i} outside [1, {self.m}]")
        return self.factors[self.m - i]

    def replace_factors(self, blocks: Mapping[int, tuple[int, ...]]
                        ) -> "DecreasingFactorization":
        """The factorization with block ``i`` (counted from the right)
        replaced by ``blocks[i]`` for every key ``i``."""
        fs = list(self.factors)
        for i, letters in blocks.items():
            fs[self.m - i] = letters
        return DecreasingFactorization(tuple(fs), self.n)

    def flatten(self) -> HeckeWord:
        return HeckeWord(tuple(a for f in self.factors for a in f), self.n)

    def eval(self) -> HeckeElement:
        return eval_word(self.flatten())

    @property
    def fully_commutative(self) -> bool:
        """Whether the element avoids 321, kept from first use (outputs are new objects)."""
        try:
            return self._fully_commutative
        except AttributeError:
            object.__setattr__(self, "_fully_commutative", is_fully_commutative(self.eval()))
            return self._fully_commutative

    def num_letters(self) -> int:
        return sum(len(f) for f in self.factors)

    def __str__(self) -> str:
        def block(f: tuple[int, ...]) -> str:
            if any(a > 9 for a in f):
                return "(" + " ".join(str(a) for a in f) + ")"
            return "(" + "".join(str(a) for a in f) + ")"

        return "".join(block(f) for f in self.factors)


@dataclass(frozen=True)
class HeckeBiword:
    """Two-row array: block indices on top (weakly decreasing), letters on
    the bottom (strictly decreasing within a block)."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    n: int
    m: int = field(default=0)

    def __post_init__(self) -> None:
        if len(self.top) != len(self.bottom):
            raise ValidationError("biword rows differ in length")
        if any(self.top[k] < self.top[k + 1] for k in range(len(self.top) - 1)):
            raise ValidationError("biword top row is not weakly decreasing")
        if any(k < 1 for k in self.top):
            raise ValidationError("biword block indices must be at least 1")
        for k in range(len(self.top) - 1):
            if self.top[k] == self.top[k + 1] and self.bottom[k] <= self.bottom[k + 1]:
                raise ValidationError(
                    "biword bottom row is not strictly decreasing within a block"
                )
        if any(not 1 <= a <= self.n - 1 for a in self.bottom):
            raise ValidationError(f"biword letters outside [1, {self.n - 1}]")
        if self.m == 0 and self.top:
            object.__setattr__(self, "m", self.top[0])
        if self.top and self.top[0] > self.m:
            raise ValidationError("biword block index exceeds block count")

    def __len__(self) -> int:
        return len(self.top)

    def eval(self) -> HeckeElement:
        return eval_word(HeckeWord(self.bottom, self.n))

    def __str__(self) -> str:
        return (
            " ".join(str(k) for k in self.top)
            + " / "
            + " ".join(str(a) for a in self.bottom)
        )


def weight(f: DecreasingFactorization) -> tuple[int, ...]:
    """Block lengths, rightmost block first: ``(len h^1, ..., len h^m)``."""
    return tuple(len(f.factor(i)) for i in range(1, f.m + 1))


def excess(f: DecreasingFactorization) -> int:
    """Number of letters beyond the length of the evaluated element."""
    return f.num_letters() - f.eval().length()


def to_biword(f: DecreasingFactorization) -> HeckeBiword:
    top: list[int] = []
    bottom: list[int] = []
    for pos, block in enumerate(f.factors):
        top.extend([f.m - pos] * len(block))
        bottom.extend(block)
    return HeckeBiword(tuple(top), tuple(bottom), f.n, f.m)


def from_biword(b: HeckeBiword, m: int | None = None) -> DecreasingFactorization:
    m = b.m if m is None else m
    if b.top and b.top[0] > m:
        raise ValidationError("block count smaller than largest block index")
    blocks: list[list[int]] = [[] for _ in range(m)]
    for k, a in zip(b.top, b.bottom):
        blocks[m - k].append(a)
    return DecreasingFactorization(tuple(tuple(bl) for bl in blocks), b.n)


def enumerate_factorizations(
    w: HeckeElement, m: int, max_excess: int
) -> Iterator[DecreasingFactorization]:
    """All decreasing factorizations of ``w`` into ``m`` blocks with at most
    ``max_excess`` surplus letters, without duplicates.

    Demazure steps only climb the right weak order, so a prefix can still
    reach ``w`` exactly when each of its inversions is an inversion of ``w``
    (Björner–Brenti, *Combinatorics of Coxeter Groups*, GTM 231, §3.1).
    The blocks are the subsets of ``n-1 … 1``, in descending letters with
    each prefix before its extensions.  One table, built per call and keyed
    by the prefix permutation, holds the blocks whose every moving step adds
    an inversion of ``w``, each with the prefix it leads to and how many
    letters moved it; the letter budget ``length(w) + max_excess`` must
    still cover the letters that ``w`` requires.
    """
    if m < 1 or max_excess < 0:
        raise ValidationError("need m >= 1 and max_excess >= 0")
    n = w.n
    target_len = w.length()
    budget = target_len + max_excess
    blocks = sorted((b for k in range(n) for b in combinations(range(n - 1, 0, -1), k)),
                    key=lambda b: [-a for a in b])
    position = {v: k for k, v in enumerate(w.perm)}
    table: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...], int]]] = {}

    def moves(perm: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """``(block, next prefix, letters that moved it)`` for each block
        that keeps the prefix ``perm`` below ``w``."""
        out = table.get(perm)
        if out is None:
            out = table[perm] = []
            for blk in blocks:
                p, moved = list(perm), 0
                for a in blk:
                    x, y = p[a - 1], p[a]
                    if x < y:
                        if position[y] > position[x]:
                            break
                        p[a - 1], p[a] = y, x
                        moved += 1
                else:
                    out.append((blk, tuple(p), moved))
        return out

    def rec(pos: int, perm: tuple[int, ...], length: int, used: int
            ) -> Iterator[tuple[tuple[int, ...], ...]]:
        if pos == m:
            if perm == w.perm:
                yield ()
            return
        for blk, perm2, moved in moves(perm):
            used2 = used + len(blk)
            if used2 + target_len - length - moved > budget:
                continue
            for rest in rec(pos + 1, perm2, length + moved, used2):
                yield (blk,) + rest

    for fs in rec(0, tuple(range(1, n + 1)), 0, 0):
        yield DecreasingFactorization(fs, n)
