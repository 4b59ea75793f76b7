"""Decreasing factorizations in the 0-Hecke monoid and Hecke biwords.

A decreasing factorization splits a 0-Hecke word into ``m`` blocks of
strictly decreasing letters, written leftmost block first.  Internally
``factors[0]`` is the *leftmost* block; the customary superscript ``i``
(counting blocks from the right, so block 1 is rightmost) is translated
by :meth:`DecreasingFactorization.factor`; ``weight``, the crystal cores
and the local pairing read ``factors`` by position instead.

The factorizations of an element ``w`` are enumerated by construction:
every block, grown a letter at a time, keeps the Demazure prefix in the
right weak order interval below ``w``, read off the inversions of ``w``,
so no block is built and no branch searched that cannot end at ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

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

    def eval(self) -> HeckeElement:
        return eval_word(HeckeWord(tuple(a for f in self.factors for a in f), self.n))

    @property
    def fully_commutative(self) -> bool:
        """Whether the element avoids 321, kept from first use (outputs are new objects)."""
        if not hasattr(self, "_fully_commutative"):
            object.__setattr__(self, "_fully_commutative", is_fully_commutative(self.eval()))
        return self._fully_commutative

    def num_letters(self) -> int:
        return sum(len(f) for f in self.factors)

    def __str__(self) -> str:    # letters above 9 are spaced apart
        return "".join("(" + (" " if any(a > 9 for a in f) else "").join(map(str, f)) + ")"
                       for f in self.factors)


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
        return f"{' '.join(map(str, self.top))} / {' '.join(map(str, self.bottom))}"


def weight(f: DecreasingFactorization) -> tuple[int, ...]:
    """Block lengths, rightmost block first: ``(len h^1, ..., len h^m)``."""
    return tuple(map(len, reversed(f.factors)))


def excess(f: DecreasingFactorization) -> int:
    """Number of letters beyond the length of the evaluated element."""
    return f.num_letters() - f.eval().length()


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields``, valid by construction, built without ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in fields.items():     # as __init__ does: no per-instance dict
        object.__setattr__(obj, name, value)
    return obj


def to_biword(f: DecreasingFactorization) -> HeckeBiword:
    top = tuple(k for k, block in zip(range(f.m, 0, -1), f.factors) for _ in block)
    bottom = tuple(a for block in f.factors for a in block)
    return _trusted(HeckeBiword, top=top, bottom=bottom, n=f.n, m=f.m)   # valid as f is


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
    Each prefix's blocks are grown one smaller letter at a time, largest
    first and each block before its extensions, only while every moving step
    adds an inversion of ``w`` and the unmoved letters fit ``max_excess``.
    One table, built per call and keyed by the prefix permutation, holds
    them with the prefix each leads to and how many letters moved it.  The
    open block positions form a stack, not a recursion; the letter budget
    ``length(w) + max_excess`` must still cover the letters ``w`` requires.
    """
    if m < 1 or max_excess < 0:
        raise ValidationError("need m >= 1 and max_excess >= 0")
    n = w.n
    target_len = w.length()
    budget = target_len + max_excess
    position = {v: k for k, v in enumerate(w.perm)}
    fc = is_fully_commutative(w)
    table: dict[tuple[int, ...], list[tuple[tuple[int, ...], tuple[int, ...], int]]] = {}

    def moves(perm: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """``(block, next prefix, letters that moved it)`` for each block
        that keeps the prefix ``perm`` below ``w``."""
        out = table.get(perm)
        if out is None:
            out = table[perm] = []
            grow = [((), perm, 0)]
            while grow:
                blk, p, moved = grow.pop()
                out.append((blk, p, moved))
                for a in range(1, blk[-1] if blk else n):   # popped largest first
                    x, y = p[a - 1], p[a]
                    if x > y:
                        if len(blk) + 1 - moved <= max_excess:
                            grow.append((blk + (a,), p, moved))
                    elif position[y] < position[x]:
                        grow.append((blk + (a,), p[:a - 1] + (y, x) + p[a + 1:], moved + 1))
        return out

    chosen: list[tuple[int, ...]] = []
    stack = [(iter(moves(tuple(range(1, n + 1)))), 0, 0)]   # (blocks, length, used)
    while stack:
        blocks, length, used = stack[-1]
        for blk, perm, moved in blocks:
            if used + len(blk) + target_len - length - moved <= budget:
                break
        else:
            stack.pop()
            continue
        del chosen[len(stack) - 1:]
        chosen.append(blk)
        if len(stack) < m:
            stack.append((iter(moves(perm)), length + moved, used + len(blk)))
        elif perm == w.perm:     # blocks strictly decrease in [1, n-1]; each f evaluates to w
            yield _trusted(DecreasingFactorization, factors=tuple(chosen), n=n, _fully_commutative=fc)
