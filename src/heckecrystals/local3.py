"""A local crystal on all decreasing factorizations over the alphabet {1, 2}.

Every block is one of ``()``, ``(1)``, ``(2)``, ``(21)``.  Operators act
on two adjacent blocks, with two transition chains whose branch is
selected by the parity of the pair count of the strictly earlier blocks.

The pair count comes from a recursive pairing pass over blocks 1, 2, ...
(rightmost first).  A full ``(21)`` block pairs internally.  A single 2
acts only when the pair count so far is even, a single 1 only when it is
odd; the acting letter then consults the leftmost unpaired letter among
the earlier blocks and pairs with it when the letters and the parity of
the pair count of the blocks strictly between them line up: a 2 catches
a 1 over an even gap, a 2 catches a 2 over an odd gap, a 1 catches a 2
over an even gap, and a 1 catches a 1 over an odd gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .factorization import DecreasingFactorization, enumerate_factorizations, weight
from .graphs import ColoredDigraph, build_component
from .hecke import all_elements

__all__ = ["PairCounter", "pairing3", "f3", "e3", "step3", "phi3", "epsilon3",
           "crystal_graph_local3", "all_factorizations3"]

Block = tuple[int, ...]
Letter = tuple[int, int]   # (block index, letter value)

_EMPTY: Block = ()
_ONE = (1,)
_TWO = (2,)
_BOTH = (2, 1)
_BLOCKS = (_EMPTY, _ONE, _TWO, _BOTH)


@dataclass(frozen=True)
class PairCounter:
    """Prefix pair counts: ``prefix[k]`` counts the pairs among blocks
    ``1..k`` (so ``prefix[0] == 0``), plus the pairing itself."""

    prefix: tuple[int, ...]
    pairs: tuple[tuple[Letter, Letter], ...]
    unpaired: tuple[Letter, ...]

    def count(self, j: int, k: int) -> int:
        """Pairs among blocks ``j..k``; empty ranges count zero."""
        if j > k:
            return 0
        return self.prefix[k] - self.prefix[j - 1]


def _check_blocks(f: DecreasingFactorization) -> None:
    for k in range(1, f.m + 1):
        if f.factor(k) not in _BLOCKS:
            raise ValidationError(
                f"block {f.factor(k)} is not over the alphabet {{1, 2}}")


def pairing3(f: DecreasingFactorization) -> PairCounter:
    _check_blocks(f)
    m = f.m
    prefix = [0] * (m + 1)
    paired: set[Letter] = set()
    pairs: list[tuple[Letter, Letter]] = []

    def leftmost_unpaired(k: int) -> Letter | None:
        for j in range(k - 1, 0, -1):
            for b in f.factor(j):
                if (j, b) not in paired:
                    return (j, b)
        return None

    for k in range(1, m + 1):
        blk = f.factor(k)
        prefix[k] = prefix[k - 1]
        if blk == _BOTH:
            paired.update({(k, 2), (k, 1)})
            pairs.append(((k, 2), (k, 1)))
            prefix[k] += 1
            continue
        if blk == _EMPTY:
            continue
        a = blk[0]
        if prefix[k - 1] % 2 != (0 if a == 2 else 1):
            continue
        partner = leftmost_unpaired(k)
        if partner is None:
            continue
        j, b = partner
        gap = prefix[k - 1] - prefix[j]
        hit = (
            (a == 2 and b == 1 and gap % 2 == 0)
            or (a == 2 and b == 2 and gap % 2 == 1)
            or (a == 1 and b == 2 and gap % 2 == 0)
            or (a == 1 and b == 1 and gap % 2 == 1)
        )
        if hit:
            paired.update({(k, a), (j, b)})
            pairs.append(((k, a), (j, b)))
            prefix[k] += 1

    unpaired = tuple((j, b) for j in range(1, m + 1) for b in f.factor(j)
                     if (j, b) not in paired)
    return PairCounter(tuple(prefix), tuple(pairs), unpaired)


def _two_block_lower(upper: Block, lower: Block, even: bool) -> tuple[Block, Block] | None:
    if upper == _BOTH or lower == _EMPTY or upper == lower:
        return None
    if upper == _ONE and lower == _BOTH:
        return _BOTH, _TWO
    if upper == _TWO and lower == _BOTH:
        return _BOTH, _ONE
    if upper == _EMPTY and lower in (_ONE, _TWO):
        return lower, _EMPTY
    if upper == _EMPTY and lower == _BOTH:
        return (_TWO, _ONE) if even else (_ONE, _TWO)
    if upper == _TWO and lower == _ONE:
        return (_BOTH, _EMPTY) if even else None
    if upper == _ONE and lower == _TWO:
        return None if even else (_BOTH, _EMPTY)
    raise AssertionError(f"unhandled blocks {upper} {lower}")


# e3 is the partial inverse of f3 at the same parity: a move changes only
# blocks i and i+1, so the pair count of blocks 1..i-1 stays, and at each
# parity the lowering moves are one-to-one.
_RAISE = {(*moved, even): (upper, lower)
          for upper in _BLOCKS for lower in _BLOCKS for even in (True, False)
          if (moved := _two_block_lower(upper, lower, even)) is not None}


def _moves(f: DecreasingFactorization, i: int):
    """The lowering and the raising move of blocks ``i+1`` and ``i``, from one pairing."""
    if not 1 <= i < f.m:
        raise ValidationError(f"operator index {i} outside [1, {f.m - 1}]")
    key = (f.factor(i + 1), f.factor(i), pairing3(f).count(1, i - 1) % 2 == 0)
    return _two_block_lower(*key), _RAISE.get(key)


def _image(f: DecreasingFactorization, i: int, moved) -> DecreasingFactorization | None:
    return None if moved is None else f.replace_factors({i + 1: moved[0], i: moved[1]})


def f3(f: DecreasingFactorization, i: int) -> DecreasingFactorization | None:
    """Lowering operator on blocks ``i`` and ``i+1``."""
    return _image(f, i, _moves(f, i)[0])


def e3(f: DecreasingFactorization, i: int) -> DecreasingFactorization | None:
    """Raising operator, the partial inverse of :func:`f3`."""
    return _image(f, i, _moves(f, i)[1])


def step3(f: DecreasingFactorization, i: int
          ) -> tuple[DecreasingFactorization | None, DecreasingFactorization | None]:
    """``(f3(f, i), e3(f, i))`` from one pairing."""
    lowering, raising = _moves(f, i)
    return _image(f, i, lowering), _image(f, i, raising)


def phi3(f: DecreasingFactorization, i: int) -> int:
    k, cur = 0, f
    while (nxt := f3(cur, i)) is not None:
        cur = nxt
        k += 1
    return k


def epsilon3(f: DecreasingFactorization, i: int) -> int:
    k, cur = 0, f
    while (nxt := e3(cur, i)) is not None:
        cur = nxt
        k += 1
    return k


def crystal_graph_local3(seed: DecreasingFactorization) -> ColoredDigraph:
    _check_blocks(seed)
    return build_component([seed], tuple(range(1, seed.m)), step3, weight)


def all_factorizations3(m: int, max_letters: int) -> list[DecreasingFactorization]:
    """Every decreasing factorization over the alphabet {1, 2} with ``m``
    blocks and at most ``max_letters`` letters: those of each element of
    S_3, ``s1 s2 s1`` included."""
    return [f for w in all_elements(3) if w.length() <= max_letters
            for f in enumerate_factorizations(w, m, max_letters - w.length())]
