"""A local crystal on all decreasing factorizations over the alphabet {1, 2}.

Every block is one of ``()``, ``(1)``, ``(2)``, ``(21)``.  Operators act
on two adjacent blocks, with two transition chains whose branch is
selected by the parity of the pair count of the strictly earlier blocks.

The pair count comes from one pairing pass over blocks 1, 2, ...
(rightmost first).  A full ``(21)`` block pairs internally.  A single 2
acts only when the pair count so far is even, a single 1 only when it is
odd; the acting letter then consults the leftmost unpaired letter among
the earlier blocks and pairs with it when the letters and the parity of
the pair count of the blocks strictly between them line up: equal letters
pair over an odd gap, different ones over an even gap.
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
    for blk in reversed(f.factors):
        if blk not in _BLOCKS:
            raise ValidationError(f"block {blk} is not over the alphabet {{1, 2}}")


def pairing3(f: DecreasingFactorization) -> PairCounter:
    """One pass over blocks 1, 2, ...; each unpaired single letter waits on a stack, so
    the leftmost unpaired letter among the earlier blocks is its top."""
    _check_blocks(f)
    prefix, pairs, stack = [0], [], []
    for k, blk in enumerate(reversed(f.factors), start=1):
        if blk == _BOTH:
            pairs.append(((k, 2), (k, 1)))
        elif blk:
            a, (j, b) = blk[0], stack[-1] if stack else (0, 0)
            gap = len(pairs) - prefix[j]             # pairs of the blocks strictly between
            if j and len(pairs) % 2 == (a == 1) and (a == b) == (gap % 2 == 1):
                pairs.append(((k, a), stack.pop()))
            else:
                stack.append((k, a))
        prefix.append(len(pairs))
    return PairCounter(tuple(prefix), tuple(pairs), tuple(stack))


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
    key = (f.factors[-i - 1], f.factors[-i], pairing3(f).count(1, i - 1) % 2 == 0)
    return _two_block_lower(*key), _RAISE.get(key)


def _image(f: DecreasingFactorization, i: int, moved) -> DecreasingFactorization | None:
    """``f`` with blocks ``i+1`` and ``i`` replaced by the pair ``moved``."""
    k = f.m - i                           # block i; block i + 1 sits at k - 1
    return None if moved is None else DecreasingFactorization(
        f.factors[:k - 1] + moved + f.factors[k + 1:], f.n)


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
    k = 0
    while (f := f3(f, i)) is not None:
        k += 1
    return k


def epsilon3(f: DecreasingFactorization, i: int) -> int:
    k = 0
    while (f := e3(f, i)) is not None:
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
