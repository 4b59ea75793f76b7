"""Crystal operators on fully-commutative decreasing factorizations.

The lowering operator ``f_star(·, i)`` moves one letter from block ``i``
to block ``i+1`` after a greedy pairing between the two blocks; pairing
uses "smallest partner weakly above", which is what distinguishes this
structure from the classical reduced-word crystal.  One core,
:func:`star_moves`, takes the blocks and returns both images' blocks,
unvalidated.  The public operators wrap it: they reject factorizations
whose element contains a 321 pattern, since the case analysis is only
well defined on the fully-commutative set, and build what they return.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import mutations
from .errors import DomainError, ValidationError
from .factorization import DecreasingFactorization, weight
from .graphs import ColoredDigraph, build_component

__all__ = ["Pairing", "pairing", "star_moves", "star_step", "f_star", "e_star", "phi", "epsilon",
           "crystal_graph"]


@dataclass(frozen=True)
class Pairing:
    """Result of pairing block ``i+1`` against block ``i``.

    ``pairs`` maps each paired letter of block ``i+1`` to its partner in
    block ``i``; the unpaired letters of both blocks are kept sorted
    descending (block ``i``) and ascending (block ``i+1``).
    """

    pairs: tuple[tuple[int, int], ...]
    unpaired_lower: tuple[int, ...]
    unpaired_upper: tuple[int, ...]


def _check_domain(f: DecreasingFactorization, i: int) -> None:
    if not 1 <= i < f.m:
        raise ValidationError(f"operator index {i} outside [1, {f.m - 1}]")
    if not f.fully_commutative:
        raise DomainError(f"factorization {f} is not fully commutative")


def pairing(f: DecreasingFactorization, i: int) -> Pairing:
    """Pair letters of block ``i+1`` (largest first) with the smallest
    unused letter of block ``i`` that is weakly larger."""
    _check_domain(f, i)
    return Pairing(*_pair(f.factors[-i], f.factors[-i - 1]))


def _pair(lower: tuple[int, ...], upper: tuple[int, ...]) -> tuple[tuple, tuple, tuple]:
    """The fields of :class:`Pairing` for two descending blocks."""
    avail = sorted(lower)            # ascending
    pairs = []
    unpaired_upper = []
    for b in upper:
        k = bisect_left(avail, b)
        if k < len(avail):
            pairs.append((b, avail.pop(k)))
        else:
            unpaired_upper.append(b)
    return tuple(pairs), tuple(reversed(avail)), tuple(reversed(unpaired_upper))


def _insert_desc(block: tuple[int, ...], x: int) -> tuple[int, ...]:
    if x in block:
        raise ValidationError(f"letter {x} already in block {block}")
    return tuple(sorted(block + (x,), reverse=True))


def _remove(block: tuple[int, ...], x: int) -> tuple[int, ...]:
    k = block.index(x)
    return block[:k] + block[k + 1:]


def star_moves(factors: tuple, i: int, p: Pairing | None = None
               ) -> tuple[tuple | None, tuple | None]:
    """The blocks of ``f_star`` and ``e_star`` at block ``i`` of a fully-commutative
    factorization with blocks ``factors``, None where undefined, from one pairing
    (``p``, when already known).  Nothing is validated: the wrappers check the
    domain through :func:`pairing` and build what they return."""
    k = len(factors) - i                  # block i; block i + 1 sits at k - 1
    lo, up = factors[k], factors[k - 1]
    lower, upper = (p.unpaired_lower, p.unpaired_upper) if p else _pair(lo, up)[1:]
    lowered = raised = None
    if lower:
        x = lower[0]
        neighbour = x + 1 in lo and x + 1 in up
        if neighbour and mutations.enabled(mutations.FSTAR_NEIGHBOR_CASE_OFF):
            neighbour = False
        lo2 = _remove(lo, x + 1 if neighbour else x)
        lowered = factors[:k - 1] + (_insert_desc(up, x), lo2) + factors[k + 1:]
    if upper:
        y = upper[0]
        up2 = _remove(up, y - 1 if y - 1 in lo and y - 1 in up else y)
        raised = factors[:k - 1] + (up2, _insert_desc(lo, y)) + factors[k + 1:]
    return lowered, raised


def _built(f: DecreasingFactorization, factors: tuple | None
           ) -> DecreasingFactorization | None:
    return None if factors is None else DecreasingFactorization(factors, f.n)


def star_step(f: DecreasingFactorization, i: int
              ) -> tuple[DecreasingFactorization | None, DecreasingFactorization | None]:
    """``(f_star(f, i), e_star(f, i))`` from one pairing."""
    lowered, raised = star_moves(f.factors, i, pairing(f, i))
    return _built(f, lowered), _built(f, raised)


def f_star(f: DecreasingFactorization, i: int) -> DecreasingFactorization | None:
    """Lowering operator: act on the largest unpaired letter ``x`` of
    block ``i``.  When ``x+1`` sits in both blocks, that copy in block
    ``i`` dissolves and ``x`` joins block ``i+1``; otherwise ``x`` moves."""
    return _built(f, star_moves(f.factors, i, pairing(f, i))[0])


def e_star(f: DecreasingFactorization, i: int) -> DecreasingFactorization | None:
    """Raising operator: partial inverse of :func:`f_star`, acting on the
    smallest unpaired letter of block ``i+1``."""
    return _built(f, star_moves(f.factors, i, pairing(f, i))[1])


def phi(f: DecreasingFactorization, i: int) -> int:
    """Number of times ``f_star(·, i)`` applies = unpaired letters in block i."""
    return len(pairing(f, i).unpaired_lower)


def epsilon(f: DecreasingFactorization, i: int) -> int:
    """Number of times ``e_star(·, i)`` applies = unpaired letters in block i+1."""
    return len(pairing(f, i).unpaired_upper)


def crystal_graph(seed: DecreasingFactorization) -> ColoredDigraph:
    """Connected crystal component of ``seed`` (closure under both
    operators, every color).  A seed outside the domain raises from the
    first step's domain check, as a single block is always fully commutative."""
    return build_component([seed], tuple(range(1, seed.m)), star_step, weight)
