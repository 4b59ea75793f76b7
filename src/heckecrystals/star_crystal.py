"""Crystal operators on fully-commutative decreasing factorizations.

The lowering operator ``f_star(·, i)`` moves one letter from block ``i``
to block ``i+1`` after a greedy pairing between the two blocks; pairing
uses "smallest partner weakly above", which is what distinguishes this
structure from the classical reduced-word crystal.  All operators
reject factorizations whose underlying element contains a 321 pattern,
since the case analysis is only well defined on the fully-commutative
set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from . import mutations
from .errors import DomainError, ValidationError
from .factorization import DecreasingFactorization, weight
from .graphs import ColoredDigraph, build_component

__all__ = ["Pairing", "pairing", "star_step", "f_star", "e_star", "phi", "epsilon", "crystal_graph"]


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
    lower = list(f.factor(i))        # descending
    upper = f.factor(i + 1)          # descending
    avail = sorted(lower)            # ascending
    pairs = []
    unpaired_upper = []
    for b in upper:
        k = bisect_left(avail, b)
        if k < len(avail):
            pairs.append((b, avail.pop(k)))
        else:
            unpaired_upper.append(b)
    return Pairing(tuple(pairs), tuple(sorted(avail, reverse=True)),
                   tuple(sorted(unpaired_upper)))


def _insert_desc(block: tuple[int, ...], x: int) -> tuple[int, ...]:
    if x in block:
        raise ValidationError(f"letter {x} already in block {block}")
    return tuple(sorted(block + (x,), reverse=True))


def _remove(block: tuple[int, ...], x: int) -> tuple[int, ...]:
    k = block.index(x)
    return block[:k] + block[k + 1:]


def star_step(f: DecreasingFactorization, i: int
              ) -> tuple[DecreasingFactorization | None, DecreasingFactorization | None]:
    """``(f_star(f, i), e_star(f, i))`` from one pairing."""
    p = pairing(f, i)
    return _lower(f, i, p), _raise(f, i, p)


def f_star(f: DecreasingFactorization, i: int) -> DecreasingFactorization | None:
    """Lowering operator: act on the largest unpaired letter ``x`` of
    block ``i``.  When ``x+1`` sits in both blocks, that copy in block
    ``i`` dissolves and ``x`` joins block ``i+1``; otherwise ``x`` moves."""
    return _lower(f, i, pairing(f, i))


def e_star(f: DecreasingFactorization, i: int) -> DecreasingFactorization | None:
    """Raising operator: partial inverse of :func:`f_star`, acting on the
    smallest unpaired letter of block ``i+1``."""
    return _raise(f, i, pairing(f, i))


def _lower(f: DecreasingFactorization, i: int, p: Pairing) -> DecreasingFactorization | None:
    if not p.unpaired_lower:
        return None
    x = p.unpaired_lower[0]
    lo, up = f.factor(i), f.factor(i + 1)
    neighbour = x + 1 in lo and x + 1 in up
    gone = x + 1 if neighbour and not mutations.enabled(mutations.FSTAR_NEIGHBOR_CASE_OFF) else x
    return f.replace_factors({i: _remove(lo, gone), i + 1: _insert_desc(up, x)})


def _raise(f: DecreasingFactorization, i: int, p: Pairing) -> DecreasingFactorization | None:
    if not p.unpaired_upper:
        return None
    y = p.unpaired_upper[0]
    lo, up = f.factor(i), f.factor(i + 1)
    gone = y - 1 if y - 1 in lo and y - 1 in up else y
    up = _remove(up, gone)
    return f.replace_factors({i: _insert_desc(lo, y), i + 1: up})


def phi(f: DecreasingFactorization, i: int) -> int:
    """Number of times ``f_star(·, i)`` applies = unpaired letters in block i."""
    return len(pairing(f, i).unpaired_lower)


def epsilon(f: DecreasingFactorization, i: int) -> int:
    """Number of times ``e_star(·, i)`` applies = unpaired letters in block i+1."""
    return len(pairing(f, i).unpaired_upper)


def crystal_graph(seed: DecreasingFactorization) -> ColoredDigraph:
    """Connected crystal component of ``seed`` (closure under both
    operators, every color)."""
    if not seed.fully_commutative:
        raise DomainError(f"factorization {seed} is not fully commutative")
    return build_component([seed], tuple(range(1, seed.m)), star_step, weight)
