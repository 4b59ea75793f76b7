"""Words and canonical forms in the 0-Hecke monoid.

Words over the alphabet ``1..n-1`` are evaluated to permutations of
``{1..n}`` through the Demazure product: multiplying by a generator
keeps the permutation fixed unless the length goes up.  Two words are
equivalent exactly when they evaluate to the same permutation, which
makes equivalence testing linear in the word length and sidesteps any
rewriting-system machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import ValidationError

__all__ = [
    "HeckeWord",
    "HeckeElement",
    "identity",
    "demazure_apply",
    "eval_word",
    "is_fully_commutative",
    "equivalent",
    "fully_commutative_elements",
    "all_elements",
]


@dataclass(frozen=True)
class HeckeWord:
    """A word in generators ``1..n-1``; the empty word is the identity."""

    letters: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"alphabet bound must be >= 1, got {self.n}")
        for a in self.letters:
            if not 1 <= a <= self.n - 1:
                raise ValidationError(f"letter {a} outside [1, {self.n - 1}]")

    def __str__(self) -> str:
        return " ".join(str(a) for a in self.letters)


@dataclass(frozen=True)
class HeckeElement:
    """A permutation of ``{1..n}`` in one-line notation, the canonical
    form of a 0-Hecke word."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValidationError(f"{self.perm} is not a permutation of 1..{len(self.perm)}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        p = self.perm
        return sum(1 for i, j in combinations(range(len(p)), 2) if p[i] > p[j])

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.perm) + "]"


def identity(n: int) -> HeckeElement:
    return HeckeElement(tuple(range(1, n + 1)))


def demazure_apply(e: HeckeElement, i: int) -> HeckeElement:
    """Multiply ``e`` on the right by generator ``i``, keeping ``e`` when
    the length would drop (idempotent 0-Hecke action)."""
    if not 1 <= i <= e.n - 1:
        raise ValidationError(f"generator {i} outside [1, {e.n - 1}]")
    p = e.perm
    if p[i - 1] < p[i]:
        q = list(p)
        q[i - 1], q[i] = q[i], q[i - 1]
        return HeckeElement(tuple(q))
    return e


def eval_word(w: HeckeWord) -> HeckeElement:
    """Fold the Demazure action over the letters, left to right."""
    return _eval_letters(w.letters, w.n)


# Above the 62k words that ``verify --theorem all`` evaluates at the default
# bounds (62,219), so that run never evicts; deeper bounds stay bounded.
_EVAL_CACHE_SIZE = 1 << 17


@lru_cache(maxsize=_EVAL_CACHE_SIZE)
def _eval_letters(letters: tuple[int, ...], n: int) -> HeckeElement:
    e = identity(n)
    for a in letters:
        e = demazure_apply(e, a)
    return e


def is_fully_commutative(e: HeckeElement) -> bool:
    """A permutation is fully commutative iff it avoids the pattern 321,
    that is, iff no entry has a larger entry before it and a smaller one
    after it: one pass against the prefix maxima and suffix minima."""
    p = e.perm
    suffix_min = []
    low = len(p) + 1
    for v in reversed(p):
        suffix_min.append(low)
        if v < low:
            low = v
    suffix_min.reverse()
    high = 0
    for v, low in zip(p, suffix_min):
        if v < high:
            if v > low:
                return False
        else:
            high = v
    return True


def equivalent(a: HeckeWord, b: HeckeWord) -> bool:
    """Two words are 0-Hecke equivalent iff their evaluations agree."""
    if a.n != b.n:
        raise ValidationError(f"mixed alphabet bounds: {a.n} != {b.n}")
    return eval_word(a) == eval_word(b)


def all_elements(n: int) -> list[HeckeElement]:
    """All of S_n as Hecke elements, by length and then one-line notation."""
    return sorted((HeckeElement(p) for p in permutations(range(1, n + 1))),
                  key=lambda e: (e.length(), e.perm))


def fully_commutative_elements(n: int) -> list[HeckeElement]:
    return [e for e in all_elements(n) if is_fully_commutative(e)]
