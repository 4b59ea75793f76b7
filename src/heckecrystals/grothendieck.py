"""Stable Grothendieck polynomials and exact Schur expansions.

Polynomials are sparse maps from exponent vectors to integers; the extra
grading by surplus letters is kept as an outer dictionary keyed by
degree, never mixed into the exponents.  Expansion in the Schur basis
peels the lexicographically largest surviving monomial, which for a
symmetric polynomial is always a partition exponent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .errors import DomainError, ValidationError
from .factorization import enumerate_factorizations, weight
from .hecke import HeckeElement, is_fully_commutative
from .star_crystal import phi
from .tableaux import SkewShape, _svt_flats, _weight

__all__ = [
    "BetaSchurSeries",
    "schur_poly",
    "grothendieck_poly",
    "schur_expand",
    "schur_coeffs_via_crystal",
    "grassmannian_element",
]

Poly = dict[tuple[int, ...], int]
GradedPoly = dict[int, Poly]


@dataclass(frozen=True)
class BetaSchurSeries:
    """Finitely supported coefficients of ``beta^d s_mu`` in ``m`` variables."""

    coeffs: dict[tuple[int, tuple[int, ...]], int]
    m: int
    truncation: int

    def slice(self, d: int) -> dict[tuple[int, ...], int]:
        return {mu: c for (deg, mu), c in self.coeffs.items() if deg == d}

    def _key(self) -> tuple:            # what __eq__ compares and __hash__ hashes
        return self.m, self.truncation, frozenset((k, v) for k, v in self.coeffs.items() if v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BetaSchurSeries):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


# Far above the 53 shapes that ``verify --theorem all`` expands at the
# default bounds, so that run never evicts; deeper bounds stay bounded.
_SCHUR_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=_SCHUR_CACHE_SIZE)
def schur_poly(mu: tuple[int, ...], m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Schur polynomial as a sorted tuple of (exponent, coefficient)."""
    poly = Counter(_weight((v for v, in u), m) for u in _svt_flats(SkewShape(mu), m, 0))
    return tuple(sorted(poly.items()))


def schur_dict(mu: tuple[int, ...], m: int) -> Poly:
    return dict(schur_poly(mu, m))


def grothendieck_poly(w: HeckeElement, m: int, max_beta: int) -> GradedPoly:
    """Truncated generating function over decreasing factorizations of
    ``w`` into ``m`` blocks, graded by surplus letters."""
    if max_beta < 0:
        raise ValidationError("max_beta must be >= 0")
    out: GradedPoly = {d: {} for d in range(max_beta + 1)}
    for f in enumerate_factorizations(w, m, max_beta):
        d = f.num_letters() - w.length()      # each f evaluates to w
        x = weight(f)
        out[d][x] = out[d].get(x, 0) + 1
    return out


def _check_symmetric(p: Poly) -> None:
    """Per sorted exponent, one coefficient on as many exponents as it has distinct
    rearrangements: then every rearrangement of a monomial carries its coefficient."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for expo in p:
        groups.setdefault(tuple(sorted(expo)), []).append(expo)
    for key, (e, *rest) in groups.items():
        orbit = factorial(len(key)) // prod(map(factorial, Counter(key).values()))
        odd = next((x for x in rest if p[x] != p[e]), None)
        if odd is not None or 1 + len(rest) != orbit:
            raise ValidationError("polynomial is not symmetric: " + (
                f"{e} has coefficient {p[e]}, {odd} has {p[odd]}" if odd is not None else
                f"{1 + len(rest)} of the {orbit} rearrangements of {e} are present"))


def schur_expand(p: Poly, m: int) -> dict[tuple[int, ...], int]:
    """Unique expansion of a symmetric polynomial in Schur polynomials,
    by repeatedly subtracting at the lexicographically largest monomial."""
    work = {e: c for e, c in p.items() if c}
    _check_symmetric(work)
    out: dict[tuple[int, ...], int] = {}
    while work:
        e = max(work)
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise ValidationError(f"leading exponent {e} is not a partition")
        c = work[e]
        mu = tuple(v for v in e if v)
        out[mu] = c
        for expo, coef in schur_poly(mu, m):
            v = work.get(expo, 0) - c * coef
            if v:
                work[expo] = v
            else:
                work.pop(expo, None)
    return out


def schur_coeffs_via_crystal(w: HeckeElement, m: int, max_beta: int) -> BetaSchurSeries:
    """Schur coefficients read off as the number of sink factorizations
    (all lowering operators undefined) of each weight and surplus."""
    if not is_fully_commutative(w):
        raise DomainError(f"element {w} is not fully commutative")
    coeffs: dict[tuple[int, tuple[int, ...]], int] = {}
    for f in enumerate_factorizations(w, m, max_beta):
        if any(phi(f, i) for i in range(1, m)):
            continue
        mu = tuple(reversed(weight(f)))
        mu = tuple(v for v in mu if v)
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
            raise ValidationError(f"sink weight {weight(f)} is not sorted")
        key = (f.num_letters() - w.length(), mu)
        coeffs[key] = coeffs.get(key, 0) + 1
    return BetaSchurSeries(coeffs, m, max_beta)


def series_via_expansion(w: HeckeElement, m: int, max_beta: int) -> BetaSchurSeries:
    """The same series computed monomial-first: enumerate, then peel."""
    graded = grothendieck_poly(w, m, max_beta)
    coeffs: dict[tuple[int, tuple[int, ...]], int] = {}
    for d, poly in graded.items():
        for mu, c in schur_expand(poly, m).items():
            if c:
                coeffs[(d, mu)] = c
    return BetaSchurSeries(coeffs, m, max_beta)


def grassmannian_element(mu: tuple[int, ...], m: int) -> HeckeElement:
    """The unique permutation with at most one descent (at ``m``) whose
    shape is ``mu``."""
    if len(mu) > m:
        raise ValidationError(f"shape {mu} needs more than {m} leading values")
    n = m + (mu[0] if mu else 0)
    first = [i + (mu[m - i] if m - i < len(mu) else 0) for i in range(1, m + 1)]
    rest = sorted(set(range(1, n + 1)) - set(first))
    return HeckeElement(tuple(first + rest))
