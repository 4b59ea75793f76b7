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

from .errors import DomainError, ValidationError
from .factorization import enumerate_factorizations, excess, weight
from .hecke import HeckeElement, is_fully_commutative
from .star_crystal import f_star
from .tableaux import SkewShape, svt_fillings, weight_of

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BetaSchurSeries):
            return NotImplemented
        clean = lambda s: {k: v for k, v in s.coeffs.items() if v}
        return (self.m, self.truncation, clean(self)) == (other.m, other.truncation, clean(other))

    def __hash__(self) -> int:
        return hash((self.m, self.truncation, frozenset(self.coeffs.items())))


# Far above the 53 shapes that ``verify --theorem all`` expands at the
# default bounds, so that run never evicts; deeper bounds stay bounded.
_SCHUR_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=_SCHUR_CACHE_SIZE)
def schur_poly(mu: tuple[int, ...], m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Schur polynomial as a sorted tuple of (exponent, coefficient)."""
    poly = Counter(weight_of(t, m) for t in svt_fillings(SkewShape(mu), m, max_excess=0))
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
        d = excess(f)
        x = weight(f)
        out[d][x] = out[d].get(x, 0) + 1
    return out


def _check_symmetric(p: Poly, m: int) -> None:
    for i in range(m - 1):
        for expo, c in p.items():
            swapped = list(expo)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if p.get(tuple(swapped), 0) != c:
                raise ValidationError(
                    f"polynomial is not symmetric: {expo} vs transposition at {i + 1}")


def schur_expand(p: Poly, m: int) -> dict[tuple[int, ...], int]:
    """Unique expansion of a symmetric polynomial in Schur polynomials,
    by repeatedly subtracting at the lexicographically largest monomial."""
    work = {e: c for e, c in p.items() if c}
    _check_symmetric(work, m)
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
        if any(f_star(f, i) is not None for i in range(1, m)):
            continue
        mu = tuple(reversed(weight(f)))
        mu = tuple(v for v in mu if v)
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
            raise ValidationError(f"sink weight {weight(f)} is not sorted")
        key = (excess(f), mu)
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
