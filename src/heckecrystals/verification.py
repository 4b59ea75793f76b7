"""Exhaustive bounded verification of the package's structural theorems.

Each named check enumerates a full instance space at configurable
bounds and reruns the claimed identity instance by instance.  A check is
a generator: it yields ``None`` once per instance and a witness string
per counterexample.  One driver counts the instances, keeps the first 50
witnesses, then adds ``"... further failures suppressed"`` and stops; an
operator that raises ends the check with one ``exception: ...`` witness
after the instances already counted.  Checks are deterministic and
independent of enumeration order; the CLI ``verify`` subcommand and the
acceptance tests drive them.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations, repeat
from typing import Callable, Hashable, Iterator

from .errors import ValidationError
from .factorization import (
    DecreasingFactorization,
    enumerate_factorizations,
    to_biword,
    weight,
)
from .graphs import ColoredDigraph, build_component
from .grothendieck import (
    grassmannian_element,
    grothendieck_poly,
    schur_coeffs_via_crystal,
    schur_dict,
    series_via_expansion,
)
from .hecke import HeckeWord, eval_word, fully_commutative_elements, is_fully_commutative
from .insertion import micro_class, star_insert, star_insert_word, star_inverse, hecke_insert
from .local3 import all_factorizations3, e3, f3, step3
from .residue import res, res_inv
from .star_crystal import f_star, pairing, star_step
from .svt_crystal import f_classical, f_svt, svt_step
from .tableaux import (SemistandardTableau, SkewSetValuedTableau, SkewShape, excess_of,
                       row_word, svt_fillings, weight_of)
from .uncrowding import _star_tilde, uncrowd

__all__ = ["Bounds", "CheckReport", "check_theorem", "stembridge_audit",
           "available_checks", "default_bounds", "run_all"]

Witnesses = Iterator[str | None]


@dataclass(frozen=True)
class Bounds:
    """Instance-space bounds; every checker documents which it reads."""

    n: int = 4                # permutations live in S_n
    m: int = 3                # number of blocks / maximum entry
    max_letters: int = 6      # total letters of a factorization
    max_cells: int = 4        # cells of a skew shape
    max_rows: int = 4
    max_cols: int = 4
    max_excess: int = 2
    max_beta: int = 2


@dataclass
class CheckReport:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"{self.name}: {self.instances} instances, {verdict} ({self.elapsed:.2f}s)"


def _run(name: str, items: Witnesses) -> CheckReport:
    """Drive one check: count each ``None`` as an instance and keep each
    witness, up to 50; the 51st ends the check as suppressed."""
    report = CheckReport(name)
    failures = report.failures
    start = time.perf_counter()
    for witness in items:
        if witness is None:
            report.instances += 1
        elif len(failures) < 50:
            failures.append(witness)
        else:
            failures.append("... further failures suppressed")
            break
    report.elapsed = time.perf_counter() - start
    return report


def _guarded(items: Witnesses) -> Witnesses:
    """``items``, ending in one witness for the exception that stops them."""
    try:
        yield from items
    except Exception as exc:  # noqa: BLE001 - a broken operator is a failure
        yield f"exception: {exc!r}"


# ---------------------------------------------------------------------------
# instance generators

def partitions_in_box(max_rows: int, max_cols: int) -> Iterator[tuple[int, ...]]:
    def rec(prev: int, rows_left: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if rows_left == 0:
            return
        for part in range(1, prev + 1):
            for rest in rec(part, rows_left - 1):
                yield (part,) + rest

    yield from rec(max_cols, max_rows)


def skew_shapes(b: Bounds) -> Iterator[SkewShape]:
    """All shapes with 1..max_cells cells inside the bounding box,
    including shapes with empty rows."""
    for outer in partitions_in_box(b.max_rows, b.max_cols):
        if not outer:
            continue
        for inner in partitions_in_box(len(outer), outer[0]):
            if not 1 <= sum(outer) - sum(inner) <= b.max_cells:
                continue
            try:
                sh = SkewShape(outer, inner)
            except ValidationError:   # inner not contained in outer
                continue
            yield sh


def _fc_classes(b: Bounds) -> Iterator[Iterator[DecreasingFactorization]]:
    """Per fully-commutative element of S_n, its factorizations into m
    blocks using at most ``max_letters`` letters."""
    for w in fully_commutative_elements(b.n):
        slack = b.max_letters - w.length()
        if slack >= 0:
            yield enumerate_factorizations(w, b.m, slack)


def fc_factorizations(b: Bounds) -> Iterator[DecreasingFactorization]:
    """All factorizations of :func:`_fc_classes`, one element after another."""
    for cls in _fc_classes(b):
        yield from cls


def fc_words(b: Bounds) -> Iterator[tuple[int, ...]]:
    def rec(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if word and not is_fully_commutative(eval_word(HeckeWord(word, b.n))):
            return
        yield word
        if len(word) < b.max_letters:
            for a in range(1, b.n):
                yield from rec(word + (a,))

    for w in rec(()):
        if w:
            yield w


# ---------------------------------------------------------------------------
# Stembridge audit on abstract colored digraphs

def _string_lengths(g: ColoredDigraph, step: list[int], c: int) -> list[int]:
    """For each node, the number of steps along ``step`` until it stops."""
    lengths = []
    for u, v in enumerate(step):
        k = 0
        while v >= 0:
            k, v = k + 1, step[v]
            if k > len(step):
                raise ValidationError(f"color {c} string through {g.node[u]} cycles")
        lengths.append(k)
    return lengths


def stembridge_audit(g: ColoredDigraph) -> CheckReport:
    """String bookkeeping, the local axioms for adjacent and distant
    colors, and uniqueness of the highest weight per component; one
    instance per node.  A cyclic string raises :class:`ValidationError`."""
    return _run("stembridge-audit", _stembridge(g))


def _stembridge(g: ColoredDigraph) -> Witnesses:
    node, wt, colors = g.node, g.wt, g.colors
    yield from g.conflicts
    eps = {c: _string_lengths(g, g.inn[c], c) for c in colors}
    phi = {c: _string_lengths(g, g.out[c], c) for c in colors}
    for c in colors:
        out, e, f = g.out[c], eps[c], phi[c]
        for u, w in enumerate(wt):
            if f[u] - e[u] != w[c - 1] - w[c]:
                yield f"string lengths at {node[u]} color {c} disagree with weight"
            v = out[u]
            if v >= 0:
                expected = list(w)
                expected[c - 1] -= 1
                expected[c] += 1
                if list(wt[v]) != expected:
                    yield f"edge {node[u]} -{c}-> {node[v]} moves weight incorrectly"

    # Under a raising step, an adjacent phi_j drops by one or eps_j
    # rises by one; lowering steps mirror this.  Distant colors never
    # interact.
    for i, j in permutations(colors, 2):
        ej, fj = eps[j], phi[j]
        for step, sign, kind in ((g.inn[i], 1, "raise"), (g.out[i], -1, "lower")):
            for u, v in enumerate(step):
                if v < 0:
                    continue
                d_phi, d_eps = fj[v] - fj[u], ej[v] - ej[u]
                if abs(i - j) >= 2:
                    if d_phi or d_eps:
                        yield f"distant colors {i},{j} interact at {node[u]}"
                elif (sign * d_phi, sign * d_eps) not in ((-1, 0), (0, 1)):
                    yield (f"adjacent {kind} deltas at {node[u]} colors {i},{j}: "
                           f"{(d_phi, d_eps)}")

    # The raising side reads (inn, eps), the lowering side (out, phi).
    for step, table, kind in ((g.inn, eps, "raising"), (g.out, phi, "lowering")):
        for i, j in combinations(sorted(colors), 2):
            si, sj, ti, tj = step[i], step[j], table[i], table[j]
            for u in range(len(node)):
                vi, vj = si[u], sj[u]
                if vi < 0 or vj < 0:
                    continue
                d_i_of_j, d_j_of_i = tj[vi] - tj[u], ti[vj] - ti[u]
                if abs(i - j) >= 2 or (d_i_of_j == 0 and d_j_of_i == 0):
                    if sj[vi] < 0 or sj[vi] != si[vj]:
                        yield f"{kind} {i},{j} fail to commute at {node[u]}"
                elif d_i_of_j == 1 and d_j_of_i == 1:
                    left = _path(step, vi, j, j, i)
                    if left < 0 or left != _path(step, vj, i, i, j):
                        yield f"{kind} braid relation fails at {node[u]} ({i},{j})"

    inns = list(g.inn.values())
    for comp in g.components():
        yield from repeat(None, len(comp))
        sources = sum(1 for u in comp if all(inn[u] < 0 for inn in inns))
        if sources != 1:
            yield f"component of {node[comp[0]]} has {sources} highest weights"


def _path(step: dict[int, list[int]], u: int, *colors: int) -> int:
    """The node reached from ``u`` along ``colors``, -1 once a step is missing."""
    for c in colors:
        u = step[c][u] if u >= 0 else -1
    return u


def _audit_graph(seeds, step: Callable, wt: Callable, m: int, where: str = "") -> Witnesses:
    """The Stembridge audit of the crystal graph on ``seeds`` and colors
    ``1..m-1``, plus the character of each component, which must be the
    Schur polynomial of the sorted sink weight."""
    g = build_component(seeds, tuple(range(1, m)), step, wt)
    sub = stembridge_audit(g)
    yield from repeat(None, sub.instances)
    for msg in sub.failures:
        yield where + msg
    for comp in g.components():
        sinks = g.sinks(comp)
        if len(sinks) != 1:
            yield f"component of {g.node[comp[0]]} has {len(sinks)} sinks"
            continue
        mu = tuple(sorted((v for v in g.wt[sinks[0]] if v), reverse=True))
        if Counter(tuple(g.wt[u]) for u in comp) != schur_dict(mu, m):
            yield f"component of {g.node[sinks[0]]} has a non-Schur character"


# ---------------------------------------------------------------------------
# individual checks

# name -> (check, default bounds, --deep bounds)
_CHECKS: dict[str, tuple[Callable[[Bounds], Witnesses], Bounds, Bounds]] = {}


def _check(name: str, bounds: Bounds, deep: Bounds | None = None):
    """Register a check under ``name``; ``--deep`` runs it at ``deep``, if given."""
    def register(fn: Callable[[Bounds], Witnesses]) -> Callable[[Bounds], Witnesses]:
        _CHECKS[name] = (fn, bounds, deep or bounds)
        return fn
    return register


def _once(table: dict, fn: Callable, x: Hashable, *args):
    """``fn(x, *args)``, computed once per ``x`` of ``table``."""
    out = table.get(x)
    if out is None:
        out = table[x] = fn(x, *args)
    return out


@_check("residue-intertwining", Bounds(m=3, max_cells=4, max_rows=4, max_cols=4),
        deep=Bounds(m=3, max_cells=6, max_rows=4, max_cols=4))
def _check_residue_intertwining(b: Bounds) -> Witnesses:
    """res maps the tableau operators to the factorization operators; an image keeps
    the shape, so residues are computed once per filling, keyed by the image, and each
    side's bracket once per (filling, letter)."""
    for shape in skew_shapes(b):
        table: dict[SkewSetValuedTableau, DecreasingFactorization] = {}
        for t in svt_fillings(shape, b.m):
            f = _once(table, res, t, b.m)
            for i in range(1, b.m):
                yield None
                for t2, f2, tag in zip(svt_step(t, i), star_step(f, i), ("lower", "raise")):
                    lhs = None if t2 is None else _once(table, res, t2, b.m).factors
                    rhs = None if f2 is None else f2.factors
                    if lhs != rhs:
                        yield f"{tag} {i} on {shape}: {t.rows} -> {lhs} vs {rhs}"


@_check("hecke-recording", Bounds(m=3, max_cells=5, max_rows=5, max_cols=5))
def _check_hecke_recording(b: Bounds) -> Witnesses:
    """Hecke insertion of a straight-shape residue records the tableau."""
    for outer in partitions_in_box(b.max_rows, b.max_cols):
        if not 0 < sum(outer) <= b.max_cells:
            continue
        shape = SkewShape(outer, ())
        for t in svt_fillings(shape, b.m):
            yield None
            q = hecke_insert(to_biword(res(t, b.m))).q
            if q != t:
                yield f"recording mismatch for {t.rows} on {shape}"


@_check("star-bijection", Bounds(n=4, m=4, max_letters=6),
        deep=Bounds(n=5, m=4, max_letters=7))
def _check_star_bijection(b: Bounds) -> Witnesses:
    """Star insertion round-trips against its inverse."""
    for f in fc_factorizations(b):
        yield None
        biword = to_biword(f)
        result = star_insert(biword)
        word = f.flatten()
        insertion_order = tuple(reversed(word.letters))
        if word.letters and eval_word(row_word(result.p, f.n)) != eval_word(
                HeckeWord(insertion_order, f.n)):
            yield f"row word of P not equivalent for {f}"
            continue
        back = star_inverse(result.p, result.q)
        if (back.top, back.bottom) != (biword.top, biword.bottom):
            yield f"round trip failed for {f}: got {back}"


@_check("insertion-invariance", Bounds(n=4, max_letters=6))
def _check_insertion_invariance(b: Bounds) -> Witnesses:
    """Micro-equivalent insertion sequences share the insertion tableau."""
    seen: set[tuple[int, ...]] = set()
    for word in fc_words(b):
        if word in seen:
            continue
        cls = micro_class(word)
        seen.update(cls)
        yield None
        tableaux = {star_insert_word(u).p for u in cls}
        if len(tableaux) != 1:
            yield f"class of {word} has {len(tableaux)} distinct tableaux"


@_check("operator-rewrites", Bounds(n=4, m=4, max_letters=6))
def _check_operator_rewrites(b: Bounds) -> Witnesses:
    """Crystal moves rewrite the reversed word by micro-moves."""
    for f in fc_factorizations(b):
        rev = tuple(reversed(f.flatten().letters))
        cls = None
        for i in range(1, f.m):
            for g, op in zip(star_step(f, i), ("f_star", "e_star")):
                if g is None:
                    continue
                yield None
                if cls is None:
                    cls = micro_class(rev)
                if tuple(reversed(g.flatten().letters)) not in cls:
                    yield f"{op} {i} of {f} leaves the rewrite class"


@_check("recording-intertwining", Bounds(n=4, m=4, max_letters=6))
def _check_recording_intertwining(b: Bounds) -> Witnesses:
    """Q of the star insertion carries the classical crystal action.

    ``f_star`` keeps the element, so each recording tableau is computed
    once per element, in a memo dropped with that element."""
    recording = lambda f: star_insert(to_biword(f)).q  # noqa: E731
    for cls in _fc_classes(b):
        memo: dict[DecreasingFactorization, SemistandardTableau] = {}
        for f in cls:
            q = _once(memo, recording, f)
            for i in range(1, f.m):
                yield None
                g = f_star(f, i)
                q2 = f_classical(q, i)
                if (g is None) != (q2 is None):
                    yield f"definedness differs for {f} color {i}"
                    continue
                if g is not None and _once(memo, recording, g) != q2:
                    yield f"recording tableaux differ for {f} color {i}"


@_check("uncrowding-compat", Bounds(m=3, max_cells=5, max_rows=4, max_cols=4, max_excess=2),
        deep=Bounds(m=3, max_cells=6, max_rows=4, max_cols=4, max_excess=3))
def _check_uncrowding_compat(b: Bounds) -> Witnesses:
    """Padded star insertion records the uncrowding of the canonical
    representative of the residue class."""
    seen: set[tuple] = set()
    for shape in skew_shapes(b):
        for t in svt_fillings(shape, b.m, max_excess=b.max_excess):
            h = res(t, b.m)
            if h.factors in seen:
                continue
            seen.add(h.factors)
            yield None
            canonical = res_inv(h)
            p_tilde, _ = uncrowd(canonical)
            q = _star_tilde(h, canonical).q
            if q != p_tilde:
                yield f"uncrowding mismatch for {h} (from {t.rows} on {shape})"


@_check("uncrowding-intertwining",
        Bounds(m=3, max_cells=5, max_rows=4, max_cols=4, max_excess=2))
def _check_uncrowding_intertwining(b: Bounds) -> Witnesses:
    """Uncrowding commutes with the crystal operators and fixes the recording side;
    an image keeps shape and excess, so each filling is uncrowded once per shape."""
    for shape in skew_shapes(b):
        table: dict[SkewSetValuedTableau, tuple] = {}
        for t in svt_fillings(shape, b.m, max_excess=b.max_excess):
            p1, q1 = _once(table, uncrowd, t)
            for i in range(1, b.m):
                yield None
                t2 = f_svt(t, i)
                p2 = f_classical(p1, i)
                if (t2 is None) != (p2 is None):
                    yield f"definedness differs for {t.rows} color {i}"
                    continue
                if t2 is None:
                    continue
                p3, q3 = _once(table, uncrowd, t2)
                if p3 != p2 or q3 != q1:
                    yield f"uncrowding fails to intertwine for {t.rows} color {i}"


@_check("sink-rows", Bounds(n=4, m=4, max_letters=6))
def _check_sink_rows(b: Bounds) -> Witnesses:
    """At a sink, row i of the insertion tableau is block m+1-i, and the
    shape is the sorted weight."""
    for f in fc_factorizations(b):
        if any(f_star(f, i) is not None for i in range(1, f.m)):
            continue
        yield None
        p = star_insert(to_biword(f)).p
        wt = weight(f)
        expected_shape = tuple(sorted((v for v in wt if v), reverse=True))
        if p.shape.outer != expected_shape:
            yield f"sink {f} has shape {p.shape.outer}, weight {wt}"
            continue
        for i in range(1, p.shape.rows + 1):
            if tuple(reversed(p.rows[i - 1])) != f.factor(f.m + 1 - i):
                yield f"sink {f} row {i} differs from block {f.m + 1 - i}"
                break


@_check("pairing-side-conditions", Bounds(n=4, m=4, max_letters=6))
def _check_pairing_side_conditions(b: Bounds) -> Witnesses:
    """The largest unpaired letter x of the lower block never sees x-1
    above, and the placement of x+1 is one of three exclusive cases."""
    for f in fc_factorizations(b):
        for i in range(1, f.m):
            pr = pairing(f, i)
            if not pr.unpaired_lower:
                continue
            yield None
            x = pr.unpaired_lower[0]
            lo, up = f.factor(i), f.factor(i + 1)
            if x - 1 in up:
                yield f"{f} color {i}: {x - 1} present above"
            cases = [(x + 1 in lo and x + 1 in up),
                     (x + 1 not in lo and x + 1 not in up),
                     (x + 1 in up and x + 1 not in lo)]
            if sum(cases) != 1:
                yield f"{f} color {i}: letter {x + 1} breaks the trichotomy"


@_check("stembridge-star", Bounds(n=5, m=4, max_letters=6))
def _check_stembridge_star(b: Bounds) -> Witnesses:
    yield from _audit_graph(fc_factorizations(b), star_step, weight, b.m)


@_check("stembridge-svt", Bounds(m=4, max_cells=6, max_rows=3, max_cols=3),
        deep=Bounds(m=4, max_cells=6, max_rows=4, max_cols=4))
def _check_stembridge_svt(b: Bounds) -> Witnesses:
    for shape in skew_shapes(b):
        yield from _audit_graph(svt_fillings(shape, b.m), svt_step,
                                lambda t: weight_of(t, b.m), b.m, f"{shape}: ")


@_check("stembridge-local3", Bounds(m=5, max_letters=6))
def _check_stembridge_local3(b: Bounds) -> Witnesses:
    yield from _audit_graph(all_factorizations3(b.m, b.max_letters), step3, weight, b.m)


@_check("local3-consistency", Bounds(m=5, max_letters=6))
def _check_local3_consistency(b: Bounds) -> Witnesses:
    """Local operators preserve the Hecke class and the letter surplus."""
    for f in all_factorizations3(b.m, b.max_letters):
        for i in range(1, b.m):
            yield None
            for g, op, inverse in zip(step3(f, i), ("f3", "e3"), (e3, f3)):
                if g is None:
                    continue
                if g.eval() != f.eval() or g.num_letters() != f.num_letters():
                    yield f"{op} {i} of {f} changes class or surplus"
                if inverse(g, i) != f:
                    yield f"{op} {i} of {f} is not invertible"


@_check("dual-pipeline", Bounds(n=4, m=4, max_beta=2))
def _check_dual_pipeline(b: Bounds) -> Witnesses:
    """Sink counting and monomial peeling give the same Schur series."""
    for w in fully_commutative_elements(b.n):
        yield None
        via_crystal = schur_coeffs_via_crystal(w, b.m, b.max_beta)
        via_poly = series_via_expansion(w, b.m, b.max_beta)
        if via_crystal != via_poly:
            yield f"pipelines disagree for {w}: {via_crystal.coeffs} vs {via_poly.coeffs}"


@_check("grassmannian-match", Bounds(m=3, max_cells=4, max_rows=4, max_cols=4))
def _check_grassmannian(b: Bounds) -> Witnesses:
    """The set-valued generating function of a straight shape matches the
    factorization generating function of its one-descent permutation."""
    for mu in partitions_in_box(b.max_rows, b.max_cols):
        if not 0 < sum(mu) <= b.max_cells or len(mu) > b.m:
            continue
        yield None
        shape = SkewShape(mu, ())
        svt_side: dict[int, Counter] = {}
        top = 0
        for t in svt_fillings(shape, b.m):
            d = excess_of(t)
            svt_side.setdefault(d, Counter())[weight_of(t, b.m)] += 1
            top = max(top, d)
        w = grassmannian_element(mu, b.m)
        fact_side = grothendieck_poly(w, b.m, top + 1)
        for d in range(top + 2):
            if svt_side.get(d, {}) != {k: v for k, v in fact_side.get(d, {}).items() if v}:
                yield f"shape {mu} degree {d}: generating functions differ"


def available_checks() -> list[str]:
    return sorted(_CHECKS)


def default_bounds(name: str, deep: bool = False) -> Bounds:
    if name not in _CHECKS:
        raise ValidationError(f"unknown check {name!r}; known: {available_checks()}")
    return _CHECKS[name][2 if deep else 1]


def check_theorem(name: str, bounds: Bounds | None = None,
                  deep: bool = False) -> CheckReport:
    default = default_bounds(name, deep)    # rejects an unknown name
    return _run(name, _guarded(_CHECKS[name][0](bounds or default)))


def run_all(deep: bool = False) -> list[CheckReport]:
    return [check_theorem(name, deep=deep) for name in available_checks()]
