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
from itertools import chain, combinations, permutations, repeat
from typing import Callable, Iterator

from .errors import ValidationError
from .factorization import (DecreasingFactorization, enumerate_factorizations, to_biword,
                            weight)
from .graphs import ColoredDigraph, build_component
from .grothendieck import (grassmannian_element, grothendieck_poly, schur_coeffs_via_crystal,
                           schur_dict, series_via_expansion)
from .hecke import (HeckeElement, HeckeWord, demazure_apply, eval_word,
                    fully_commutative_elements, identity, is_fully_commutative)
from .insertion import (_as_tableau, hecke_insert, micro_class, star_insert, star_insert_rows,
                        star_inverse, star_peel)
from .local3 import all_factorizations3, e3, f3, step3
from .residue import _res_flat, res, res_inv, res_inv_shaped
from .star_crystal import _check_domain, pairing, phi, star_moves
from .svt_crystal import svt_moves
from .tableaux import (RowIncreasingTableau, SemistandardTableau, SkewShape, _svt_flats,
                       _weight, excess_of, from_flat, row_word, svt_fillings, weight_of)
from .uncrowding import _p_tableau, _q_tableau, _star_tilde, _uncrowded, uncrowd

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
            if (1 <= sum(outer) - sum(inner) <= b.max_cells
                    and all(a <= c for a, c in zip(inner, outer))):   # inner inside outer
                yield SkewShape(outer, inner)


def _fc_classes(b: Bounds) -> Iterator[list[DecreasingFactorization]]:
    """Per fully-commutative element of S_n, the list of its factorizations into m
    blocks using at most ``max_letters`` letters."""
    for w in fully_commutative_elements(b.n):
        slack = b.max_letters - w.length()
        if slack >= 0:
            yield list(enumerate_factorizations(w, b.m, slack))


def fc_factorizations(b: Bounds) -> Iterator[DecreasingFactorization]:
    """All factorizations of :func:`_fc_classes`, one element after another."""
    for cls in _fc_classes(b):
        yield from cls


def fc_words(b: Bounds) -> Iterator[tuple[int, ...]]:
    """Nonempty fully-commutative words of at most ``max_letters`` letters, depth first."""
    def rec(word: tuple[int, ...], e: HeckeElement) -> Iterator[tuple[int, ...]]:  # e of word
        if len(word) < b.max_letters:
            for a in range(1, b.n):
                e2 = demazure_apply(e, a)
                if e2 is e or is_fully_commutative(e2):
                    yield word + (a,)
                    yield from rec(word + (a,), e2)

    return rec((), identity(b.n))


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
                raise ValidationError(f"color {c} string through {g.name(u)} cycles")
        lengths.append(k)
    return lengths


def stembridge_audit(g: ColoredDigraph) -> CheckReport:
    """String bookkeeping, the local axioms for adjacent and distant
    colors, and uniqueness of the highest weight per component; one
    instance per node.  A cyclic string raises :class:`ValidationError`."""
    return _run("stembridge-audit", _stembridge(g))


def _stembridge(g: ColoredDigraph) -> Witnesses:
    wt, colors, name = g.wt, g.colors, g.name
    yield from g.conflicts
    eps = {c: _string_lengths(g, g.inn[c], c) for c in colors}
    phi = {c: _string_lengths(g, g.out[c], c) for c in colors}
    for c in colors:
        out, e, f = g.out[c], eps[c], phi[c]
        for u, w in enumerate(wt):
            if f[u] - e[u] != w[c - 1] - w[c]:
                yield f"string lengths at {name(u)} color {c} disagree with weight"
            v = out[u]
            if v >= 0:
                expected = list(w)
                expected[c - 1] -= 1
                expected[c] += 1
                if list(wt[v]) != expected:
                    yield f"edge {name(u)} -{c}-> {name(v)} moves weight incorrectly"

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
                        yield f"distant colors {i},{j} interact at {name(u)}"
                elif (sign * d_phi, sign * d_eps) not in ((-1, 0), (0, 1)):
                    yield (f"adjacent {kind} deltas at {name(u)} colors {i},{j}: "
                           f"{(d_phi, d_eps)}")

    # The raising side reads (inn, eps), the lowering side (out, phi).
    for step, table, kind in ((g.inn, eps, "raising"), (g.out, phi, "lowering")):
        for i, j in combinations(sorted(colors), 2):
            si, sj, ti, tj = step[i], step[j], table[i], table[j]
            for u in range(len(wt)):
                vi, vj = si[u], sj[u]
                if vi < 0 or vj < 0:
                    continue
                d_i_of_j, d_j_of_i = tj[vi] - tj[u], ti[vj] - ti[u]
                if abs(i - j) >= 2 or (d_i_of_j == 0 and d_j_of_i == 0):
                    if sj[vi] < 0 or sj[vi] != si[vj]:
                        yield f"{kind} {i},{j} fail to commute at {name(u)}"
                elif d_i_of_j == 1 and d_j_of_i == 1:
                    left = _path(step, vi, j, j, i)
                    if left < 0 or left != _path(step, vj, i, i, j):
                        yield f"{kind} braid relation fails at {name(u)} ({i},{j})"

    inns = list(g.inn.values())
    for comp in g.components():
        yield from repeat(None, len(comp))
        sources = sum(1 for u in comp if all(inn[u] < 0 for inn in inns))
        if sources != 1:
            yield f"component of {name(comp[0])} has {sources} highest weights"


def _path(step: dict[int, list[int]], u: int, *colors: int) -> int:
    """The node reached from ``u`` along ``colors``, -1 once a step is missing."""
    for c in colors:
        u = step[c][u] if u >= 0 else -1
    return u


def _table_step(table: dict, moves: Callable, build: Callable) -> Callable:
    """A step mapping the keys of the images ``moves(u, c)`` back to the nodes ``table``
    holds by key, None for no image.  A miss is built once through ``build``, the
    validating constructor, and kept: an invalid image raises, a valid one is a new node."""
    def node(k):
        u = table.get(k)
        if u is None and k is not None:
            u = table[k] = build(k)
        return u

    return lambda u, c: tuple(map(node, moves(u, c)))


def _audit_graph(seeds, step: Callable, wt: Callable, m: int, where: str = "",
                 show: Callable = str) -> Witnesses:
    """The Stembridge audit of the crystal graph on ``seeds`` and colors
    ``1..m-1``, plus the character of each component, which must be the
    Schur polynomial of the sorted sink weight; witnesses show nodes through ``show``."""
    g = build_component(seeds, tuple(range(1, m)), step, wt, show)
    sub = stembridge_audit(g)
    yield from repeat(None, sub.instances)
    for msg in sub.failures:
        yield where + msg
    for comp in g.components():
        sinks = g.sinks(comp)
        if len(sinks) != 1:
            yield f"component of {g.name(comp[0])} has {len(sinks)} sinks"
            continue
        mu = tuple(sorted((v for v in g.wt[sinks[0]] if v), reverse=True))
        if Counter(tuple(g.wt[u]) for u in comp) != schur_dict(mu, m):
            yield f"component of {g.name(sinks[0])} has a non-Schur character"


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


def _outside(shape: SkewShape, flat: tuple):
    """Raise for the image ``flat`` outside the enumerated fillings of ``shape``, once
    built: an invalid image raises as the constructor does."""
    rows = from_flat(shape, flat).rows
    raise ValidationError(f"image {rows} on {shape} is outside the enumerated fillings")


@_check("residue-intertwining", Bounds(m=3, max_cells=4, max_rows=4, max_cols=4),
        deep=Bounds(m=3, max_cells=6, max_rows=4, max_cols=4))
def _check_residue_intertwining(b: Bounds) -> Witnesses:
    """res maps the tableau operators to the factorization operators.  Each image is looked
    up among the flat cells of the shape's fillings, which the operators keep, and compared
    with the star image of the filling's residue; res runs once per filling, on its cells.
    The cores read only a shape's relative cells and labels (a translation shifts labels), so
    a class of shapes equal in both runs in full until one member runs clean; the rest count."""
    clean: dict[tuple, int] = {}        # class key -> instances of its clean shape
    for shape in skew_shapes(b):
        geo = shape.geometry
        i0, j0 = geo.cells[0][0], min(j for _, j in geo.cells)
        key = tuple((i - i0, j - j0, c) for (i, j), c in zip(geo.cells, geo.labels))
        if key in clean:
            yield from repeat(None, clean[key])
            continue
        ids = {flat: k for k, flat in enumerate(_svt_flats(shape, b.m))}
        step = _table_step(ids, lambda u, i: svt_moves(geo, u, i), lambda u: _outside(shape, u))
        residues = [_res_flat(geo, flat, b.m) for flat in ids]
        ok = True
        for flat, f in zip(ids, residues):
            for i in range(1, b.m):
                yield None
                images = step(flat, i)
                _check_domain(f, i)
                for k, rhs, tag in zip(images, star_moves(f.factors, i), ("lower", "raise")):
                    lhs = None if k is None else residues[k].factors
                    if lhs != rhs:
                        ok, t = False, from_flat(shape, flat)
                        yield f"{tag} {i} on {shape}: {t.rows} -> {lhs} vs {rhs}"
        if ok:
            clean[key] = len(ids) * (b.m - 1)


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
    """Star insertion round-trips against its inverse, on rows; P and Q are built."""
    for fs in _fc_classes(b):
        target = None
        for f in fs:
            yield None
            biword = to_biword(f)
            rows, qrows, _ = star_insert_rows(reversed(biword.bottom), reversed(biword.top))
            p, q = _as_tableau(rows, RowIncreasingTableau), _as_tableau(qrows, SemistandardTableau)
            if biword.bottom:       # the reversed words of a class share their element
                target = target or eval_word(HeckeWord(biword.bottom[::-1], f.n))
                if eval_word(row_word(p, f.n)) != target:
                    yield f"row word of P not equivalent for {f}"
                    continue
            if star_peel(rows, q) != (biword.top, biword.bottom):
                yield f"round trip failed for {f}: got {star_inverse(p, q)}"


@_check("insertion-invariance", Bounds(n=4, max_letters=6))
def _check_insertion_invariance(b: Bounds) -> Witnesses:
    """Micro-equivalent insertion sequences share the insertion tableau, built once."""
    seen: set[tuple[int, ...]] = set()
    for word in fc_words(b):
        if word in seen:
            continue
        cls = micro_class(word)
        seen.update(cls)
        yield None
        rows = dict.fromkeys(tuple(map(tuple, star_insert_rows(u, repeat(0))[0])) for u in cls)
        tableaux = {_as_tableau(p, RowIncreasingTableau) for p in rows}
        if len(tableaux) != 1:
            yield f"class of {word} has {len(tableaux)} distinct tableaux"


@_check("operator-rewrites", Bounds(n=4, m=4, max_letters=6))
def _check_operator_rewrites(b: Bounds) -> Witnesses:
    """Crystal moves rewrite the reversed word, read off each image's blocks, by micro-moves.
    A micro class keeps the element, so it is closed once per element, found by any word."""
    reading = lambda u: tuple(a for bl in reversed(u) for a in reversed(bl))  # noqa: E731
    for fs in _fc_classes(b):
        classes: dict[tuple[int, ...], frozenset] = {}
        for f in fs:
            rev = reading(f.factors)
            for i in range(1, f.m):
                for g, op in zip(star_moves(f.factors, i, pairing(f, i)), ("f_star", "e_star")):
                    if g is None:
                        continue
                    yield None
                    cls = classes.get(rev)
                    if cls is None:
                        cls = micro_class(rev)
                        classes.update(dict.fromkeys(cls, cls))
                    if reading(g) not in cls:
                        yield f"{op} {i} of {f} leaves the rewrite class"


@_check("recording-intertwining", Bounds(n=4, m=4, max_letters=6))
def _check_recording_intertwining(b: Bounds) -> Witnesses:
    """Q of the star insertion carries the classical crystal action.  ``f_star`` keeps the
    element, so an image's Q is looked up by its blocks among the element's, each inserted
    on rows and built once (a miss goes through ``star_insert``); both sides lower on cells."""
    recording = lambda q: (q.shape, tuple(zip(q.flat())))  # noqa: E731
    q_rows = lambda bw: star_insert_rows(reversed(bw.bottom), reversed(bw.top))[1]  # noqa: E731
    for fs in _fc_classes(b):
        qs = [recording(_as_tableau(q_rows(to_biword(f)), SemistandardTableau)) for f in fs]
        step = _table_step(dict(zip((f.factors for f in fs), qs)),
                           lambda u, i: star_moves(u, i)[:1], lambda u: recording(
                               star_insert(to_biword(DecreasingFactorization(u, b.n))).q))
        for f, (shape, flat) in zip(fs, qs):
            for i in range(1, f.m):
                yield None
                image, = step(f.factors, i)
                q2, = svt_moves(shape.geometry, flat, i, (+1,))
                if (image is None) != (q2 is None):
                    yield f"definedness differs for {f} color {i}"
                elif image is not None and image != (shape, q2):
                    yield f"recording tableaux differ for {f} color {i}"


@_check("uncrowding-compat", Bounds(m=3, max_cells=5, max_rows=4, max_cols=4, max_excess=2),
        deep=Bounds(m=3, max_cells=6, max_rows=4, max_cols=4, max_excess=3))
def _check_uncrowding_compat(b: Bounds) -> Witnesses:
    """Padded star insertion records the uncrowding of the canonical representative
    of the residue class, compared on rows (``uncrowd`` builds P only on a mismatch).
    The residues of a shape's fillings are the factorizations of its element, the
    Demazure product of its diagonal labels read row by row from the top, right to left."""
    done: set[HeckeElement] = set()
    for shape in skew_shapes(b):
        labels = shape.geometry.labels[::-1]
        w = eval_word(HeckeWord(labels, max(labels) + 1))
        if w in done:
            continue
        done.add(w)
        for h in enumerate_factorizations(w, b.m, b.max_excess):
            yield None
            canonical = res_inv(h)
            p = _uncrowded(canonical.shape, canonical.flat())[:2]   # P's outer shape and cells
            q = _star_tilde(h, canonical).q
            if (q.shape.outer, tuple(zip(q.flat()))) != p and q != uncrowd(canonical)[0]:
                t = res_inv_shaped(h, shape)
                yield f"uncrowding mismatch for {h} (from {t.rows} on {shape})"


@_check("uncrowding-intertwining",
        Bounds(m=3, max_cells=5, max_rows=4, max_cols=4, max_excess=2))
def _check_uncrowding_intertwining(b: Bounds) -> Witnesses:
    """Uncrowding commutes with the crystal operators and fixes the recording side.  An
    image keeps shape and excess, so it is looked up among the flat cells of the shape's
    fillings.  Each is uncrowded once on its flat cells; its P is built (so validated) as
    uncrowd builds it, its Q once per recording, and both sides lower on flat cells."""
    for shape in skew_shapes(b):
        ids = {flat: k for k, flat in enumerate(_svt_flats(shape, b.m, b.max_excess))}
        step = _table_step(ids, lambda u, i: svt_moves(shape.geometry, u, i, (+1,)),
                           lambda u: _outside(shape, u))
        uncrowded, qs = [], {}
        for flat in ids:
            outer, p_flat, recording = _uncrowded(shape, flat)
            uncrowded.append((_p_tableau(shape, outer, p_flat).shape, p_flat, recording))
            if recording not in qs:
                qs[recording] = _q_tableau(recording, shape, outer)
        for flat, (p_shape, p_flat, q) in zip(ids, uncrowded):
            for i in range(1, b.m):
                yield None
                k, = step(flat, i)
                p2, = svt_moves(p_shape.geometry, p_flat, i, (+1,))
                if (k is None) != (p2 is None):
                    yield f"definedness differs for {from_flat(shape, flat).rows} color {i}"
                    continue
                if k is not None and uncrowded[k] != (p_shape, p2, q):
                    t = from_flat(shape, flat)
                    yield f"uncrowding fails to intertwine for {t.rows} color {i}"


@_check("sink-rows", Bounds(n=4, m=4, max_letters=6))
def _check_sink_rows(b: Bounds) -> Witnesses:
    """At a sink, row i of the insertion tableau is block m+1-i, and the
    shape is the sorted weight."""
    for f in fc_factorizations(b):
        if any(phi(f, i) for i in range(1, f.m)):
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
    """The star crystal keeps the element and letter count, so each image's blocks are
    looked up among the enumerated factorizations for the audit; a miss is built."""
    nodes = list(fc_factorizations(b))
    step = _table_step({f.factors: f for f in nodes},
                       lambda f, c: star_moves(f.factors, c, pairing(f, c)),
                       lambda u: DecreasingFactorization(u, b.n))
    yield from _audit_graph(nodes, step, weight, b.m)


@_check("stembridge-svt", Bounds(m=4, max_cells=6, max_rows=3, max_cols=3),
        deep=Bounds(m=4, max_cells=6, max_rows=4, max_cols=4))
def _check_stembridge_svt(b: Bounds) -> Witnesses:
    """A shape's fillings with entries at most m are closed under the operators, so the
    audit's nodes are their flat cells, and each image is looked up among them; a miss is
    built.  A node is built as a tableau only to show it in a witness."""
    for shape in skew_shapes(b):
        geo, flats = shape.geometry, list(_svt_flats(shape, b.m))
        step = _table_step(dict(zip(flats, flats)), lambda u, c: svt_moves(geo, u, c),
                           lambda u: from_flat(shape, u).flat())
        yield from _audit_graph(flats, step, lambda u: _weight(chain.from_iterable(u), b.m),
                                b.m, f"{shape}: ", lambda u: from_flat(shape, u))


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
