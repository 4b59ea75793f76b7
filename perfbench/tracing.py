"""Per-module spans and counters, installed on the program from outside.

``Tracer.install`` replaces each public function of the traced modules in
every ``heckecrystals`` namespace that holds it (so both
``heckecrystals.verification.f_svt`` and
``heckecrystals.uncrowding.tableau_from_cells`` are wrapped), wraps the
tableau constructors and ``__hash__``, and adds the named counters of the
benchmark's per-layer metrics.  Nothing under ``src/`` changes.

A call opens a span only when it enters a module from outside it: when the
innermost open span already belongs to that module, the call is the module
calling itself and passes straight through.  A module's self time is the
time of its spans minus the time of the spans opened inside them.  A
generator function opens one span per resumption, because its work runs
when the caller pulls items, not when it is called.  Of the methods on
program objects only those of ``graphs.ColoredDigraph`` (components,
sources, sinks) are wrapped; the rest, such as cell access on a tableau,
run millions of times, so their time counts towards the calling module.

Spans (name, start, end, parent) are kept in memory, up to ``SPAN_CAP`` of
them, and written out by ``Tracer.dump`` when the run ends; the totals
behind the metrics cover every call, recorded or not.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

PACKAGE = "heckecrystals"
MODULES = ("hecke", "factorization", "tableaux", "star_crystal", "svt_crystal", "local3",
           "residue", "insertion", "uncrowding", "graphs", "grothendieck", "verification")
SPAN_CAP = 100_000

# (module, function) -> named count of every call, inside the module or not
COUNTED = {
    ("residue", "res_inv"): "residue.res_inv_calls",
    ("uncrowding", "uncrowd"): "uncrowding.uncrowd_calls",
    ("hecke", "eval_word"): "hecke.eval_word_calls",
    ("grothendieck", "schur_poly"): "grothendieck.schur_poly_calls",
}
COUNTS = ("tableaux.constructions", "tableaux.hash_calls", "graphs.nodes", "graphs.edges",
          *COUNTED.values())


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []          # [module, start, child time, span id]
        self.spans: list[list] = []          # [name, start, end, parent span id]
        self.dropped = 0
        self.layer = {mod: [0, 0.0] for mod in MODULES}   # calls, self seconds
        self.counts = dict.fromkeys(COUNTS, 0)
        self.audit_s = 0.0
        self.slowest_res_inv = (0.0, "")

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, mod: str, name: str, fn):
        """``fn`` with a span of module ``mod`` around each call from
        outside ``mod``."""
        stack, spans, clock, acc = self.stack, self.spans, self.clock, self.layer[mod]
        label = f"{mod}.{name}"

        def enter() -> list:
            sid = len(spans)
            if sid < SPAN_CAP:
                spans.append([label, 0.0, 0.0, stack[-1][3] if stack else -1])
            else:
                sid = -2
                self.dropped += 1
            frame = [mod, clock(), 0.0, sid]
            stack.append(frame)
            return frame

        def leave(frame: list) -> None:
            end = clock()
            stack.pop()
            dur = end - frame[1]
            acc[1] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            if frame[3] >= 0:
                span = spans[frame[3]]
                span[1], span[2] = frame[1], end

        if inspect.isgeneratorfunction(fn):
            def resumed(gen):
                while True:
                    frame = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    yield item

            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] is mod:
                    return fn(*args, **kwargs)
                acc[0] += 1
                return resumed(fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] is mod:
                    return fn(*args, **kwargs)
                acc[0] += 1
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _slowest(self, fn):
        """Times every call of ``res_inv`` and keeps the slowest input."""
        clock = self.clock

        def wrapper(f, *args, **kwargs):
            start = clock()
            try:
                return fn(f, *args, **kwargs)
            finally:
                took = clock() - start
                if took > self.slowest_res_inv[0]:
                    self.slowest_res_inv = (took, str(f))
        return wrapper

    def _audit_timer(self, fn):
        clock = self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.audit_s += clock() - start
        return wrapper

    def _graph_size(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            g = fn(*args, **kwargs)
            counts["graphs.nodes"] += len(g.weights)
            counts["graphs.edges"] += len(g.edges)
            return g
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        namespaces = [m for key, m in sys.modules.items()
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped = self._spanned(name, attr, obj)
                if (name, attr) in COUNTED:
                    wrapped = self._counted(COUNTED[(name, attr)], wrapped)
                if (name, attr) == ("residue", "res_inv"):
                    wrapped = self._slowest(wrapped)
                elif (name, attr) == ("verification", "stembridge_audit"):
                    wrapped = self._audit_timer(wrapped)
                elif (name, attr) == ("graphs", "build_component"):
                    wrapped = self._graph_size(wrapped)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)
        graph = mods["graphs"].ColoredDigraph
        for attr, fn in list(vars(graph).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                setattr(graph, attr, self._spanned("graphs", attr, fn))
        tab = mods["tableaux"]
        for cls in (tab.SkewShape, tab.SetValuedFilling, tab.Tableau):
            cls.__init__ = self._counted("tableaux.constructions",
                                         self._spanned("tableaux", "__init__", cls.__init__))
        for cls in (tab.SetValuedFilling, tab.Tableau):
            cls.__hash__ = self._counted("tableaux.hash_calls", cls.__hash__)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for mod, (calls, self_s) in self.layer.items():
            out[f"{mod}.calls"] = (calls, "count")
            out[f"{mod}.self_s"] = (self_s, "s")
        for key, value in self.counts.items():
            out[key] = (value, "count")
        out["verification.stembridge_audit_s"] = (self.audit_s, "s")
        out["residue.res_inv_max_s"] = (self.slowest_res_inv[0], "s")
        return out

    def dump(self, path, **context) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**context,
                       "slowest_res_inv": {"seconds": self.slowest_res_inv[0],
                                           "input": self.slowest_res_inv[1]},
                       "spans_dropped": self.dropped,
                       "span_fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s - self.origin, 7), round(e - self.origin, 7), p]
                                 for n, s, e, p in self.spans]}, handle)
