"""The benchmark's tracer still finds what it wraps.

``perfbench/tracing.py`` wraps the program's functions and the tableau
constructors and ``__hash__`` by name, from outside.  This runs it in a
fresh interpreter on three checks at tiny bounds, so that a refactor which
renames what it wraps shows up here rather than as a broken
``perfbench/run.py --trace 1``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from dataclasses import replace
from tracing import Tracer
from heckecrystals import verification

tracer = Tracer()
tracer.install()
tiny = {"residue-intertwining": dict(m=2, max_cells=2, max_rows=2, max_cols=2),
        "stembridge-svt": dict(m=3, max_cells=2, max_rows=2, max_cols=2),
        "recording-intertwining": dict(n=3, m=2, max_letters=2)}
reports = [verification.check_theorem(name, replace(verification.default_bounds(name), **b))
           for name, b in tiny.items()]
print(json.dumps({"ok": [r.ok and r.instances > 0 for r in reports],
                  "metrics": {k: v for k, (v, _) in tracer.metrics().items()}}))
"""


def test_tracer_counts_tableaux_and_graph_nodes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    # -B: leave no bytecode under perfbench/
    proc = subprocess.run([sys.executable, "-B", "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ok"] == [True, True, True]
    for key in ("tableaux.constructions", "tableaux.hash_calls", "graphs.nodes",
                "insertion.calls", "factorization.calls", "svt_crystal.calls"):
        assert out["metrics"][key] > 0, key
    # Only stembridge-svt builds graphs here; these are the node and edge counts of its
    # graphs as the edge-set representation gave them, read through the views.
    assert (out["metrics"]["graphs.nodes"], out["metrics"]["graphs.edges"]) == (135, 100)
