"""Runs one workload once, in the fresh interpreter ``run.py`` starts.

The job arrives as JSON on stdin; the last line of stdout is a JSON object
with the wall time at which the inputs were ready, the timed part's wall and
CPU seconds, the peak resident memory, the raw outputs for ``run.py`` to
check, and the per-layer metrics when tracing.  Everything the program
memoizes (``hecke._eval_letters``, ``grothendieck.schur_poly``,
``residue._RES_INV_MEMO``) starts cold, as it does for a user of the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    """Import ``heckecrystals`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import heckecrystals
    if Path(heckecrystals.__file__).resolve().parent != SRC / "heckecrystals":
        raise SystemExit(f"heckecrystals was imported from {heckecrystals.__file__}, "
                         f"not from {SRC}")
    from heckecrystals import cli, residue, verification
    return cli, residue, verification


def run_checks(verification, checks) -> list[dict]:
    out = []
    for name, bounds in checks:
        report = verification.check_theorem(name, bounds)
        out.append({"name": name, "instances": report.instances,
                    "failures": len(report.failures), "witnesses": report.failures[:3]})
    return out


def run_inverse(cli, residue, examples, sample) -> dict:
    cli_out = []
    for text, shape in examples:
        stdout = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text + "\n")
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["residue", "--invert", *(["--shape", shape] if shape else [])])
        finally:
            sys.stdin = saved
        cli_out.append([code, stdout.getvalue()])
    inverse, shaped = [], []
    for f, shape in sample:
        for sink, call in ((inverse, lambda: residue.res_inv(f)),
                           (shaped, lambda: residue.res_inv_shaped(f, shape))):
            try:
                t = call()
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
                sink.append({"error": repr(exc)})
                continue
            sink.append([t.shape.outer, t.shape.inner, t.rows])
    return {"cli": cli_out, "inverse": inverse, "shaped": shaped}


def main() -> int:
    job = json.loads(sys.stdin.read())
    cli, residue, verification = import_program()
    from heckecrystals.factorization import DecreasingFactorization
    from heckecrystals.tableaux import SkewShape

    if job["kind"] == "verify":
        checks = [(name, replace(verification.default_bounds(name), **over))
                  for name, over in job["checks"]]
        work = lambda: run_checks(verification, checks)  # noqa: E731
    else:
        sample = [(DecreasingFactorization(tuple(map(tuple, blocks)),
                                           max((c for b in blocks for c in b), default=0) + 1),
                   SkewShape(tuple(outer), tuple(inner)))
                  for blocks, outer, inner in job["sample"]]
        examples = job["examples"]
        work = lambda: run_inverse(cli, residue, examples, sample)  # noqa: E731
    ready = time.time()

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs = work()
    run_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"ready": ready, "run_s": run_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "outputs": outputs}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(job["trace_file"], workload=job["workload"], seed=job["seed"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
