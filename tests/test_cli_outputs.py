"""The CLI's whole output, pinned per invocation.

``data/cli_outputs.json`` holds, per invocation, the argv, the stdin, the
exit code and the exact stdout and stderr.  The test runs each through
``cli.main`` in-process and compares all of them byte for byte.  It covers
the README invocations (except the two timed ``verify`` runs),
``residue --invert`` on both worked examples and its exit-2 paths,
``uncrowd``, ``graph`` for all three crystals, ``insert``, ``expand`` in
every format, ``verify --list`` and an unknown check name.  Regenerate the
file only when a change of output is intended:

    PYTHONPATH=src python tests/test_cli_outputs.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from heckecrystals.cli import main

FIXTURE = Path(__file__).parent / "data" / "cli_outputs.json"

SKEW = '{"notation":"french","outer":[2,2],"inner":[1],"rows":[[[1,2]],[[2,3],[3]]]}'
CELL = '{"notation":"french","outer":[1],"inner":[],"rows":[[[1,2]]]}'
SECOND = ('{"notation":"french","outer":[5,5,4,3,1],"inner":[4,4,1,1],'
          '"rows":[[[1]],[[2,3,4]],[[1,2],[2],[2,3]],[[3,4],[4]],[[1,4]]]}')
SVT_SEED = '{"notation":"french","outer":[2,1],"inner":[],"rows":[[[1],[1,2]],[[2]]]}'
BIWORD = "4 4 2 2 1 1 / 4 2 4 2 3 1"

INVOCATIONS = [
    # the README's
    (["enumerate", "--word", "2132", "--factors", "3", "--max-excess", "1"], ""),
    (["insert", "--algo", "star"], BIWORD),
    (["residue"], SKEW),
    (["residue", "--invert", "--shape", "3,3,1,1,1/1,1,1"], "(61)(752)(75)(762)"),
    (["uncrowd"], CELL),
    (["graph", "--seed", "(1)(21)(1)", "--crystal", "local3", "--format", "dot"], ""),
    (["expand", "--word", "12132", "--vars", "4", "--max-beta", "2"], ""),
    (["verify", "--list"], ""),
    # residue both ways, on both worked examples
    (["residue", "--blocks", "4"], SKEW),
    (["residue", "--invert"], "(21)(31)(3)"),
    (["residue", "--invert"], "(61)(752)(75)(762)"),
    (["residue", "--invert"], "(8431)(863)(8654)(941)"),
    (["residue", "--invert", "--shape", "5,5,4,3,1/4,4,1,1"], "(8431)(863)(8654)(941)"),
    (["residue", "--invert", "--shape", "4,4,1,1/2,1"], "(61)(752)(75)(762)"),
    (["residue", "--invert", "--shape", "1,1"], "(1)"),
    (["residue", "--invert", "--shape", "2/1"], "(1)"),
    (["residue", "--invert", "--shape", "1"], "(2)(1)"),
    (["residue", "--invert"], "(1)(2)(1)"),
    # uncrowd, text and JSON
    (["uncrowd", "--format", "text"], CELL),
    (["uncrowd"], SKEW),
    (["uncrowd", "--format", "text"], SECOND),
    (["uncrowd"], SECOND),
    (["uncrowd"], '{"notation":"french","outer":[1],"inner":[],"rows":[[[2,1]]]}'),
    # graph, all three crystals in DOT and JSON
    (["graph", "--seed", "()(2)(1)(32)", "--crystal", "star"], ""),
    (["graph", "--seed", "()(2)(1)(32)", "--crystal", "star", "--format", "json"], ""),
    (["graph", "--crystal", "svt"], SVT_SEED),
    (["graph", "--crystal", "svt", "--blocks", "3", "--format", "json"], SVT_SEED),
    (["graph", "--seed", "(1)(21)(1)", "--crystal", "local3", "--format", "json"], ""),
    (["graph", "--crystal", "star"], ""),
    # insert, star and Hecke, text and JSON, with and without --trace
    (["insert", "--algo", "star", "--format", "text"], BIWORD),
    (["insert", "--algo", "star", "--trace"], BIWORD),
    (["insert", "--algo", "star", "--trace", "--format", "text"], "(61)(752)(75)(762)"),
    (["insert", "--algo", "hecke"], "(1)(2)(31)()(32)"),
    (["insert", "--algo", "hecke", "--format", "text"], "(1)(2)(31)()(32)"),
    (["insert", "--algo", "hecke", "--trace"], BIWORD),
    (["insert", "--algo", "star"], "(21)(21)"),
    # expand, every format and method
    (["expand", "--word", "132", "--vars", "2", "--max-beta", "1", "--format", "json"], ""),
    (["expand", "--word", "132", "--vars", "2", "--max-beta", "1", "--format", "csv"], ""),
    (["expand", "--word", "132", "--vars", "3", "--max-beta", "1", "--method", "crystal"], ""),
    (["expand", "--word", "2132", "--vars", "3", "--max-beta", "1", "--method", "both"], ""),
    # enumerate in JSON, and an unknown check name
    (["enumerate", "--word", "21", "--factors", "2", "--format", "json"], ""),
    (["verify", "--theorem", "bogus"], ""),
]


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return {"argv": list(argv), "stdin": stdin, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _outputs():
    return [_run(argv, stdin) for argv, stdin in INVOCATIONS]


def test_cli_outputs_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    got = _outputs()
    assert len(got) == len(expected) == len(INVOCATIONS)
    assert [g for g, e in zip(got, expected) if g != e] == []


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_outputs(), indent=1, ensure_ascii=False) + "\n")
