"""Command-line front door.

Subcommands: enumerate, insert, residue, uncrowd, graph, expand, verify.
Input comes from ``--input FILE`` or stdin where a payload is needed;
output goes to stdout.  Exit codes: 0 success, 2 for invalid input or
usage, 1 for an internal failure or a failed verification run.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .errors import ValidationError
from .factorization import enumerate_factorizations, to_biword
from .grothendieck import schur_coeffs_via_crystal, series_via_expansion
from .hecke import eval_word
from .insertion import InsertionResult, hecke_insert, star_insert
from .local3 import crystal_graph_local3
from .residue import res, res_inv, res_inv_shaped
from .star_crystal import crystal_graph
from .svt_crystal import crystal_graph_svt
from .tableaux import pretty
from .uncrowding import uncrowd
from .verification import available_checks, check_theorem, run_all


def _read_payload(args) -> str:
    if getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {args.input}: {exc.strerror}") from exc
    return sys.stdin.read()


def _result_to_json(result: InsertionResult) -> dict:
    out: dict = {"P": formats.filling_to_json(result.p), "Q": formats.filling_to_json(result.q)}
    if result.trace is not None:
        out["trace"] = [[list(cell) for cell in path] for path in result.trace]
    return out


def _cmd_enumerate(args) -> int:
    word = formats.parse_word(args.word)
    w = eval_word(word)
    found = list(enumerate_factorizations(w, args.factors, args.max_excess))
    if args.format == "json":
        print(json.dumps([formats.factorization_to_json(f) for f in found]))
    else:
        for f in found:
            print(f)
    return 0


def _cmd_insert(args) -> int:
    text = _read_payload(args).strip()
    if text.startswith("("):
        biword = to_biword(formats.parse_factorization(text))
    elif text.startswith("{"):
        biword = to_biword(formats.factorization_from_json(formats.loads(text)))
    else:
        biword = formats.parse_biword(text)
    algo = hecke_insert if args.algo == "hecke" else star_insert
    return _print_result(algo(biword, trace=args.trace), args.format)


def _print_result(result: InsertionResult, fmt: str) -> int:
    """P and Q of ``insert`` or ``uncrowd``, as text or JSON."""
    if fmt == "text":
        print("P:")
        print(pretty(result.p))
        print("Q:")
        print(pretty(result.q))
    else:
        print(json.dumps(_result_to_json(result)))
    return 0


def _cmd_residue(args) -> int:
    if args.invert:
        f = formats.parse_factorization(_read_payload(args).strip())
        if args.shape is not None:
            t = res_inv_shaped(f, formats.parse_shape(args.shape))
        else:
            t = res_inv(f)
        print(json.dumps(formats.filling_to_json(t)))
    else:
        t = formats.filling_from_json(formats.loads(_read_payload(args)))
        print(res(t, args.blocks))
    return 0


def _cmd_uncrowd(args) -> int:
    t = formats.filling_from_json(formats.loads(_read_payload(args)))
    return _print_result(InsertionResult(*uncrowd(t)), args.format)


def _cmd_graph(args) -> int:
    if args.crystal == "svt":
        seed = formats.filling_from_json(formats.loads(_read_payload(args)))
        g = crystal_graph_svt(seed, seed.max_entry() if args.blocks is None else args.blocks)
        label = lambda t: pretty(t).replace("\n", "\\n")
    else:
        if args.seed is None:
            raise ValidationError(f"the {args.crystal} crystal needs --seed")
        seed = formats.parse_factorization(args.seed)
        g = crystal_graph(seed) if args.crystal == "star" else crystal_graph_local3(seed)
        label = str
    if args.format == "json":
        nodes = sorted((label(u) for u in g.nodes))
        edges = sorted((label(a), c, label(b)) for a, c, b in g.edges)
        print(json.dumps({"nodes": nodes, "edges": edges}))
    else:
        print(g.to_dot(label))
    return 0


def _cmd_expand(args) -> int:
    word = formats.parse_word(args.word)
    w = eval_word(word)
    if args.method == "crystal":
        series = schur_coeffs_via_crystal(w, args.vars, args.max_beta)
    else:
        series = series_via_expansion(w, args.vars, args.max_beta)
        if args.method == "both":
            other = schur_coeffs_via_crystal(w, args.vars, args.max_beta)
            if other != series:
                raise ValidationError("the two expansion pipelines disagree")
    rows = sorted((d, mu, c) for (d, mu), c in series.coeffs.items() if c)
    if args.format == "json":
        print(json.dumps([{"beta": d, "partition": list(mu), "coefficient": c}
                          for d, mu, c in rows]))
    elif args.format == "csv":
        print("beta,partition,coefficient")
        for d, mu, c in rows:
            print(f"{d},{' '.join(map(str, mu))},{c}")
    else:
        for d, mu, c in rows:
            print(f"beta^{d}  s_{','.join(map(str, mu))}  {c}")
    return 0


def _cmd_verify(args) -> int:
    if args.theorem in (None, "all"):
        reports = run_all(deep=args.deep)
    else:
        reports = [check_theorem(args.theorem, deep=args.deep)]
    if args.json:
        print(json.dumps([{
            "name": r.name, "instances": r.instances,
            "failures": r.failures, "elapsed": r.elapsed,
        } for r in reports]))
    else:
        for r in reports:
            print(r.summary())
            for witness in r.failures[:10]:
                print(f"  witness: {witness}")
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckecrystals",
        description="Crystals on 0-Hecke factorizations, set-valued tableaux, "
                    "insertion algorithms and Schur expansions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="decreasing factorizations of a word's element")
    p.add_argument("--word", required=True, help="0-Hecke word, e.g. '12132'")
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--max-excess", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("insert", help="row insertion of a biword or factorization")
    p.add_argument("--algo", choices=("hecke", "star"), default="star")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--input", help="file with factorization text, biword text or JSON")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(fn=_cmd_insert)

    p = sub.add_parser("residue", help="residue map between tableaux and factorizations")
    p.add_argument("--invert", action="store_true")
    p.add_argument("--shape", help="skew shape like '4,4,1,1/2,2' (with --invert)")
    p.add_argument("--blocks", type=int, default=None, help="number of blocks for res")
    p.add_argument("--input")
    p.set_defaults(fn=_cmd_residue)

    p = sub.add_parser("uncrowd", help="uncrowding map on a set-valued tableau")
    p.add_argument("--input")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(fn=_cmd_uncrowd)

    p = sub.add_parser("graph", help="crystal component as DOT or JSON")
    p.add_argument("--seed", help="factorization text (star and local3 crystals)")
    p.add_argument("--crystal", choices=("star", "svt", "local3"), default="star")
    p.add_argument("--blocks", type=int, default=None, help="letter bound for svt graphs")
    p.add_argument("--input", help="tableau JSON (svt crystal)")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("expand", help="Schur expansion of a stable Grothendieck polynomial")
    p.add_argument("--word", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--max-beta", type=int, default=0)
    p.add_argument("--method", choices=("enumerate", "crystal", "both"), default="enumerate")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("verify", help="run exhaustive bounded checks")
    p.add_argument("--theorem", help="check name or 'all'; see --list")
    p.add_argument("--deep", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--list", action="store_true", help="list available checks")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "verify" and args.list:
        for name in available_checks():
            print(name)
        return 0
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
