import io
import json
import sys

import pytest

from heckecrystals.cli import main


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_text(capsys):
    code, out = run(capsys, "enumerate", "--word", "1", "--factors", "2",
                    "--max-excess", "1")
    assert code == 0
    assert set(out.split()) == {"(1)()", "()(1)", "(1)(1)"}


def test_enumerate_json_round_trip(capsys):
    code, out = run(capsys, "enumerate", "--word", "21", "--factors", "2",
                    "--max-excess", "0", "--format", "json")
    assert code == 0
    from heckecrystals.formats import factorization_from_json

    parsed = [factorization_from_json(d) for d in json.loads(out)]
    assert {str(f) for f in parsed} == {"(21)()", "(2)(1)", "()(21)"}


def test_insert_star_json(capsys, monkeypatch):
    code, out = run(capsys, "insert", "--algo", "star",
                    stdin="4 4 2 2 1 1 / 4 2 4 2 3 1", monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["P"]["rows"] == [[[1], [2], [4]], [[1], [4]], [[3]]]
    assert data["Q"]["rows"] == [[[1], [1], [2]], [[2], [4]], [[4]]]


def test_insert_hecke_from_factorization_text(capsys, monkeypatch):
    code, out = run(capsys, "insert", "--algo", "hecke",
                    stdin="(1)(2)(31)()(32)", monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["Q"]["rows"] == [[[1], [1, 3]], [[3], [4]], [[5]]]


def test_insert_rejects_braided_star_input(capsys, monkeypatch):
    code, _ = run(capsys, "insert", "--algo", "star", stdin="(21)(21)",
                  monkeypatch=monkeypatch)
    assert code == 2


def test_residue_forward_and_back(capsys, monkeypatch):
    tableau = json.dumps({
        "notation": "french",
        "outer": [2, 2], "inner": [1],
        "rows": [[[1, 2]], [[2, 3], [3]]],
    })
    code, out = run(capsys, "residue", stdin=tableau, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "(21)(31)(3)"

    code, out = run(capsys, "residue", "--invert", stdin="(21)(31)(3)",
                    monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["rows"] == [[[1, 2]], [[2, 3], [3]]]


def test_residue_invert_with_shape(capsys, monkeypatch):
    code, out = run(capsys, "residue", "--invert", "--shape", "3,3,1,1,1/1,1,1",
                    stdin="(61)(752)(75)(762)", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["outer"] == [3, 3, 1, 1, 1]


def test_residue_invert_second_example_without_shape(capsys, monkeypatch):
    code, out = run(capsys, "residue", "--invert", stdin="(8431)(863)(8654)(941)",
                    monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert (data["outer"], data["inner"]) == ([5, 5, 4, 3, 1], [4, 4, 1, 1])
    assert data["rows"] == [[[1]], [[2, 3, 4]], [[1, 2], [2], [2, 3]],
                            [[3, 4], [4]], [[1, 4]]]


@pytest.mark.parametrize("shape, stdin", [("a,b", "(61)(752)(75)(762)"),
                                          (None, "(1,a)")])
def test_residue_invert_rejects_non_integers(capsys, monkeypatch, shape, stdin):
    argv = ["residue", "--invert"] + (["--shape", shape] if shape else [])
    code, _ = run(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2


@pytest.mark.parametrize("command", ["residue", "uncrowd"])
@pytest.mark.parametrize("payload", [
    "[1]",                                   # not an object
    '{"rows": [[[1]]]}',                     # no outer
    '{"outer": [1]}',                        # no rows
    '{"outer": [1], "rows": [[[1.5]]]}',     # a cell entry that is not an integer
])
def test_malformed_tableau_json_is_invalid_input(capsys, monkeypatch, command, payload):
    code, _ = run(capsys, command, stdin=payload, monkeypatch=monkeypatch)
    assert code == 2


@pytest.mark.parametrize("payload", [
    '{"factors": 5, "n": 3}',                # factors not a list
    '{"factors": [[1]]}',                    # no n
    '{"factors": [["a"]], "n": 3}',          # a letter that is not an integer
    '{"factors": [[1.5]], "n": 3}',          # a letter that is a float
])
def test_malformed_factorization_json_is_invalid_input(capsys, monkeypatch, payload):
    code, _ = run(capsys, "insert", "--algo", "star", stdin=payload, monkeypatch=monkeypatch)
    assert code == 2


LETTER_0 = "letter 0 is below 1; letters start at 1"


@pytest.mark.parametrize("argv, stdin, error", [
    (["enumerate", "--word", ",", "--factors", "2"], "", "word ',' has no letters"),
    (["enumerate", "--word", "", "--factors", "2"], "", "word '' has no letters"),
    (["expand", "--word", "", "--vars", "2"], "", "word '' has no letters"),
    (["insert"], " / ", "biword '/' has a row with no letters"),
    (["insert"], "0 / 1", "biword block indices must be at least 1"),
    (["residue", "--invert", "--shape", "1/"], "(1)", "shape '1/' has an empty partition"),
    (["residue", "--invert", "--shape", "/"], "(1)", "shape '/' has an empty partition"),
    (["residue", "--invert", "--shape", ""], "(1)", "shape '' has an empty partition"),
    (["enumerate", "--word", "0", "--factors", "2"], "", LETTER_0),
    (["expand", "--word", "0", "--vars", "2"], "", LETTER_0),
    (["graph", "--seed", "(0)"], "", LETTER_0),
    (["residue", "--invert"], "(0)", LETTER_0),
    (["insert", "--algo", "star"], "1 / 0", LETTER_0),
    (["insert", "--algo", "hecke"], "1 / 0", LETTER_0),
], ids=["enumerate-comma", "enumerate-empty", "expand-empty", "insert-empty-rows",
        "insert-block-0", "residue-shape-1-slash", "residue-shape-slash", "residue-shape-empty",
        "enumerate-letter-0", "expand-letter-0", "graph-letter-0", "residue-letter-0",
        "insert-star-letter-0", "insert-hecke-letter-0"])
def test_input_outside_the_grammar_is_invalid_input(capsys, monkeypatch, argv, stdin, error):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_graph_star_without_seed_is_invalid_input(capsys):
    code, _ = run(capsys, "graph", "--crystal", "star")
    assert code == 2


@pytest.mark.parametrize("blocks", ["0", "-2"])
def test_graph_svt_with_nonpositive_blocks_is_invalid_input(capsys, monkeypatch, blocks):
    seed = json.dumps({"notation": "french", "outer": [1], "inner": [], "rows": [[[1]]]})
    code, _ = run(capsys, "graph", "--crystal", "svt", "--blocks", blocks,
                  stdin=seed, monkeypatch=monkeypatch)
    assert code == 2


def test_missing_input_file_is_invalid_input(capsys, tmp_path):
    code, _ = run(capsys, "residue", "--input", str(tmp_path / "missing.json"))
    assert code == 2


def test_uncrowd_json(capsys, monkeypatch):
    tableau = json.dumps({
        "notation": "french",
        "outer": [1], "inner": [],
        "rows": [[[1, 2]]],
    })
    code, out = run(capsys, "uncrowd", stdin=tableau, monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["P"]["rows"] == [[[1]], [[2]]]
    assert data["Q"]["rows"] == [[], [[1]]]


def test_graph_dot_output(capsys):
    code, out = run(capsys, "graph", "--seed", "(1)(21)(1)", "--crystal", "local3")
    assert code == 0
    assert out.startswith("digraph")
    assert 'color="blue"' in out and 'color="red"' in out
    assert out.count("->") == 6


def test_graph_star_json(capsys):
    code, out = run(capsys, "graph", "--seed", "()(2)(1)(32)", "--crystal", "star",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "()(2)(1)(32)" in data["nodes"]


def test_expand_table(capsys):
    code, out = run(capsys, "expand", "--word", "12132", "--vars", "4",
                    "--max-beta", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "beta^0  s_2,2,1  1" in lines
    assert "beta^1  s_2,2,2  2" in lines
    assert "beta^1  s_2,2,1,1  3" in lines
    assert "beta^2  s_2,2,2,1  6" in lines
    assert len(lines) == 4


def test_expand_csv_and_json_agree(capsys):
    code, out_json = run(capsys, "expand", "--word", "132", "--vars", "2",
                         "--max-beta", "1", "--format", "json", "--method", "both")
    assert code == 0
    rows = json.loads(out_json)
    code, out_csv = run(capsys, "expand", "--word", "132", "--vars", "2",
                        "--max-beta", "1", "--format", "csv")
    assert code == 0
    assert len(out_csv.strip().splitlines()) == len(rows) + 1


def test_verify_single_check(capsys):
    code, out = run(capsys, "verify", "--theorem", "dual-pipeline", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["name"] == "dual-pipeline"
    assert data[0]["failures"] == []


def test_verify_list(capsys):
    code, out = run(capsys, "verify", "--list")
    assert code == 0
    assert "residue-intertwining" in out.split()


def test_usage_error_exit_code(capsys):
    assert main(["enumerate"]) == 2  # missing required flags


def test_unknown_theorem_is_validation_error(capsys):
    code, _ = run(capsys, "verify", "--theorem", "bogus")
    assert code == 2
