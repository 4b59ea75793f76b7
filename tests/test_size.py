"""The library keeps to its line budget: ``src/heckecrystals/*.py`` total at
most 3,290 lines, counted as ``wc -l`` counts them (ROADMAP.md states the
budget; a change that needs more lines has to remove others first)."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckecrystals"
BUDGET = 3_290


def test_library_keeps_to_its_line_budget():
    lines = {p.name: p.read_bytes().count(b"\n") for p in SRC.glob("*.py")}
    assert len(lines) > 10
    assert sum(lines.values()) <= BUDGET, sorted(lines.items(), key=lambda kv: -kv[1])
