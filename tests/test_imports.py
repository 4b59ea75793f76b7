"""Every name a module imports is used in that module, and the library
imports nothing outside the standard library (stdlib ``ast`` only)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heckecrystals"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):     # quoted annotations and ``__all__`` entries
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_module_is_scanned():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from typing import Iterator\nimport os, sys\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 1: Iterator", "line 2: os"]


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports of modules outside ``sys.stdlib_module_names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_a_non_stdlib_import_is_reported():
    source = ("import hypothesis\nimport os.path\nfrom . import tableaux\n"
              "from .errors import ValidationError\nfrom numpy import array\n")
    assert non_stdlib_imports(source) == ["line 1: hypothesis", "line 5: numpy"]
