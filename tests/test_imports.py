"""Every name a module imports is used in that module, every private
module-level helper is used somewhere in the library, and the library
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


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore, not dunders)
    that no module reads: a decorated definition is exempt, since its
    decorator may register it."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [] if node.decorator_list else [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module} line {node.lineno}: {name}" for name in defined
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read]
    return dead


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_an_orphaned_helper_is_reported():
    sources = {
        "a.py": ("_LIMIT = 3\n_ORPHAN = 0\n\n"
                 "def _helper(x):\n    return x\n\n"
                 "def _used():\n    return _LIMIT\n\n"
                 "@_register\ndef _registered():\n    pass\n\n"
                 "def _register(fn):\n    return fn\n"),
        "b.py": "from . import a\nprint(a._used())\n",
    }
    assert dead_helpers(sources) == ["a.py line 2: _ORPHAN", "a.py line 4: _helper"]
