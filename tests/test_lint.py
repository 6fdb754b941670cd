"""No module under src/, tests/, demos/ or bench/ imports a name it never
reads, and nothing under src/ is defined that src/ never names.

Two stdlib `ast` scans. Every name an import binds must be read somewhere
in the same module, as a bare name or as the base of an attribute access;
`from __future__` imports bind nothing and are skipped. Every function,
class and method defined under src/, and every name a module-level
assignment there binds, must be named, as a name or an attribute,
somewhere under src/ outside its own definition; dunders and the library
entry points that only outside callers use are exempt.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))
SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))
ENTRY_POINTS = {"parse_formula", "replay_check"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unused]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(d)\n") == ["line 1: os", "line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions that no module names outside the definition itself."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    # name -> every (path, line) where it is named
    named = {}
    for path, tree in trees.items():
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                named.setdefault(name, []).append((path, n.lineno))
    dead = []
    for path, tree in trees.items():
        defs = [(d, d.name) for d in ast.walk(tree)
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        defs += [(d, n.id) for d in tree.body if isinstance(d, (ast.Assign, ast.AnnAssign))
                 for n in ast.walk(d) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        for d, name in defs:
            if name in ENTRY_POINTS or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(p != path or not d.lineno <= line <= d.end_lineno for p, line in named.get(name, ())):
                dead.append(f"{path}:{d.lineno}: {name}")
    return sorted(dead)


def test_scan_sees_a_dead_definition():
    sources = {
        "a.py": "def used(n):\n    return used(n - 1)\nclass C:\n    def m(self):\n        pass\n    def __repr__(self):\n        return ''\n",
        "b.py": "from a import C\nC().m\ndef parse_formula():\n    pass\n",
    }
    assert dead_definitions(sources) == ["a.py:1: used"]


def test_scan_sees_a_dead_constant():
    sources = {
        "a.py": "__version__ = '1'\nLIMIT: int = 3\nA, B = 1, 2\nTABLE = {}\nTABLE['k'] = A\n",
        "b.py": "from a import B\nprint(B)\ndef f():\n    local = 1\nf()\n",
    }
    assert dead_definitions(sources) == ["a.py:2: LIMIT"]


def test_no_dead_definitions():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SRC_MODULES}
    assert dead_definitions(sources) == []
