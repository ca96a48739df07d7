"""Every package module uses each name it imports (``__init__`` re-exports)."""

import ast
from pathlib import Path

import pytest

import knnabc

MODULES = sorted(p for p in Path(knnabc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert _unused_imports(source) == ["line 2: path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
