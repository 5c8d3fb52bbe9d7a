"""Every name a module of the package or of its tests imports is used.

Parsed with the standard library's ast, so no linter is needed.  The
package's __init__.py imports only to re-export, and __future__ imports
are directives, so both are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "ofdmsar").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by an import statement and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        # a quoted annotation names its types inside a string
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            used |= {n.id for n in ast.walk(ast.parse(annotation.value))
                     if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import Optional, TYPE_CHECKING\n"
              "def f(x: 'Optional[int]') -> None:\n"
              "    return sys.argv\n")
    assert unused_imports(source) == ["line 2: os", "line 3: TYPE_CHECKING"]
