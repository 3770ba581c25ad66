"""No module of the package or of the tests imports a name it never uses.

A stdlib ``ast`` scan, since no linter ships with the project.  An import
line marked ``# noqa: F401`` is kept on purpose (``certify`` binds
``brouwer_nd_regular`` for a tracer to patch), and ``__init__.py`` files are
skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p for d in ("src/dualdeg", "tests") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")


def _used_names(tree: ast.AST) -> set:
    """Names a module reads, in code and in string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for note in filter(None, notes):
        for c in ast.walk(note):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _used_names(ast.parse(c.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((node.lineno, name))
    return out


def test_checker_flags_unused_and_honours_noqa():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from json import dumps as d, loads\n"
           "from math import pi  # noqa: F401\n"
           "from pathlib import Path\n"
           "x: 'Path | None' = sys.argv and loads\n")
    assert unused_imports(src) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
