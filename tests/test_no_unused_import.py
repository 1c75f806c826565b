"""No module of the package imports a name it never uses.

An import left behind after its last use hides what a module depends on.
``__init__.py`` is exempt, since it imports names to re-export them, and
so are ``from __future__`` imports.  A name counts as used when it is read
anywhere in the module, annotations included.
"""

import ast

from helpers import SOURCES

MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _imported(tree: ast.Module):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename=filename)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{filename}:{line} {name}" for name, line in _imported(tree) if name not in used]


def test_sources_found():
    assert len(MODULES) >= 8


def test_every_import_is_used():
    found = []
    for path in MODULES:
        found += _unused(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .divisors import class_of, residual as res\n"
        "def f(d: Divisor) -> int:\n"
        "    return res(d)\n"
    )
    assert _unused(source, "m.py") == ["m.py:2 os", "m.py:3 class_of"]
