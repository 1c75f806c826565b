"""No check in the package may vanish under ``python -O``.

Every internal invariant raises :class:`chipfire.errors.InternalError`;
an ``assert`` statement or a ``raise AssertionError`` would be stripped or
would escape the CLI's documented exit codes.
"""

import ast

from helpers import SOURCES


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_sources_found():
    assert len(SOURCES) >= 8


def test_no_assert_in_package():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
