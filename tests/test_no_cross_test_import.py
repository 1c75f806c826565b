"""No test module imports from another.

Fixture graphs, spies and references are shared through ``helpers.py``
alone, so each is defined once and a test module can be moved or deleted
without breaking another.
"""

import ast
from pathlib import Path

TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def _cross_imports(source: str, filename: str, local: set[str]) -> list[str]:
    """file:line and module of every absolute import of a module in local."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        found += [f"{filename}:{node.lineno} {m}" for m in names if m.split(".")[0] in local]
    return found


def test_no_test_module_imports_another():
    local = {path.stem for path in TEST_MODULES}
    found = []
    for path in TEST_MODULES:
        found += _cross_imports(path.read_text(encoding="utf-8"), path.name, local)
    assert len(TEST_MODULES) >= 25 and found == []


def test_a_cross_import_is_caught():
    source = "import random\nimport test_b\nfrom helpers import cycle\nfrom test_c import GRAPHS\n"
    found = _cross_imports(source, "test_a.py", {"test_a", "test_b", "test_c"})
    assert found == ["test_a.py:2 test_b", "test_a.py:4 test_c"]
