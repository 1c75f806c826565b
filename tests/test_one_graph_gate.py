"""The refusal of a divisor or class from another graph is written once.

Every public function that takes one calls ``graph._same_graph``
(``test_cross_graph.py`` checks that each refuses); a second copy of the
check could drift from it in its message or its test of equality.
"""

import ast

from helpers import SOURCES


def test_different_graph_is_raised_from_one_place():
    found = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Raise) and "different graph" in ast.get_source_segment(text, node):
                found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("graph.py:"), found
