"""Each public name, kernel step and satellite count is bound in one place.

- A public name is listed in the ``__all__`` of the module that defines
  it, and the package exports their union, so no second list can drift.
- The rank scan calls the kernel steps through ``chipfire.reduction``, so
  a spy there sees every call.
- A vertex's satellite count, weight plus loops, is worked out once, in
  the graph: no other module reads ``_loops``.
- The Clifford degree window [0, 2*genus - 2] is gated, with its two
  messages, in one function that ``clifford_check`` and
  ``clifford_representative`` share, and ``reps.py`` builds a
  ``CliffordCertificate`` in one place.
"""

import ast
import importlib
import inspect
import re

import pytest

import chipfire
from chipfire import Divisor, DomainError, class_of, clifford_check, clifford_representative
from helpers import SOURCES, golden_graph

# every package module but the CLI's lists its public names
MODULES = [path.stem for path in SOURCES if path.stem not in ("__init__", "cli")]


def test_the_package_exports_the_union_of_its_modules():
    listed = [name for stem in MODULES for name in importlib.import_module(f"chipfire.{stem}").__all__]
    assert len(MODULES) == 7
    assert len(set(listed)) == len(listed)
    assert chipfire.__all__ == sorted(listed)
    assert inspect.isfunction(chipfire.rank)


def test_each_exported_function_or_class_is_defined_where_it_is_listed():
    for stem in MODULES:
        module = importlib.import_module(f"chipfire.{stem}")
        for name in module.__all__:
            obj = getattr(chipfire, name)
            assert obj is getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, name


def test_only_the_graph_reads_loops():
    readers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_loops":
                readers.append(path.name)
    assert set(readers) == {"graph.py"}


def test_the_rank_module_binds_no_kernel_step():
    rank_module = importlib.import_module("chipfire.rank")
    assert not hasattr(rank_module, "_reduce_off")
    assert not hasattr(rank_module, "_borrow")


def test_the_degree_window_is_worded_once():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    for message in ("is below the lower bound 0", "exceeds the upper bound 2*genus-2"):
        assert sum(text.count(message) for text in sources) == 1, message


@pytest.mark.parametrize(
    "chips, message",
    [
        ({"v1": -1}, "degree -1 is below the lower bound 0"),
        ({"v2": 11}, "degree 11 exceeds the upper bound 2*genus-2 = 10"),
    ],
    ids=["below", "above"],
)
def test_the_degree_gate_names_its_degree(chips, message):
    g = golden_graph()
    d = Divisor(g, chips)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        clifford_check(g, d)
    with pytest.raises(DomainError, match=f"^class {re.escape(message)}$"):
        clifford_representative(g, class_of(g, d, "v1"))


def test_reps_builds_a_certificate_in_one_place():
    path = next(path for path in SOURCES if path.name == "reps.py")
    calls = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CliffordCertificate"
    ]
    assert len(calls) == 1
