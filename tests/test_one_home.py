"""Each public name, kernel step and satellite count is bound in one place.

- A public name is listed in the ``__all__`` of the module that defines
  it, and the package exports their union, so no second list can drift.
- The rank scan calls the kernel steps through ``chipfire.reduction``, so
  a spy there sees every call.
- A vertex's satellite count, weight plus loops, is worked out once, in
  the graph: no other module reads ``_loops``.
"""

import ast
import importlib
import inspect

import chipfire
from helpers import SOURCES

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
