"""Every ``chipfire`` process pays for what importing the CLI loads.

``dataclasses`` pulls in ``inspect`` and costs several milliseconds per
process, so the result records are named tuples; ``fractions`` pulls in
``decimal``, so only ``balance_bounds``, the one function that builds a
``Fraction``, imports it, and the equivalence solve, the representative
searches and the oracle run in integers.  None of these modules may come
back onto the import path.  The check runs in a fresh interpreter without
``site``, so packages installed next to chipfire cannot load them first.
"""

import subprocess
import sys

import pytest

from helpers import child_env, golden_graph, graph_file

PROBE = "import chipfire.cli, sys; print(' '.join(sorted({names!r} & set(sys.modules))))"
# runs a command, whose JSON goes to stdout first, lists what it loaded and
# exits with the command's code
RUN_PROBE = (
    "import sys; from chipfire.cli import main; code = main({argv!r}); "
    "print(' '.join(sorted({names!r} & set(sys.modules)))); sys.exit(code)"
)


def _loaded_by_cli_import(names, probe=PROBE, **fields):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe.format(names=set(names), **fields)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == []


def test_cli_import_loads_neither_fractions_nor_decimal():
    assert _loaded_by_cli_import({"fractions", "decimal"}) == []


@pytest.mark.parametrize("command", ["report", "semibalanced", "equivalent", "uniform"])
def test_class_commands_load_neither_fractions_nor_decimal(tmp_path, command):
    argv = [command, graph_file(tmp_path, "golden", golden_graph()), "--divisor", "v2=3,v3=1", "--json"]
    if command == "equivalent":
        argv += ["--divisor", "v1=3,v2=1"]
    assert _loaded_by_cli_import({"fractions", "decimal"}, RUN_PROBE, argv=argv) == []
