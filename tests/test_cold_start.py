"""Every ``chipfire`` process pays for what importing the CLI loads.

``dataclasses`` pulls in ``inspect`` and costs several milliseconds per
process, so the result records are named tuples; ``fractions`` pulls in
``decimal``, so only the two functions that build a ``Fraction`` import
it.  None of these modules may come back onto the import path.  The check
runs in a fresh interpreter without ``site``, so packages installed next
to chipfire cannot load them first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = "import chipfire.cli, sys; print(' '.join(sorted({names!r} & set(sys.modules))))"


def _loaded_by_cli_import(names):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(names=set(names))],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == []


def test_cli_import_loads_neither_fractions_nor_decimal():
    assert _loaded_by_cli_import({"fractions", "decimal"}) == []
