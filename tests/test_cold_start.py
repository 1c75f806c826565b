"""Every ``chipfire`` process pays for what importing the CLI loads.

``dataclasses`` pulls in ``inspect`` and costs several milliseconds per
process, so the result records are named tuples and neither module may
come back onto the import path.  The check runs in a fresh interpreter
without ``site``, so packages installed next to chipfire cannot load
either module first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = "import chipfire.cli, sys; print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
