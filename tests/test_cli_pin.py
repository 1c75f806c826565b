"""Pinned ``--json`` output of ``report`` and ``rr-check``.

``data/cli_pin.json`` holds the exact output of each command line apart from
the trailing ``timing`` field, over the golden graph and a weighted 4-cycle,
with divisors of negative degree, of degree in [0, 2g - 2] and beyond, and
with ``--no-shortcuts``.  Any change to the rank code must leave these bytes
alone.
"""

import json
from pathlib import Path

import pytest

from chipfire.cli import main

PIN = json.loads((Path(__file__).parent / "data" / "cli_pin.json").read_text(encoding="utf-8"))


@pytest.fixture
def graph_dir(tmp_path, monkeypatch):
    for name, text in PIN["graphs"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # graph_file in the output is the relative path


@pytest.mark.parametrize("case", PIN["cases"], ids=lambda c: " ".join(c["argv"][:-1]))
def test_json_output_is_pinned(case, graph_dir, capsys):
    assert main(case["argv"]) == case["exit_code"]
    out = capsys.readouterr().out
    body, sep, timing = out.rpartition(', "timing": ')
    assert sep and timing.endswith("}\n") and float(timing[:-2]) >= 0
    assert body + "}" == case["output"]
