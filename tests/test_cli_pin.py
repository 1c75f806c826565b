"""Pinned output of the CLI.

``data/cli_pin.json`` holds the exact ``--json`` output of ``report`` and
``rr-check`` apart from the trailing ``timing`` field, over the golden
graph and a weighted 4-cycle, with divisors of negative degree, of degree
in [0, 2g - 2] and beyond, and with ``--no-shortcuts``.  Any change to the
rank code must leave these bytes alone.

``data/cli_pin_commands.json`` holds stdout (a JSON object's ``timing``
field cut), stderr and exit code of all ten commands, as text and with
``--json``, over the golden graph, a weighted 4-cycle with loops and a
chain with a loop at every vertex, including ``--base``, ``--set``,
``--no-shortcuts`` and ``--budget`` and the error exits of a missing
``--divisor``, a tripped budget, an out-of-range ``clifford-rep`` and
unknown vertices.  Any change to the CLI must leave these bytes alone.
"""

import json
from pathlib import Path

import pytest

from chipfire.cli import main

DATA = Path(__file__).parent / "data"
PIN = json.loads((DATA / "cli_pin.json").read_text(encoding="utf-8"))
COMMANDS_PIN = json.loads((DATA / "cli_pin_commands.json").read_text(encoding="utf-8"))


def _write_graphs(graphs, tmp_path, monkeypatch):
    for name, text in graphs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # graph_file in the output is the relative path


def _cut_timing(out: str) -> str:
    body, sep, timing = out.rpartition(', "timing": ')
    assert sep and timing.endswith("}\n") and float(timing[:-2]) >= 0
    return body + "}"


@pytest.fixture
def graph_dir(tmp_path, monkeypatch):
    _write_graphs(PIN["graphs"], tmp_path, monkeypatch)


@pytest.mark.parametrize("case", PIN["cases"], ids=lambda c: " ".join(c["argv"][:-1]))
def test_json_output_is_pinned(case, graph_dir, capsys):
    assert main(case["argv"]) == case["exit_code"]
    assert _cut_timing(capsys.readouterr().out) == case["output"]


@pytest.mark.parametrize("case", COMMANDS_PIN["cases"], ids=lambda c: " ".join(c["argv"]))
def test_command_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    _write_graphs(COMMANDS_PIN["graphs"], tmp_path, monkeypatch)
    assert main(case["argv"]) == case["exit_code"]
    out, err = capsys.readouterr()
    if "--json" in case["argv"] and out:
        out = _cut_timing(out) + "\n"
    assert (out, err) == (case["stdout"], case["stderr"])
