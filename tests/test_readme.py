"""The README's library quickstart runs and shows the values it claims."""

import ast
import re
from pathlib import Path

import chipfire
from chipfire import NotCovered

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> dict[str, tuple[object, str]]:
    """Run the quickstart block; map each bare expression's source to its
    value and to the comment after it (comment-only lines below it joined on)."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", text, re.S).group(1)
    notes: dict[int, str] = {}
    last = 0
    for lineno, line in enumerate(block.splitlines(), start=1):
        code, _, note = line.partition("#")
        if code.strip():
            last = lineno
            notes[lineno] = note.strip()
        elif note.strip():
            notes[last] += " " + note.strip()
    namespace: dict = {}
    shown = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            shown[ast.unparse(node)] = (value, notes[node.lineno])
        else:
            exec(compile(ast.Module(body=[node], type_ignores=[]), "README", "exec"), namespace)
    return shown


def test_quickstart_values():
    shown = _quickstart()
    value, note = shown["reduce_to(g, d, 'v1').values"]
    assert value == (3, 2, 0) and note.startswith("(3, 2, 0)")
    for key in ("rank(g, d).rank", "rank_oracle(g, d)"):
        value, note = shown[key]
        assert value == 2 and note.startswith("2")
    value, note = shown["[r.values for r in effective_representatives(g, c)]"]
    assert len(value) == 9 and value == sorted(value) and note == "all 9, lex sorted"
    value, note = shown["clifford_representative(g, c)"]
    expected = NotCovered(special=True, chain_of_2ec=True, loop_hypothesis=False)
    assert value == expected and note == repr(expected)


def test_records_sentence_names_every_record():
    """The records sentence names exactly the named tuples that the package
    exports, so a deleted record cannot stay in the docs."""
    import chipfire

    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"The result records \((.*?)\) are named\s+tuples", text, re.S).group(1)
    named = set(re.findall(r"`(\w+)`", sentence))
    records = {
        name
        for name in chipfire.__all__
        if isinstance(getattr(chipfire, name), type)
        and issubclass(getattr(chipfire, name), tuple)
        and hasattr(getattr(chipfire, name), "_fields")
    }
    assert named == records
