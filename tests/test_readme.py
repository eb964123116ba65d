"""The README's "Library quick tour" runs as written: every `# ...` comment
in it is the repr of the value of the line it annotates, either on that
line or alone on the line after it."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library quick tour\n+```python\n(.*?)^```",
                      text, re.S | re.M)
    assert match, "README has no Library quick tour block"
    return match.group(1)


def _annotations(source: str) -> dict:
    """Line of the annotated statement's end -> comment text.  A comment
    alone on its line annotates the line above it."""
    notes = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.COMMENT:
            continue
        row, col = tok.start
        alone = not tok.line[:col].strip()
        notes[row - 1 if alone else row] = tok.string[1:].strip()
    return notes


def test_readme_quick_tour_shows_what_it_computes():
    source = _quick_tour()
    notes = _annotations(source)
    env: dict = {}
    checked = set()
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            assert stmt.end_lineno in notes, f"no result shown for {code}"
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         env)
            assert repr(value) == notes[stmt.end_lineno], code
            checked.add(stmt.end_lineno)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), env)
    assert checked == set(notes), "a comment annotates no expression"
    assert len(checked) >= 2
