import ast
import io
import shlex
import tokenize
from pathlib import Path

import pytest

from finform.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_source():
    """The code block under the README's "Library tour" heading."""
    text = README.read_text()
    after = text.split("## Library tour", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def _stated_value(comment):
    """The Python literal a comment opens with (up to the first ':', ',' or
    space outside brackets and quotes), as (True, value), or (False, None)
    when the comment states no literal value."""
    depth, quote, end = 0, None, len(comment)
    for i, ch in enumerate(comment):
        if quote:
            quote = None if ch == quote else quote
        elif ch in "'\"":
            quote = ch
        elif ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and ch in ":, ":
            end = i
            break
    try:
        return True, ast.literal_eval(comment[:end])
    except (ValueError, SyntaxError):
        return False, None


def test_library_tour_runs_and_its_comments_state_its_values():
    source = _tour_source()
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            stated, want = _stated_value(comments.get(node.end_lineno, ""))
            if stated:
                assert value == want, ast.unparse(node)
                checked[ast.unparse(node)] = want
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert {
        "residual(S4, SUPERSOLUBLE).order": 4,
        "hypercentre(S4, SUPERSOLUBLE).order": 1,
        "len(chain_subnormals(S4, NILPOTENT))": 7,
        "[E.order for E in overgroups(V4)]": [4, 8, 8, 8, 12, 24],
        "len(all_subgroups(S4))": 30,
        "[t.order // b.order for t, b in zip(terms[1:], terms)]": [4, 3, 2],
    }.items() <= checked.items()
    assert namespace["report"].passed


def _cli_examples():
    """The ``finform …`` lines of the sh blocks under the README's "CLI"
    heading, continuation lines joined, as argument lists without the
    program name."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```sh\n")[1:]]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("finform ")]


def test_cli_examples_are_found():
    examples = [" ".join(argv) for argv in _cli_examples()]
    assert "group show sym:4" in examples
    assert ("verify theorem-b --formation nilpotent --max-order 24 --input "
            "groups/frobenius20.grp --input groups/frobenius21.grp") in examples


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example_runs(argv, monkeypatch, capsys):
    monkeypatch.chdir(README.parent)  # the examples name files from the repo root
    assert main(argv) == 0, capsys.readouterr().err
