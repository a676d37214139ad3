"""README.md's examples do what their comments say.

The ``cofinj --eval`` lines of the CLI section print their comments, and the
Library quick start block runs, its asserts hold, and where a line is
``expr  # value`` or ``name = expr  # value``, the repr of the value is the
comment.
"""

import ast
import io
import os
import shlex
from contextlib import redirect_stdout

import pytest

from cofinj import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _block(section, fence):
    with open(README) as fh:
        text = fh.read()
    return text.split(f"\n## {section}\n", 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _examples():
    block = _block("CLI", "sh")
    out = []
    for line in block.splitlines():
        if line.startswith("cofinj --eval "):
            command, _, comment = line.partition("#")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


EXAMPLES = _examples()


def test_readme_has_eval_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv,want", EXAMPLES, ids=[argv[1] for argv, _ in EXAMPLES])
def test_readme_eval_example(argv, want):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0 and out.getvalue() == want + "\n"


def test_readme_quick_start():
    namespace = {}
    checked = 0
    for line in _block("Library quick start", "python").splitlines():
        code, hash_mark, comment = line.partition("  #")
        statement = ast.parse(code).body[0] if hash_mark else None
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            if not isinstance(statement, ast.Assign):
                continue  # no comment, or an assert's, which is prose
            value = namespace[statement.targets[0].id]
        assert repr(value) == comment.strip(), line
        checked += 1
    assert checked >= 4
