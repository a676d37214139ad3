"""The ``cofinj --eval`` examples in README.md's CLI section print what their comments say."""

import io
import os
import shlex
from contextlib import redirect_stdout

import pytest

from cofinj import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _examples():
    with open(README) as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
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
