"""The README's examples run as shown: each ``$ loopspace`` block through the
CLI, and the ``## Library`` block as a doctest."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

import pytest

from loopspace import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

#: (language, body) of each fenced code block.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)

#: (argv, output shown) of each block that starts with a ``$ loopspace`` command.
CLI_EXAMPLES = [
    (shlex.split(command)[2:], "".join(line + "\n" for line in shown))
    for _, body in BLOCKS
    if body.startswith("$ loopspace ")
    for command, *shown in [body.splitlines()]
]


def test_readme_shows_the_four_commands():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == ["compute", "verify", "collapse", "identity"]


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES, ids=[argv[0] for argv, _ in CLI_EXAMPLES])
def test_readme_command_prints_what_it_shows(argv, shown):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (0, shown, "")


def test_readme_library_block_prints_what_it_shows():
    library = README.split("\n## Library\n", 1)[1]
    body = next(body for lang, body in BLOCKS if lang == "python" and body in library)
    test = doctest.DocTestParser().get_doctest(body, {}, "README ## Library", "README.md", 0)
    assert len(test.examples) >= 3
    report = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=report.write)
    assert result.failed == 0, report.getvalue()
