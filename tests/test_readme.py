"""The README's Library example and Command line examples run as written."""

import os
import re
import shlex

import pytest

from joinsample.cli import main
from test_cli import _fixture_inputs

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _block(heading, lang):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"## {heading}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("line", _block("Command line", "sh").splitlines())
def test_command_line_example_exits_0(tmp_path, capsys, line):
    # on path3, an acyclic join, so every subcommand and strategy applies
    dbdir, qpath = _fixture_inputs(tmp_path, "path3")
    paths = {"db/": dbdir, "query.json": qpath}
    prog, *argv = shlex.split(line)
    assert prog == "joinsample"
    assert main([paths.get(arg, arg) for arg in argv]) == 0


def test_library_example_runs(capsys):
    ns = {}
    exec(compile(_block("Library", "python"), "README.md", "exec"), ns)
    assert ns["rows"][0] == (1, 1, 1)
    assert len(ns["rows"]) == 11
    assert ns["rep"].estimate > 0
