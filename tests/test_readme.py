"""The README's Library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    ns = {}
    exec(compile(_library_block(), "README.md", "exec"), ns)
    assert ns["rows"][0] == (1, 1, 1)
    assert len(ns["rows"]) == 11
    assert ns["rep"].estimate > 0
