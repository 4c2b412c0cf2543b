"""Every ``$ mstream ...`` example in README.md prints what the README
shows below it. A ``...`` line stands for any run of lines."""

import re
import shlex
from pathlib import Path

import pytest

from mstream.cli import main

ROOT = Path(__file__).resolve().parent.parent


def examples():
    """(command, lines shown below it) for each example, in README order."""
    found, lines = [], (ROOT / "README.md").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ mstream "):
            shown = []
            for out in lines[i + 1:]:
                if not out or out.startswith(("$ ", "```")):
                    break
                shown.append(out)
            found.append((line[len("$ mstream "):], shown))
    return found


def test_readme_has_examples():
    assert len(examples()) >= 4


@pytest.mark.parametrize("command, shown", examples(),
                         ids=[c for c, _ in examples()])
def test_readme_example(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(ROOT)
    main(shlex.split(command))
    pattern = "".join(r"(?:.*\n)*" if s == "..." else re.escape(s) + r"\n"
                      for s in shown)
    out = capsys.readouterr().out
    assert re.fullmatch(pattern, out), out
