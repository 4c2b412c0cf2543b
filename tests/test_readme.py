"""Every ``$ mstream ...`` example in README.md and docs/*.md prints what
the document shows below it. A ``...`` line stands for any run of lines."""

import re
import shlex
from pathlib import Path

import pytest

from mstream.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


def examples():
    """(command, lines shown below it) for each example, in document order."""
    found = []
    for doc in DOCS:
        lines = doc.read_text().splitlines()
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
    assert len(examples()) >= 5  # four in README.md, one in docs/ir.md


@pytest.mark.parametrize("command, shown", examples(),
                         ids=[c for c, _ in examples()])
def test_readme_example(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(ROOT)
    main(shlex.split(command))
    pattern = "".join(r"(?:.*\n)*" if s == "..." else re.escape(s) + r"\n"
                      for s in shown)
    out = capsys.readouterr().out
    assert re.fullmatch(pattern, out), out
