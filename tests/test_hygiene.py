"""Source hygiene: every name a module imports is used by that module.

Runs on the package sources with the stdlib ``ast`` module only, since no
linter is a dependency. An imported name counts as used when the module
reads it anywhere (including annotations), lists it in ``__all__``, or
imports it on a line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mstream"


def _imported(tree):
    """(bound name, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), a.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield (a.asname or a.name), a.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = used | _exported(tree)
    return sorted(name for name, line in _imported(tree)
                  if name not in keep and "# noqa: F401" not in lines[line - 1])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_guard_sees_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from typing import Optional, Sequence\n"
        "import os  # noqa: F401 - kept for callers\n"
        "from .x import (\n"
        "    a,\n"
        "    b,  # noqa: F401\n"
        ")\n"
        "__all__ = ['a']\n"
        "def f(s: Sequence) -> None:\n"
        "    pass\n")
    assert unused_imports(mod) == ["Optional"]
