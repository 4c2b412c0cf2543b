"""Source hygiene: every name a module imports is used by that module, and
every private module-level name is read somewhere in the package.

Runs on the package sources with the stdlib ``ast`` module only, since no
linter is a dependency. An imported name counts as used when the module
reads it anywhere (including annotations), lists it in ``__all__``, or
imports it on a line marked ``# noqa: F401``; such a mark is kept only for
a name that ``bench/tracing.py`` wraps by name. A ``_private`` function,
class or constant counts as read when some module of the package names it
as a variable, an attribute or an import.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import mstream
from mstream import sfg_ir

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mstream"


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


def _private_defs(tree):
    """Module-level ``_private`` functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _reads(tree):
    """Every name the module reads, as a variable, attribute or import."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)


def dead_private_names(paths):
    """``module.name`` for each private module-level name that no module
    among ``paths`` reads."""
    trees = {p.stem: ast.parse(p.read_text()) for p in paths}
    read = {name for tree in trees.values() for name in _reads(tree)}
    return sorted(f"{mod}.{name}" for mod, tree in trees.items()
                  for name in _private_defs(tree) if name not in read)


def test_no_dead_private_names():
    assert dead_private_names(sorted(SRC.glob("*.py"))) == []


def test_guard_sees_dead_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_dead: int = 0\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "class _Unused:\n"
        "    pass\n"
        "def _shared():\n"
        "    pass\n"
        "__all__ = []\n")
    (tmp_path / "b.py").write_text(
        "from .a import _shared\n"
        "def f(m):\n"
        "    return m._helper()\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert dead_private_names(paths) == ["a._Unused", "a._dead"]


def _tracing(monkeypatch):
    """``bench/tracing.py``, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_targets_exist(monkeypatch):
    """``bench/tracing.py`` wraps each ``(owner, attr)`` of ``TARGETS`` by
    name, so renaming one of them breaks the traced benchmark run."""
    tracing = _tracing(monkeypatch)
    assert [(owner.__name__, attr) for owner, attr, _ in tracing.TARGETS
            if attr not in owner.__dict__] == []


def untraced_kept_imports(paths, traced):
    """``module.name`` for each import marked ``# noqa: F401`` in
    ``paths`` whose ``(mstream.module, name)`` is not in ``traced``."""
    out = []
    for path in paths:
        text = path.read_text()
        lines = text.splitlines()
        out += [f"{path.stem}.{name}"
                for name, line in _imported(ast.parse(text))
                if "# noqa: F401" in lines[line - 1]
                and (f"mstream.{path.stem}", name) not in traced]
    return sorted(out)


def test_kept_imports_are_traced(monkeypatch):
    """An import kept unused only so that ``bench/tracing.py`` can wrap it
    by name goes once ``TARGETS`` no longer names it."""
    traced = {(owner.__name__, attr)
              for owner, attr, _ in _tracing(monkeypatch).TARGETS}
    assert untraced_kept_imports(sorted(SRC.glob("*.py")), traced) == []


def test_guard_sees_untraced_kept_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import os  # noqa: F401 - kept for callers\n"
        "from .x import (\n"
        "    a,  # noqa: F401\n"
        "    b,\n"
        ")\n"
        "from .y import c  # noqa: F401\n")
    assert untraced_kept_imports([mod], {("mstream.m", "a")}) == [
        "m.c", "m.os"]


def test_ir_doc_lists_the_term_keywords():
    """The first column of docs/ir.md's term table names exactly the
    keywords the term reader knows; ``name`` stands for a generator."""
    text = (ROOT / "docs" / "ir.md").read_text()
    section = text.split("\n## Terms\n")[1].split("\n## ")[0]
    words = {m.group(1) for m in re.finditer(r"^\| `(\w+)", section, re.M)}
    assert words - {"name"} == (set(sfg_ir._KEYWORDS.values())
                                | {"const", "sym"})


def test_every_exported_name_resolves():
    assert [n for n in mstream.__all__ if not hasattr(mstream, n)] == []
