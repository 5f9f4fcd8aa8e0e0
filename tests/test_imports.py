"""No module of the package, its tests or its demos imports a name it never
uses, and no module of the package exports a name it does not define.

The project ships no linter, so this is the unused-import check (pyflakes'
F401) in the standard library: every name that an ``import`` binds in a
module of ``src/arityopt/``, ``tests/`` or ``demos/`` must be read somewhere
in that module or listed in its ``__all__``.  An import whose own line or
whose statement's first line carries ``# noqa: F401`` is exempt: such a name
is read by module attribute or through ``globals()``, which the syntax tree
does not show.

Every name in a module's ``__all__`` must exist on that module, or
``from arityopt.<module> import *`` fails on the stale entry.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arityopt"
CHECKED = [p for d in (SRC, ROOT / "tests", ROOT / "demos") for p in sorted(d.glob("*.py"))]
NOQA = "# noqa: F401"


def path_id(path: Path) -> str:
    """A package module by its file name, any other file as ``dir/name``."""
    return path.name if path.parent == SRC else f"{path.parent.name}/{path.name}"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if NOQA in lines[alias.lineno - 1] or NOQA in lines[node.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", CHECKED, ids=path_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = (
        "from typing import Callable, NamedTuple\n"
        "from .x import a, b  # noqa: F401\n"
        "import numpy as np\n"
        "f: Callable = np.sum\n"
    )
    assert unused_imports(source) == [(1, "NamedTuple")]


def missing_exports(module) -> list[str]:
    """Names in the module's ``__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_exists(path):
    name = "arityopt" if path.stem == "__init__" else f"arityopt.{path.stem}"
    module = importlib.import_module(name)
    assert missing_exports(module) == []


def test_check_finds_a_stale_export():
    module = type(importlib)("stale")
    module.__all__ = ["present", "gone"]
    module.present = None
    assert missing_exports(module) == ["gone"]
