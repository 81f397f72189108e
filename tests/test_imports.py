"""Every name a gatedflow module imports is used in that module.

No linter is a dependency, so this walks each module's ``ast``: an imported
name that no expression reads is dead code. ``__init__.py`` imports names
to re-export them, and a ``__future__`` import is a compiler directive, so
both are skipped.
"""

import ast
import pathlib

import pytest

import gatedflow

MODULES = sorted(path for path in pathlib.Path(gatedflow.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "import c.d as e\n"
        "from .x import y, z as w\n"
        "def f(v: w) -> None:\n"
        "    return sys.path, a.b\n"
        '"""os and y are named only in text"""\n'
    )
    assert unused_imports(source) == ["e", "os", "y"]
