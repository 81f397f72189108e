"""Every name a gatedflow module imports is used in that module, and no
gatedflow module reads another's private names.

No linter is a dependency, so this walks each module's ``ast``: an imported
name that no expression reads is dead code. ``__init__.py`` imports names
to re-export them, and a ``__future__`` import is a compiler directive, so
both are skipped. A ``_name`` (not a ``__dunder__``) taken from a sibling
module, by ``from .m import _name`` or as ``m._name``, couples the two
modules through what ``m`` keeps to itself.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """The private names ``source`` takes from gatedflow modules, sorted."""
    tree = ast.parse(source)
    modules = set()  # names bound to a gatedflow module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:  # from . import m
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.add(alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("gatedflow."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.add(f"{node.value.id}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_private_reads_are_found():
    source = (
        "from . import dsl, store as st\n"
        "from .errors import FlowError, _hidden\n"
        "from .meta import __version__\n"
        "import gatedflow.viz as v\n"
        "import threading\n"
        "def f(self):\n"
        "    return (dsl._parse_text, st._line, v._scale, dsl.parse,\n"
        "            st.__name__, threading._shutdown, self._bound)\n"
    )
    assert private_reads(source) == ["_hidden", "dsl._parse_text", "st._line",
                                      "v._scale"]


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
