"""Imports: every module-level import in the package is used in its
module, and the package namespace loads each name on first access.

The unused-import check exempts names whose line is marked
``# noqa: F401``.  Standard library only, so it runs without a linter
installed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import molstruct

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "molstruct"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names imported at module level and never referenced again."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_its_imports(path: Path) -> None:
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import() -> None:
    source = (
        "import os\n"
        "from json import dumps, loads\n"
        "from re import compile  # noqa: F401\n"
        "x: os.PathLike = loads('1')\n"
    )
    assert unused_imports(source) == ["dumps (line 2)"]


def test_every_export_is_the_object_its_module_defines() -> None:
    for name in molstruct.__all__:
        module = import_module(f"molstruct.{molstruct._EXPORTS[name]}")
        value = getattr(molstruct, name)
        assert value is getattr(module, name), name
        if isinstance(value, type) or callable(value):
            assert value.__module__ == module.__name__, name


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        molstruct.no_such_name  # noqa: B018
    assert not hasattr(molstruct, "canonical")


def test_star_import_binds_every_export() -> None:
    namespace: dict = {}
    exec("from molstruct import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(molstruct.__all__)


def test_fresh_package_lists_every_export_and_loads_only_what_is_used() -> None:
    # In a fresh interpreter no export has been looked up yet, so dir()
    # must find them in the table, not among names already cached.
    code = (
        "import sys, molstruct; "
        "assert set(molstruct.__all__) | {'__version__'} <= set(dir(molstruct)); "
        "molstruct.ValenceError; "
        "print(sorted(m for m in sys.modules if m.startswith('molstruct')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['molstruct', 'molstruct.errors']\n"
