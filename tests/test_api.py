"""The package's public names, and the modules' imports."""

import ast
import pathlib

import pytest

import prodiso

_MODULES = sorted(p for p in pathlib.Path(prodiso.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def test_all_names_resolve():
    assert all(hasattr(prodiso, name) for name in prodiso.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never references; ``__future__`` imports
    and imports on a line marked ``# noqa`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_modules_use_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_guard_sees_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from dataclasses import dataclass, replace\n"
              "import json  # noqa: F401\n"
              "x = math.pi\n"
              "@dataclass\nclass A:\n    pass\n")
    assert _unused_imports(source) == ["replace (line 3)"]
