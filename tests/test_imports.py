"""The package has no runtime dependencies: it imports only itself and the
standard library.  Every name it exports is used by the package itself."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import seshadri

MODULES = sorted(Path(seshadri.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {"__init__.py", "effectivity.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".", 1)[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                outside.append(f"line {node.lineno}: {name}")
    assert outside == []


def test_every_public_name_is_used_by_the_package():
    # a name exported only for tests is dead weight: it should join the
    # certified path or be deleted
    loaded = set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(seshadri.__all__) - loaded) == []
