"""The package has no runtime dependencies: it imports only itself and the
standard library, never typing, and json only inside the functions that
read or write JSON.  Every public name it defines is used by the package
itself, no float appears in it, and every name the benchmark tracer wraps
is there to wrap."""
from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import seshadri
import seshadri.cli

MODULES = sorted(Path(seshadri.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {"__init__.py", "effectivity.py", "cli.py"} <= {p.name for p in MODULES}


def _imported_modules(node):
    """Absolute module names that an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        for name in _imported_modules(node):
            top = name.split(".", 1)[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                outside.append(f"line {node.lineno}: {name}")
    assert outside == []


def _imports_outside_functions(node):
    """(line, module) of every import not nested in a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for name in _imported_modules(child):
            yield child.lineno, name
        yield from _imports_outside_functions(child)


def test_no_typing_and_json_only_inside_functions():
    # every command pays the import of seshadri.cli, and typing alone
    # costs a bare interpreter milliseconds; json is loaded only by the
    # commands that read or write JSON
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            found += [f"{path.name}:{node.lineno}: {name}" for name in _imported_modules(node)
                      if name.split(".", 1)[0] == "typing"]
        found += [f"{path.name}:{line}: {name} outside a function"
                  for line, name in _imports_outside_functions(tree) if name.split(".", 1)[0] == "json"]
    assert found == []


# Public names that only callers outside the package use: the README writes
# --db files with these.
OUTSIDE_API = {"ExclusionDb.with_sources", "ExclusionDb.save"}


def _public_definitions(tree):
    """Qualified names of the public module-level functions, classes and
    constants, and of the public methods and properties of every class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def test_every_public_name_is_used_by_the_package():
    # a name that only tests use is dead weight: it should join the
    # certified path or be deleted.  Names are matched, not resolved, so a
    # method counts as used when any attribute of its name is loaded.
    loaded = set()
    defined = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined.update(_public_definitions(tree))
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = {name for name in defined - OUTSIDE_API if name.rsplit(".", 1)[-1] not in loaded}
    assert sorted(unused) == []


def test_no_float_in_the_package():
    # every value is exact, display included: no float literal, no float
    # name (call or annotation) and no math.sqrt
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: float")
            elif isinstance(node, ast.Attribute) and node.attr == "sqrt":
                found.append(f"{path.name}:{node.lineno}: .sqrt")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "sqrt" for a in node.names):
                found.append(f"{path.name}:{node.lineno}: import of sqrt")
    assert found == []


def test_benchmark_tracer_patch_points_resolve():
    # perfbench/tracer.py wraps each patch point through owner.__dict__, so a
    # name moved behind a lazy import fails here rather than in a benchmark
    # run; its setup snippet calls seshadri.cli.default_db
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in tracer.PATCH_POINTS
               if attr not in owner.__dict__]
    assert missing == []
    assert callable(seshadri.cli.__dict__["default_db"])
