"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridlink"

# documented re-exports, by module path under the package
_REEXPORTS = {"cli.py": {"report_body"}}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_modules_use_every_name_they_import():
    unused = {}
    for path in sorted(_PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(_PACKAGE).as_posix()
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        names -= _REEXPORTS.get(rel, set())
        if names:
            unused[rel] = sorted(names)
    assert unused == {}


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names: defs, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _loaded_names(tree: ast.Module) -> set[str]:
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded |= {a.name for a in node.names}
    return loaded


def test_every_private_helper_is_used_somewhere_in_the_package():
    trees = {
        path.relative_to(_PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_PACKAGE.rglob("*.py"))
    }
    loaded = set().union(*map(_loaded_names, trees.values()))
    dead = {}
    for rel, tree in trees.items():
        names = _private_definitions(tree) - loaded
        if names:
            dead[rel] = sorted(names)
    assert dead == {}
