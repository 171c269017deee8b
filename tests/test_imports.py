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
