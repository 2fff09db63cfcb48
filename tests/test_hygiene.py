"""Source hygiene of the package, checked with the standard library's ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

import motivic_stems

PACKAGE_DIR = Path(motivic_stems.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> line of the import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []
