"""Source hygiene of the package, checked with the standard library's ``ast``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motivic_stems

PACKAGE_DIR = Path(motivic_stems.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent


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


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Public top-level functions, classes and aliases (``name = OtherName``), and public methods -> line."""
    defs: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs[node.name] = node.lineno
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            defs.update((name, node.lineno) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defs[f"{node.name}.{item.name}"] = item.lineno
    return defs


@pytest.mark.parametrize("module", ["algebra", "spectral", "gf2"])
def test_every_public_name_of_the_engine_has_a_docstring(module):
    # a public alias such as build_differential has its target's docstring
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))
    nodes = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            nodes[node.name] = node
        if isinstance(node, ast.ClassDef):
            nodes.update((f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef))
    bare = [name for name in _public_definitions(tree) if name in nodes and not ast.get_docstring(nodes[name])]
    assert bare == []


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read (binding a name is not a use), attributes, imported names and string constants.

    Strings count because the bench tracer looks functions up by name with
    ``getattr``. An attribute of a name bound by ``import`` of a module from
    outside ``motivic_stems``, such as ``ast.parse``, is not a use.
    """
    outside = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "motivic_stems"
    }
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in outside):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_an_attribute_of_an_outside_module_is_not_a_use():
    outside = _referenced_names(ast.parse("import ast\nimport os.path as osp\nast.parse('x')\nosp.join\n"))
    assert "parse" not in outside and "join" not in outside
    inside = _referenced_names(ast.parse("import motivic_stems.algebra as algebra\nalgebra.Window.parse\n"))
    assert {"Window", "parse"} <= inside


def test_a_public_alias_is_a_definition_and_binding_it_is_not_a_use():
    tree = ast.parse("class A:\n    pass\n\n\nB = A\n_C = A\nD = A()\n")
    assert _public_definitions(tree) == {"A": 1, "B": 5}
    assert "B" not in _referenced_names(tree) and "A" in _referenced_names(tree)


def _references(top: str) -> set[str]:
    """Names referenced by the Python files under ``top``.

    The package's own __init__.py is skipped: a name it re-exports is not
    thereby used.
    """
    refs: set[str] = set()
    for path in sorted((REPO_DIR / top).rglob("*.py")):
        if path != REPO_DIR / "src" / "motivic_stems" / "__init__.py":
            refs |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return refs


def test_no_public_api_used_only_by_tests():
    refs = _references("src") | _references("bench")
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        defs = _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        unused += [f"{path.name}:{line} {name}" for name, line in defs.items() if name.rsplit(".", 1)[-1] not in refs]
    assert unused == []


def test_the_public_names_only_the_benchmark_reads_are_pinned():
    # a name that only bench/ reads can go only once the benchmark stops
    # reading it, so a new one fails here; MonomialAlgebraPresentation.parse
    # is also documented API (README), and stays
    read_by_bench_only = _references("bench") - _references("src")
    bench_only = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        defs = _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        bench_only += [f"{path.stem}.{name}" for name in defs if name.rsplit(".", 1)[-1] in read_by_bench_only]
    assert bench_only == [
        "algebra.Tridegree.as_tuple",
        "algebra.MonomialAlgebraPresentation.parse",
        "algebra.Window.contains",
        "spectral.build_differential",
        "spectral.PageState.valid_classes",
    ]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private top-level functions, classes and constants -> line."""
    defs: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return defs


def test_no_private_definition_left_unread():
    # a private name is for the package's own use: some module of it must load it
    loaded: set[str] = set()
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unread = []
    for path, tree in trees.items():
        unread += [f"{path.name}:{line} {name}" for name, line in _private_definitions(tree).items() if name not in loaded]
    assert unread == []


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"))
def test_module_imports_on_its_own(module):
    # a fresh interpreter per module, so that an import cycle shows whichever
    # module is imported first
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    run = subprocess.run([sys.executable, "-c", f"import motivic_stems.{module}"], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
