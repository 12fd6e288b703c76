"""Dead-code guard, standing in for a linter.

Fails on an import that its module never uses, in src/occgeom and in
tests/, and on a private module-level function, class or constant, or a
private method, that no module of the package references.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "occgeom"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
TEST_TREES = {
    f"tests/{path.name}": ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "tests").glob("*.py"))
}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name a module loads, plus every attribute it reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _exported(tree: ast.AST) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("name", sorted(TREES) + sorted(TEST_TREES))
def test_no_unused_imports(name):
    tree = TREES.get(name) or TEST_TREES[name]
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{name}: unused imports {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_unreferenced_private_functions():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    dead = [
        f"{name}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and _private(node.name) and node.name not in used
    ]
    assert not dead, f"unreferenced private functions: {dead}"


def _private_classes_constants_methods(tree: ast.Module) -> list[str]:
    """The private module-level classes and assigned constants of a
    module, and the private methods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names += [f.name for f in cls.body if isinstance(f, ast.FunctionDef)]
    return [n for n in names if _private(n)]


def test_no_unreferenced_private_classes_constants_or_methods():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    dead = [
        f"{name}: {definition}"
        for name, tree in TREES.items()
        for definition in _private_classes_constants_methods(tree)
        if definition not in used
    ]
    assert not dead, f"unreferenced private classes, constants or methods: {dead}"
