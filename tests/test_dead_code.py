"""Dead-code guard, standing in for a linter.

Fails on an import that its module never uses, in src/occgeom and in
tests/, and on a module-level private function that no module of the
package references.
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
        if isinstance(node, ast.Name):
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


def test_no_unreferenced_private_functions():
    used = set().union(*(_used_names(tree) for tree in TREES.values()))
    dead = [
        f"{name}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not dead, f"unreferenced private functions: {dead}"
