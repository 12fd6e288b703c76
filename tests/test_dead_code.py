"""Dead-code guard, standing in for a linter.

Fails on an import that its module never uses, in src/occgeom and in
tests/; on a private module-level function, class or constant, or a
private method, that no module of the package references; on a public
module-level function or class, or a public method, that no module of the
package or of bench/ references and no code span of README names: tests
reach what the program does not call through its private kernels; and on
a parameter default of the package that no call in the package or in
bench/ overrides, since a value no caller sets is a constant.
"""

import ast
import re
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


def _definitions(tree: ast.Module):
    """(kind, name) of each module-level function, class and assigned
    constant of a module, and of each method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield ("function" if isinstance(node, ast.FunctionDef) else "class"), node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (("constant", t.id) for t in targets if isinstance(t, ast.Name))
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            yield from (("method", f.name) for f in cls.body if isinstance(f, ast.FunctionDef))


def _unreferenced(kinds: set[str], private: bool, used: set[str]) -> list[str]:
    """The package's private (or public, dunders aside) `kinds` not in `used`."""
    return [
        f"{name}: {definition}"
        for name, tree in TREES.items()
        for kind, definition in _definitions(tree)
        if kind in kinds and definition not in used and not definition.startswith("__")
        and definition.startswith("_") == private
    ]


PACKAGE_USED = set().union(*(_used_names(tree) for tree in TREES.values()))


def test_no_unreferenced_private_functions():
    dead = _unreferenced({"function"}, True, PACKAGE_USED)
    assert not dead, f"unreferenced private functions: {dead}"


def test_no_unreferenced_private_classes_constants_or_methods():
    dead = _unreferenced({"class", "constant", "method"}, True, PACKAGE_USED)
    assert not dead, f"unreferenced private classes, constants or methods: {dead}"


BENCH_TREES = [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]


def _readme_code_words() -> list[str]:
    """The words inside README's code spans and fenced code blocks."""
    text = (ROOT / "README.md").read_text()
    fenced = re.findall(r"```.*?```", text, re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return re.findall(r"\w+", " ".join(fenced + inline))


def test_no_unreferenced_public_api():
    used = PACKAGE_USED.union(*(_used_names(tree) for tree in BENCH_TREES), _readme_code_words())
    dead = _unreferenced({"function", "class", "method"}, False, used)
    assert not dead, f"public API that no program module, bench/ or README code uses: {dead}"


# defaults that tests override to stand in for what the program reads itself
TEST_SEAMS = {"_malloc.py: fix_thresholds(environ)"}


def _defaulted_parameters(tree: ast.Module):
    """(called name, parameter, positional index at the call or None) of
    each parameter with a default of a module-level function, or of a
    method (called by its name, or by its class's for __init__)."""
    scopes = [(None, tree.body)] + [
        (node, node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    for cls, body in scopes:
        for f in body:
            if not isinstance(f, ast.FunctionDef):
                continue
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list
            )
            called = cls.name if f.name == "__init__" else f.name
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            for k in range(first, len(positional)):
                yield called, positional[k].arg, k - bound
            for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if default is not None:
                    yield called, arg.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether a call may set the parameter: by keyword, by **kwargs, at
    its position or through *args."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return index is not None and (len(call.args) > index or starred)


def test_no_default_that_no_call_overrides():
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*TREES.values(), *BENCH_TREES]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    constant = [
        f"{module}: {called}({param})"
        for module, tree in TREES.items()
        for called, param, index in _defaulted_parameters(tree)
        if not any(_passes(call, param, index) for call in calls.get(called, []))
    ]
    dead = sorted(set(constant) - TEST_SEAMS)
    assert not dead, f"defaults that no call in the package or bench/ overrides: {dead}"
