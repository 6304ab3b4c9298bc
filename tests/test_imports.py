"""Every module-level import in src/ndnkit is used by its module.

The check walks each module's syntax tree with the stdlib ast module.  A
name counts as used when it appears as a Name node anywhere in the module,
including inside string annotations.  Re-exports are exempt: names listed
in the module's __all__, and imports in an __init__.py that carry a
``# noqa: F401`` marker.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ndnkit"


def _names_in(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names_in(ast.parse(annotation.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str, is_package: bool = False) -> list[str]:
    """The module-level imported names that source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _names_in(tree) | _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1 : node.end_lineno]
        if is_package and any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_checker_flags_unused_and_skips_reexports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Sequence, Callable\n"
        "from .a import shown, marked  # noqa: F401\n"
        "from .b import quoted\n"
        "__all__ = ['shown']\n"
        "def f(x: 'quoted') -> Sequence:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["sys", "Callable", "marked"]
    assert unused_imports(source, is_package=True) == ["sys", "Callable"]


def test_no_unused_imports_in_src():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        names = unused_imports(path.read_text(), is_package=path.name == "__init__.py")
        if names:
            found[str(path.relative_to(SRC))] = names
    assert found == {}
