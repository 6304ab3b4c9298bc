"""Every module-level import in src/ndnkit and tools/ is used by its module,
and every module-level definition of src/ndnkit is used somewhere.

The import check walks each module's syntax tree with the stdlib ast module.
A name counts as used when it appears as a Name node anywhere in the module,
including inside string annotations.  Re-exports are exempt: names listed
in the module's __all__, and imports in an __init__.py that carry a
``# noqa: F401`` marker.

The dead-name check takes each module-level function, class and constant
of src/ndnkit and counts the name as a whole word in every Python file of
src/, tests/, perfbench/ and tools/.  A name that occurs no more often than
it is defined is dead: nothing but its own definition mentions it.  This
keeps helpers from being left behind when one path replaces several.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ndnkit"


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
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        names = unused_imports(path.read_text(), is_package=path.name == "__init__.py")
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def defined_names(source: str) -> list[str]:
    """The functions, classes and constants a module defines at top level,
    dunder names excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            names += [e.id for e in elts if isinstance(e, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def dead_names(modules: dict[str, str], corpus: list[str]) -> dict[str, list[str]]:
    """Per module of modules (path to source), the defined names that occur
    as whole words in corpus no more often than modules define them."""
    words = Counter(w for text in corpus for w in re.findall(r"\w+", text))
    defined = {path: defined_names(source) for path, source in modules.items()}
    definitions = Counter(n for names in defined.values() for n in names)
    dead = {}
    for path, names in defined.items():
        unused = [n for n in names if words[n] <= definitions[n]]
        if unused:
            dead[path] = unused
    return dead


def test_dead_name_check_counts_mentions_beyond_definitions():
    modules = {
        "a.py": (
            "X = 1\n_Y: int = 2\nA, B = 3, 4\n__all__ = []\n"
            "def f():\n    return X + A\n"
            "class C:\n    pass\n"
            "def g():\n    pass\n"
        ),
        "b.py": "def g():\n    return C\n",
    }
    corpus = list(modules.values()) + ["# B is mentioned in a comment\n"]
    assert dead_names(modules, corpus) == {"a.py": ["_Y", "f", "g"], "b.py": ["g"]}


def test_no_dead_names_in_src():
    modules = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    corpus = [
        p.read_text()
        for top in ("src", "tests", "perfbench", "tools")
        for p in sorted((ROOT / top).rglob("*.py"))
    ]
    assert dead_names(modules, corpus) == {}
