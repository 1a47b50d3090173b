"""Every name a library module imports is used, and every function has a user.

Deleting a function must not leave its import behind.  The package
``__init__`` is exempt: its imports are the public re-exports.  Deleting a
caller must not leave an orphan: each module-level function is used
elsewhere in the package, exported in ``assoform.__all__`` or wrapped by
the benchmark tracer.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest
from test_tracer_names import _traced

import assoform

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "assoform"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import math\nfrom fractions import Fraction\nx = Fraction(1)\n")
    assert _unused_imports(tree) == ["line 1: math"]


def _names(node: ast.AST) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _orphans(trees: dict[str, ast.Module], kept: set[str]) -> list[str]:
    """Module-level functions named nowhere in the package outside their own body."""
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name not in kept
            and uses[node.name] == _names(node).count(node.name)]


def test_every_function_has_a_user():
    kept = set(assoform.__all__) | {name.split(".")[0] for _, name in _traced()}
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    assert _orphans(trees, kept) == []


def test_an_orphan_function_is_caught():
    trees = {"a": ast.parse("def f():\n    return f()\n\ndef g():\n    pass\n"),
             "b": ast.parse("from a import g\nx = g()\n\ndef h():\n    pass\n")}
    assert _orphans(trees, {"h"}) == ["a.f"]
