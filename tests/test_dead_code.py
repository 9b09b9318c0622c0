"""Every top-level public function and class in the package is either
exported or used somewhere in the package outside its own definition.

The check reads names from the syntax tree, not from the text: a helper
that mentions its own name in an error string is still unused."""

import ast
from pathlib import Path

import avloc

SRC = Path(avloc.__file__).resolve().parent


def _referenced(node) -> set:
    """Identifiers a statement uses: names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unused_definitions() -> list:
    """(module, name) of public top-level defs nothing else refers to."""
    statements = []  # (module, statement, identifiers it uses)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.stem, stmt, _referenced(stmt)) for stmt in tree.body]
    unused = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") or name in avloc.__all__:
            continue
        if not any(name in used for _, other, used in statements if other is not stmt):
            unused.append((module, name))
    return unused


def test_no_unused_public_definitions():
    assert unused_definitions() == []
