"""Every name a package module imports is used in that module.

No linter ships with the toolchain, so this walks the syntax trees with
``ast``.  ``__init__.py`` is exempt: its imports are re-exports."""

import ast
from pathlib import Path

import involution_forge

PACKAGE = Path(involution_forge.__file__).parent


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_use_every_import():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = _unused_imports(path.read_text(encoding="utf-8"))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_unused_import_is_reported():
    source = "from fractions import Fraction\nimport json\njson.dumps(1)\n"
    assert _unused_imports(source) == [(1, "Fraction")]
