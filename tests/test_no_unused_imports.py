"""No module of the package imports a name it never uses.

The guard walks each module's syntax tree, collects the names its
imports bind and the names its code reads, and fails on any import that
is never read.  ``__init__.py`` is left out: it imports names to
re-export them.  ``from __future__`` imports change the compiler, not
the namespace, so they are left out too.
"""

import ast
from pathlib import Path

import sp4cert

PACKAGE = Path(sp4cert.__file__).resolve().parent
REEXPORTS = "__init__.py"


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds and no code reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_package_modules_use_every_import():
    stray = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != REEXPORTS
        for line, name in _unused_imports(path.read_text())
    ]
    assert not stray, "unused imports:\n" + "\n".join(stray)


def test_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "# gcd in a comment is not a use\n"
        "def f(x: least) -> int:\n"
        "    return json.dumps(x)\n"
    )
    assert _unused_imports(source) == [(3, "os"), (4, "gcd")]
