"""No module of the package imports a private name of another.

A ``_``-prefixed name is private to the module that defines it; a module
that needs it from elsewhere should get a public function instead.  The
guard walks each module's syntax tree and fails on any import of a
``_``-prefixed name out of the package: a relative ``from`` import, a
``from sp4cert...`` import, or ``import sp4cert._module``.  ``from
__future__`` imports are not package imports.
"""

import ast
from pathlib import Path

import sp4cert

PACKAGE = Path(sp4cert.__file__).resolve().parent


def _private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each ``_``-prefixed name imported from the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "sp4cert"
        ):
            out.extend((node.lineno, alias.name) for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sp4cert" and any(part.startswith("_") for part in parts):
                    out.append((node.lineno, alias.name))
    return sorted(out)


def test_package_modules_import_no_private_name():
    stray = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _private_imports(path.read_text())
    ]
    assert not stray, "private names imported from another module:\n" + "\n".join(stray)


def test_guard_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from math import _private_looking\n"
        "from .generators import _ENTRIES, generator\n"
        "from sp4cert.certificates import CertBuilder, _SHAPE as shape\n"
        "from . import _helpers\n"
        "import sp4cert._hidden, os._exit\n"
    )
    assert _private_imports(source) == [
        (3, "_ENTRIES"), (4, "_SHAPE"), (5, "_helpers"), (6, "sp4cert._hidden"),
    ]
