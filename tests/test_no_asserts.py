"""No ``assert`` statement in the package outside an allow-list.

``python -O`` strips asserts, so a check that guards a returned value
must raise explicitly (``ShapeAssertionFailed``).  The allow-list is
empty; an entry would name an internal invariant whose failure an
explicit check further on also reports, with that reason.
"""

import ast
from pathlib import Path

import sp4cert

PACKAGE = Path(sp4cert.__file__).resolve().parent

# (file, innermost function, assert test as ast.unparse prints it) -> reason
ALLOWED: dict[tuple[str, str, str], str] = {}


class _Asserts(ast.NodeVisitor):
    def __init__(self, name: str):
        self.name = name
        self.scope = ["<module>"]
        self.found: list[tuple[tuple[str, str, str], int]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assert(self, node):
        key = (self.name, self.scope[-1], ast.unparse(node.test))
        self.found.append((key, node.lineno))


def _package_asserts():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Asserts(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found.extend(visitor.found)
    return found


def test_package_has_no_asserts_outside_the_allow_list():
    stray = [f"{key[0]}:{line} in {key[1]}: assert {key[2]}"
             for key, line in _package_asserts() if key not in ALLOWED]
    assert not stray, "raise ShapeAssertionFailed instead of:\n" + "\n".join(stray)


def test_allow_list_has_no_stale_entries():
    present = {key for key, _ in _package_asserts()}
    assert set(ALLOWED) <= present, set(ALLOWED) - present


def test_guard_sees_an_assert():
    visitor = _Asserts("probe.py")
    visitor.visit(ast.parse("def f(x):\n    assert x == 1\n    return x\n"))
    assert visitor.found == [(("probe.py", "f", "x == 1"), 2)]
