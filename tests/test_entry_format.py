"""Only ``matrices`` knows how matrix entries are stored.

Every other module reads a matrix through ``scaled()`` and
``entry_bits()``, so a change of the entry format is a change to
``matrices.py`` alone.  The guard walks each module's syntax tree:
importing ``fractions``, naming ``Fraction`` or reading ``.numerator``
or ``.denominator`` anywhere else fails.  Docstrings and comments are
not names, so prose about fractions is free.  Inside ``matrices`` the
walk allows ``fractions`` and ``Fraction`` only in the import and in
the ``Mat4.rows`` view, so no ``Fraction`` arithmetic comes back.

Inside ``Mat4`` only the ``rows`` property itself reads ``.rows``, so
no method of the class goes through the ``Fraction`` view.

The same walk keeps ``Mat4`` the one 4x4 carrier.  ``Mat4`` stores one
flat 16-tuple and its product is ``Mat4.__mul__`` itself, so no module,
``matrices`` included, names the retired integer-row product
``mul_rows`` or a row constructor ``from_rows``.
"""

import ast
from pathlib import Path

import sp4cert

PACKAGE = Path(sp4cert.__file__).resolve().parent
OWNER = "matrices.py"
FORMAT_NAMES = {"Fraction"}
FORMAT_ATTRIBUTES = {"numerator", "denominator"}


def _format_nodes(tree: ast.AST) -> list[tuple[ast.AST, int, str]]:
    """(node, line, what) for each place the tree touches the entry format."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node, node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node, node.lineno, "from fractions import"))
        elif isinstance(node, ast.alias) and node.name in FORMAT_NAMES:
            found.append((node, getattr(node, "lineno", 0), f"imports {node.name}"))
        elif isinstance(node, ast.Name) and node.id in FORMAT_NAMES:
            found.append((node, node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FORMAT_NAMES | FORMAT_ATTRIBUTES:
            found.append((node, node.lineno, f".{node.attr}"))
    return found


def _format_reads(source: str) -> list[tuple[int, str]]:
    """(line, what) for each place the source touches the entry format."""
    return sorted((line, what) for _, line, what in _format_nodes(ast.parse(source)))


def _stray_fractions(source: str) -> list[tuple[int, str]]:
    """(line, what) for each use of ``fractions`` or ``Fraction`` other
    than ``from fractions import Fraction`` and the body of the
    ``Mat4.rows`` view: the owner does no ``Fraction`` arithmetic."""
    tree = ast.parse(source)
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Mat4":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "rows":
                    allowed |= {id(n) for n in ast.walk(item)}
        elif (isinstance(node, ast.ImportFrom) and node.module == "fractions"
              and [(a.name, a.asname) for a in node.names] == [("Fraction", None)]):
            allowed |= {id(n) for n in ast.walk(node)}
    return sorted(
        (line, what) for node, line, what in _format_nodes(tree)
        if id(node) not in allowed and what not in (".numerator", ".denominator")
    )


def test_only_matrices_touches_the_entry_format():
    stray = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != OWNER
        for line, what in _format_reads(path.read_text())
    ]
    assert not stray, "read matrices through scaled() or entry_bits():\n" + "\n".join(stray)


def test_the_owner_is_the_module_that_uses_the_format():
    assert _format_reads((PACKAGE / OWNER).read_text())


def test_the_owner_names_fraction_only_in_its_import_and_the_rows_view():
    stray = _stray_fractions((PACKAGE / OWNER).read_text())
    assert not stray, "matrices does integer arithmetic on the pair:\n" + "\n".join(
        f"{OWNER}:{line}: {what}" for line, what in stray
    )


def test_fraction_guard_catches_a_stray_use():
    source = (
        '"""Fraction in prose is fine."""\n'
        "from fractions import Fraction\n"
        "class Mat4:\n"
        "    @property\n"
        "    def rows(self) -> tuple[Fraction, ...]:\n"
        "        return tuple(Fraction(x, self.d) for x in self.e)\n"
        "    def inv(self):\n"
        "        return [Fraction(x) for x in self.e]\n"
        "def rows(x):\n"
        "    import fractions\n"
        "    return fractions.Fraction(x.numerator, x.denominator)\n"
    )
    assert _stray_fractions(source) == [
        (8, "Fraction"), (10, "import fractions"), (11, ".Fraction"),
    ]
    assert _stray_fractions(source.replace("import Fraction", "import Fraction as F")) == [
        (2, "from fractions import"), (2, "imports Fraction"),
        (8, "Fraction"), (10, "import fractions"), (11, ".Fraction"),
    ]


def test_guard_sees_each_kind_of_read():
    source = (
        '"""Fraction, numerator and denominator in prose are fine."""\n'
        "import fractions\n"
        "from fractions import Fraction as F\n"
        "# x.numerator in a comment is fine\n"
        "def f(x):\n"
        "    return fractions.Fraction(x.numerator, x.denominator), Fraction\n"
    )
    found = _format_reads(source)
    assert {line for line, _ in found} == {2, 3, 6}
    assert {what for _, what in found} == {
        "import fractions", "from fractions import", "imports Fraction",
        ".Fraction", ".numerator", ".denominator", "Fraction",
    }


def _mat4_rows_reads(source: str) -> list[int]:
    """Lines where class ``Mat4`` reads ``.rows`` outside its ``rows`` property."""
    allowed: set[int] = set()
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "Mat4":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "rows":
                    allowed |= {id(n) for n in ast.walk(item)}
            reads += [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "rows"]
    return sorted(n.lineno for n in reads if id(n) not in allowed)


def test_mat4_reads_rows_only_in_the_rows_view():
    stray = _mat4_rows_reads((PACKAGE / OWNER).read_text())
    assert not stray, "Mat4 reads the pair, not the Fraction view: lines " + ", ".join(map(str, stray))


def test_rows_guard_catches_a_read_in_another_method():
    source = (
        "class Mat2:\n"
        "    def f(self):\n"
        "        return self.rows\n"
        "class Mat4:\n"
        "    @property\n"
        "    def rows(self):\n"
        "        return self.rows_of(self._d)\n"
        "    def __repr__(self):\n"
        "        return f'Mat4({self.rows!r})'\n"
    )
    assert _mat4_rows_reads(source) == [9]


ROW_LAYER_NAMES = {"mul_rows", "from_rows"}


def _row_layer_refs(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name, attribute or import of the row layer."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in ROW_LAYER_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in ROW_LAYER_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}") for a in node.names
                      if a.name in ROW_LAYER_NAMES]
    return sorted(found)


def test_only_matrices_names_the_row_layer():
    stray = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _row_layer_refs(path.read_text())
    ]
    assert not stray, "multiply and build Mat4 values:\n" + "\n".join(stray)


def test_row_guard_sees_each_kind_of_reference():
    source = (
        '"""mul_rows and from_rows in prose are fine."""\n'
        "from .matrices import mul_rows as product\n"
        "# Mat4.from_rows in a comment is fine\n"
        "def f(a, b):\n"
        "    return matrices.mul_rows(a, b), Mat4.from_rows(a), mul_rows\n"
    )
    assert _row_layer_refs(source) == [
        (2, "imports mul_rows"), (5, ".from_rows"), (5, ".mul_rows"), (5, "mul_rows"),
    ]
