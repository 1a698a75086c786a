"""Every ``functools`` cache in the package is on a reviewed list.

A cache trades memory and a second source of truth for speed, so each
one must pay for itself.  Measured on Python 3.11.7 (2 cores):
``groups._pattern`` builds a pattern in 12.4 µs and looks one up in
0.1 µs, where a whole ``member(M1, gamma_1p, 7)`` takes about 2.2 µs; without
``certificates._core_template``, building the core chain in every
witness builder made a seed-1 ``witness`` round 28% slower (best of
7).  ``generator()`` is not cached.  ``CertBuilder.power`` takes its
base by generator name and writes a split seed by
``generators.times_power``, and every witness builder starts from a
copy of the core template, so once the template is built a seed-1
``witness`` operation calls it 0 times (5.2 when each power was given
its base's value); a ``verify`` operation calls it once if it reaches
replay (0.67 times on average).  It costs 1.8-2.9 µs built against
0.1 µs cached.
The guard walks each module's syntax tree and lists every use of
``lru_cache`` or ``cache`` imported from ``functools``: a decorated
function by its qualified name, any other use by module and line.  A
new cache comes with an edit to ``REVIEWED`` that says what it saves.
"""

import ast
from pathlib import Path

import sp4cert

PACKAGE = Path(sp4cert.__file__).resolve().parent

REVIEWED = ["certificates._core_template", "groups._pattern"]

_FACTORIES = {"lru_cache", "cache"}


def _caches(module: str, source: str) -> list[str]:
    """``module.function`` for each cached function, ``module:line`` for
    any other use of a ``functools`` cache factory."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in _FACTORIES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_factory(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        return (isinstance(node, ast.Attribute) and node.attr in _FACTORIES
                and isinstance(node.value, ast.Name) and node.value.id in modules)

    labels = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                labels[id(dec.func if isinstance(dec, ast.Call) else dec)] = f"{module}.{node.name}"
    return sorted(
        labels.get(id(node), f"{module}:{node.lineno}") for node in ast.walk(tree) if is_factory(node)
    )


def test_package_caches_are_the_reviewed_ones():
    found = [
        label
        for path in sorted(PACKAGE.glob("*.py"))
        for label in _caches(path.stem, path.read_text())
    ]
    assert sorted(found) == REVIEWED


def test_guard_sees_every_form_of_cache():
    source = (
        "import functools, functools as ft\n"
        "from functools import lru_cache, cache as memo, reduce\n"
        "@lru_cache(maxsize=8)\n"
        "def a(): pass\n"
        "@memo\n"
        "def b(): pass\n"
        "class K:\n"
        "    @ft.lru_cache\n"
        "    def c(self): pass\n"
        "d = functools.cache(len)\n"
        "@reduce\n"
        "def e(): pass\n"
        "cache = {}\n"
    )
    assert _caches("m", source) == ["m.a", "m.b", "m.c", "m:10"]
