"""Mutation harness for the trusted base of sp4cert.

    python3 tests/mutation_harness.py [--target NAME ...] [--list] [--timeout S]

Run from the root of a checkout.  The file is not named ``test_*.py``, so
pytest does not collect it.

Each mutant changes one syntax node of one function in ``TARGETS``, by
one operator of the fixed set ``OPERATORS``:

* ``cmp``   the first operator of a comparison swapped (``<`` and
  ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
  ``in`` and ``not in``);
* ``bool``  ``and`` and ``or`` swapped;
* ``not``   a ``not`` dropped;
* ``neg``   a unary minus dropped;
* ``const`` an int constant plus one, or a bool flipped;
* ``arith`` ``+`` to ``-``, ``-`` to ``+``, ``*`` to ``+``;
* ``call``  a call of one argument ``f(x)``, or a method call of none
  ``x.m()``, replaced by ``x``;
* ``stmt``  a ``raise`` or ``continue`` replaced by ``pass``.

The function's source lines are replaced by the mutated function, so the
rest of the module keeps its text.  Each mutant runs in a scratch copy of
``src/``, ``tests/``, ``bench/``, ``demos/`` and ``pyproject.toml`` (no
byte code is written, so no stale cache hides a mutant), with
``pytest -x`` over the target's test files, under an address-space limit
of ``MEMORY_LIMIT`` bytes (``setrlimit`` in the child, so only that run
is bounded).  Before the first mutant of a set of test files, those
files run once unmutated: that run must pass, or nothing is scored and
the exit code is 2, and unless ``--timeout`` is given it sets the
mutants' timeout, ``TIMEOUT_SCALE`` times its time plus
``TIMEOUT_SLACK`` seconds.  The mutant is killed when pytest fails, runs
out of memory or times out.  A survivor listed in ``EQUIVALENT``, with
the reason it cannot change behaviour, is not counted against the
score; any other survivor makes the exit code 1.

A mutant is named ``module:qualname:line:col:end:operator``: the line of
the mutated node counted from the ``def`` (0), and its first and last
columns.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml")

KERNEL = ("tests/test_matrices.py", "tests/test_mat4_pair.py", "tests/test_entry_format.py")
WRITER = ("tests/test_writer.py", "tests/test_matrices.py", "tests/test_golden.py")
VERIFIER = ("tests/test_certificates.py", "tests/test_writer.py", "tests/test_cli.py",
            "tests/test_golden.py", "tests/test_acceptance.py")
PREDICATES = ("tests/test_groups.py", "tests/test_certificates.py")
READER = ("tests/test_matrices.py", "tests/test_mat4_pair.py", "tests/test_cli.py",
          "tests/test_cli_robustness.py")
REDUCER = ("tests/test_decompose.py", "tests/test_golden.py")
SL2 = ("tests/test_sl2.py", "tests/test_golden.py")
LETTERS = REDUCER + ("tests/test_generators.py", "tests/test_matrices.py")

MEMORY_LIMIT = 2 << 30  # bytes of address space for one pytest run
TIMEOUT_SCALE, TIMEOUT_SLACK = 5, 10  # a mutant's timeout from the unmutated run's seconds

# (module, qualified function name, test files run against its mutants):
# the verifier and predicates, the reader and kernel, the writer, the
# letter actions and each letter kind's methods, then the word's JSON,
# decompose's reducer and sl2
TARGETS = (
    ("certificates", "_node_value", VERIFIER),
    ("certificates", "_bit_budget", VERIFIER),
    ("certificates", "cert_verify", VERIFIER),
    ("certificates", "certificate_from_json_obj", VERIFIER),
    ("certificates", "VerificationReport.lines", VERIFIER),
    ("certificates", "IdentityReport.lines", VERIFIER),
    ("certificates", "CertBuilder._intern", VERIFIER),
    ("certificates", "CertBuilder.power", VERIFIER),
    ("certificates", "CertBuilder.product", VERIFIER),
    ("certificates", "CertBuilder.certificate", VERIFIER),
    ("certificates", "_checked_core", VERIFIER + ("tests/test_generators.py",)),
    ("certificates", "_core_template", VERIFIER),
    ("certificates", "_core_builder", VERIFIER),
    ("certificates", "verify_identities", VERIFIER + ("tests/test_generators.py",)),
    ("groups", "member", PREDICATES),
    ("groups", "symplectic_check", PREDICATES),
    ("groups", "SymplecticForm.__post_init__", PREDICATES),
    ("groups", "r_conjugate", PREDICATES),
    ("groups", "short_witness", PREDICATES),
    ("matrices", "Mat2.scaled", KERNEL),
    ("matrices", "Mat4.__init__", KERNEL),
    ("matrices", "Mat4.from_pair", KERNEL),
    ("matrices", "Mat4.rows", KERNEL),
    ("matrices", "Mat2.inv", KERNEL),
    ("matrices", "Mat4.inv", KERNEL),
    ("matrices", "Mat4.symplectic_inv", KERNEL),
    ("matrices", "Mat4.__mul__", KERNEL + ("tests/test_certificates.py",)),
    ("matrices", "Mat4.times_shears", KERNEL + ("tests/test_decompose.py",)),
    ("matrices", "Mat4.times_j_block", KERNEL + ("tests/test_decompose.py",)),
    ("matrices", "Mat4.__eq__", KERNEL),
    ("matrices", "Mat4.entry_bits", KERNEL),
    ("matrices", "_scale", KERNEL),
    ("matrices", "repeated_squaring", KERNEL + ("tests/test_certificates.py",)),
    ("matrices", "_ratio_from_str", READER),
    ("matrices", "load_json", READER + ("tests/test_certificates.py",)),
    ("matrices", "json_int", READER),
    ("matrices", "_read_rows", READER),
    ("matrices", "mat2_from_lists", READER),
    ("matrices", "_int_to_str", WRITER),
    ("matrices", "_ratio_to_str", WRITER),
    ("matrices", "entry_strings", WRITER),
    ("matrices", "mat4_to_lists", WRITER),
    ("matrices", "mat2_to_lists", WRITER),
    ("certificates", "_matrix_layout", WRITER),
    ("certificates", "_node_layout", WRITER),
    ("certificates", "_text", WRITER),
    ("certificates", "serialize", WRITER),
    ("generators", "generator", LETTERS),
    ("generators", "times_power", LETTERS),
    ("groups", "times_embedding", LETTERS),
    ("matrices", "Mat2.of", LETTERS),
    *(("decompose", f"{kind}.{method}", LETTERS) for kind in ("Named", "_Block")
      for method in ("times", "inverse", "is_identity", "plain", "to_json_obj")),
    ("decompose", "Named.small", REDUCER),
    ("decompose", "_Block.small", REDUCER),
    ("decompose", "_lift", REDUCER),
    ("decompose", "GeneratorWord.to_json_obj", REDUCER),
    ("decompose", "GeneratorWord.from_json_obj", REDUCER),
    ("decompose", "_Reducer.apply", REDUCER),
    ("decompose", "_Reducer.gcd_clear_v3", REDUCER),
    ("decompose", "reduce_first_row", REDUCER),
    ("decompose", "_cleared_shape", REDUCER),
    ("decompose", "_decompose_tilde", REDUCER),
    ("sl2", "sl2_decompose", SL2),
    ("sl2", "conjugates_of_t", SL2),
    ("sl2", "gamma1p_generate", SL2),
    ("cli", "_fuzz_trial", ("tests/test_cli.py",)),
)

# mutant name -> why no input can tell it from the original
EQUIVALENT = {
    "matrices:_int_to_str:2:7:41:cmp": "n = -10**600 then goes to str(n), 601 digits, below every limit",
    "matrices:_int_to_str:4:7:12:cmp": "n here has at least 601 digits, so n != 0",
    "matrices:_int_to_str:4:11:12:const": "n here has at least 601 digits, so n < 1 iff n < 0",
    "matrices:_int_to_str:7:8:26:arith": "k = (bits + 3) // 20 is still in 1..digits-1: another split, same digits",
    "matrices:_int_to_str:7:25:26:const": "k = bits * 4 // 20 is still in 1..digits-1: another split, same digits",
    "matrices:_int_to_str:7:30:32:const": "k = bits * 3 // 21 is still in 1..digits-1: another split, same digits",
    "matrices:mat4_to_lists:2:65:67:const": "s[12:17] of a 16-tuple is s[12:16]",
    "matrices:Mat4.inv:24:27:34:cmp": "det == 0 has raised two lines above, so det >= 0 iff det > 0",
    "matrices:Mat4.entry_bits:6:29:34:cmp": "x <= 0 differs from x < 0 only at x = 0, and -0 == 0",
    "matrices:Mat4.entry_bits:6:33:34:const": "x < 1 differs from x < 0 only at x = 0, and -0 == 0",
    "matrices:Mat4.entry_bits:8:14:15:const": "each entry ORs in d // g >= 1, so a starting 1 sets no new bit",
    "matrices:_read_rows:26:12:17:stmt": "the loop above reads the failed row again and raises first",
    "matrices:repeated_squaring:7:7:12:cmp": "n == 0 has returned the line above, so n <= 0 iff n < 0",
    "matrices:repeated_squaring:7:11:12:const": "n == 0 has returned the line above, so n < 1 iff n < 0",
    "certificates:cert_verify:43:8:33:call": "member and generator both run require_odd_prime(p) first, so a bad p raises the same BadPrime",
    "certificates:certificate_from_json_obj:24:15:22:call": "a JSON value is never the class int, so json_int(a) runs, and it passes an int",
    "certificates:_core_template:9:11:25:call": "only _core_builder reads the template, and it copies the nodes with list(...)",
    "certificates:CertBuilder.certificate:11:18:19:const": "new_id is read only at live ids, each set before it is read",
    "certificates:CertBuilder.certificate:11:31:32:const": "a spare new_id slot past root is never read",
    "groups:short_witness:11:17:18:const": "ext_gcd(0, c) has x = 0 at the first nonzero c: acc's start is multiplied away",
    "groups:short_witness:11:20:21:const": "ext_gcd(0, c) has x = 0 at the first nonzero c: acc's start is multiplied away",
    "groups:short_witness:11:23:24:const": "ext_gcd(0, c) has x = 0 at the first nonzero c: acc's start is multiplied away",
    "groups:short_witness:11:26:27:const": "ext_gcd(0, c) has x = 0 at the first nonzero c: acc's start is multiplied away",
    "decompose:_Reducer.gcd_clear_v3:1:34:35:const": "[:5] adds an entry; only v[0] and v[2] are read",
    "decompose:_Reducer.gcd_clear_v3:3:34:35:const": "[:5] adds an entry; only v[0] and v[2] are read",
    "decompose:reduce_first_row:17:29:30:const": "[:5] adds an entry; only v[1] and v[3] are read",
    "decompose:reduce_first_row:27:33:34:const": "[:5] adds an entry; only v[3] is read",
    "decompose:reduce_first_row:29:33:34:const": "[:5] adds an entry; only v[1] is read",
    "decompose:reduce_first_row:33:8:75:stmt": "unreachable: step (d) and a gcd step leave row 1 = (1,0,0,0)",
    "decompose:reduce_first_row:33:14:75:call": "unreachable: step (d) and a gcd step leave row 1 = (1,0,0,0)",
    "decompose:_lift:26:9:26:arith": "a d - b c = 1 + k m with m >= 9, so (a d - b c + 1) // m is k too",
    "decompose:_decompose_tilde:20:50:54:const": "a j1 letter's times ignores tilde: it acts alike in both coordinates",
    "sl2:gamma1p_generate:11:11:22:arith": "q[0][0] = 1 + lam p with p >= 3, so (q[0][0] + 1) // p is lam too",
    "sl2:gamma1p_generate:15:20:21:const": "undo is empty here, so insert(1, x) puts x first as insert(0, x) does",
    "sl2:gamma1p_generate:16:21:22:const": "cases is empty here, so insert(1, 3) puts 3 first as insert(0, 3) does",
}

_CMP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
OPERATORS = ("cmp", "bool", "not", "neg", "const", "arith", "call", "stmt")


def _sites(func: ast.AST) -> list[tuple[ast.AST, str]]:
    """(node, operator) for each place in ``func`` one operator applies;
    the docstring is not a site."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            out += [(node, "cmp")] if any(type(op) in _CMP for op in node.ops) else []
        elif isinstance(node, ast.BoolOp):
            out.append((node, "bool"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            out.append((node, "not" if isinstance(node.op, ast.Not) else "neg"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
            out.append((node, "const"))
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            out.append((node, "arith"))
        elif isinstance(node, ast.Call) and _call_operand(node) is not None:
            out.append((node, "call"))
        elif isinstance(node, (ast.Raise, ast.Continue)):
            out.append((node, "stmt"))
    return sorted(out, key=lambda s: (s[0].lineno, s[0].col_offset, s[0].end_col_offset, s[1]))


def _call_operand(node: ast.Call) -> ast.AST | None:
    """``x`` of a call ``f(x)`` or ``x.m()``, else ``None``."""
    if node.keywords:
        return None
    if len(node.args) == 1 and not isinstance(node.args[0], ast.Starred):
        return node.args[0]
    if not node.args and isinstance(node.func, ast.Attribute):
        return node.func.value
    return None


class _Apply(ast.NodeTransformer):
    """Mutate the one node ``target`` by ``operator``."""

    def __init__(self, target: ast.AST, operator: str):
        self.target, self.operator = target, operator

    def visit(self, node):
        if node is not self.target:
            return self.generic_visit(node)
        op = self.operator
        if op == "cmp":
            node.ops = [(_CMP[type(node.ops[0])] if i == 0 and type(o) in _CMP else type(o))()
                        for i, o in enumerate(node.ops)]
        elif op == "bool":
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        elif op in ("not", "neg"):
            return node.operand
        elif op == "call":
            return _call_operand(node)
        elif op == "const":
            node.value = (not node.value) if type(node.value) is bool else node.value + 1
        elif op == "arith":
            node.op = _ARITH[type(node.op)]()
        else:
            return ast.copy_location(ast.Pass(), node)
        return node


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    scope: ast.AST = tree
    for part in qualname.split("."):
        scope = next(n for n in scope.body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return scope


def mutants(module: str, qualname: str) -> list[tuple[str, str]]:
    """(name, mutated module source) for each mutant of one target."""
    path = ROOT / "src" / "sp4cert" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    out = []
    for k, (site, op) in enumerate(_sites(_find(ast.parse(source), qualname))):
        tree = ast.parse(source)  # a fresh tree: find the k-th site again
        func = _find(tree, qualname)
        node, _ = _sites(func)[k]
        _Apply(node, op).visit(func)
        first = min([d.lineno for d in func.decorator_list] + [func.lineno])  # unparse writes both
        indent = " " * func.col_offset
        body = "".join(indent + line + "\n" for line in ast.unparse(func).splitlines())
        text = "".join(lines[:first - 1]) + body + "".join(lines[func.end_lineno:])
        where = f"{site.lineno - func.lineno}:{site.col_offset}:{site.end_col_offset}"
        name = f"{module}:{qualname}:{where}:{op}"
        out.append((name, text))
    return out


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run(work: Path, tests: tuple[str, ...], timeout: float | None) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(work / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        res = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout,
                             preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "survived", 1: "killed", 2: "killed"}.get(res.returncode, f"error {res.returncode}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--target", action="append", default=[],
                    help="run only targets whose 'module:qualname' contains this text")
    ap.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    ap.add_argument("--timeout", type=float, help="seconds per mutant (default: from the unmutated run)")
    args = ap.parse_args(argv)
    chosen = [t for t in TARGETS if not args.target or any(s in f"{t[0]}:{t[1]}" for s in args.target)]
    if args.list:
        for module, qualname, _ in chosen:
            for name, _ in mutants(module, qualname):
                print(name + (" (equivalent)" if name in EQUIVALENT else ""))
        return 0

    work = Path(tempfile.mkdtemp(prefix="sp4cert-mutants-"))
    try:
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, work / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, work / item)
        survivors, killed, equivalent, total = [], 0, 0, 0
        timeouts: dict[tuple[str, ...], float] = {}  # test files -> seconds per mutant
        for module, qualname, tests in chosen:
            if tests not in timeouts:
                t0 = time.perf_counter()
                verdict = _run(work, tests, None)
                elapsed = time.perf_counter() - t0
                verdict = {"survived": "passed", "killed": "failed"}.get(verdict, verdict)
                print(f"{'unmutated':10} {elapsed:6.1f}s  {' '.join(tests)}: {verdict}", flush=True)
                if verdict != "passed":
                    return 2
                timeouts[tests] = args.timeout or TIMEOUT_SCALE * elapsed + TIMEOUT_SLACK
            path = work / "src" / "sp4cert" / f"{module}.py"
            original = path.read_text()
            for name, text in mutants(module, qualname):
                t0 = time.perf_counter()
                path.write_text(text)
                try:
                    verdict = _run(work, tests, timeouts[tests])
                finally:
                    path.write_text(original)
                total += 1
                if verdict in ("killed", "timeout"):
                    killed += 1
                elif verdict == "survived" and name in EQUIVALENT:
                    equivalent += 1
                    verdict = "equivalent"
                else:
                    survivors.append(name)
                print(f"{verdict:10} {time.perf_counter() - t0:6.1f}s  {name}", flush=True)
        counted = total - equivalent
        print(f"mutants {total}, killed {killed}, equivalent {equivalent}, "
              f"score {killed}/{counted}" + (f" = {killed / counted:.1%}" if counted else ""))
        for name in survivors:
            print("SURVIVOR", name)
        return 1 if survivors else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
