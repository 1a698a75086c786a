"""Independent exact checker for the benchmark's outputs.

Nothing here imports ``sp4cert``: the oracle reads the interchange JSON
text the program reads and writes, and rebuilds every product with its
own arithmetic.  A 4x4 rational matrix is a pair ``(d, e)`` of a
positive common denominator ``d`` and a tuple ``e`` of 16 integers in
row-major order, reduced so that ``gcd(d, *e) == 1``; equal matrices
therefore have equal pairs.  Named generators are unipotent
(``1 + N`` with ``N^2 = 0``), so their powers are taken in closed form
(``1 + eN``) rather than by repeated multiplication as the program does.
Inverses of J-symplectic values use ``g^-1 = -J g^T J``, never
elimination.  Every check raises :class:`OracleError`; none is an
``assert``, so ``python -O`` keeps them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class OracleError(Exception):
    """An output failed an independent check."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


# ---------------------------------------------------------------------------
# exact 4x4 arithmetic over Q
# ---------------------------------------------------------------------------


def _norm(d: int, e) -> tuple[int, tuple[int, ...]]:
    g = math.gcd(d, *e)
    if g != 1:
        d //= g
        e = [x // g for x in e]
    return d, tuple(e)


def mat(rows) -> tuple[int, tuple[int, ...]]:
    """Matrix from 4 rows of ints or Fractions."""
    flat = [Fraction(x) for row in rows for x in row]
    _check(len(rows) == 4 and len(flat) == 16, "matrix must be 4x4")
    d = math.lcm(*(x.denominator for x in flat))
    return _norm(d, [x.numerator * (d // x.denominator) for x in flat])


def mul(a, b):
    (da, x), (db, y) = a, b
    out = []
    for i in range(0, 16, 4):
        x0, x1, x2, x3 = x[i], x[i + 1], x[i + 2], x[i + 3]
        for j in range(4):
            out.append(x0 * y[j] + x1 * y[4 + j] + x2 * y[8 + j] + x3 * y[12 + j])
    return _norm(da * db, out)


def transpose(a):
    d, x = a
    return d, tuple(x[4 * j + i] for i in range(4) for j in range(4))


def entry(a, i: int, j: int) -> Fraction:
    d, x = a
    return Fraction(x[4 * i + j], d)


IDENTITY = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
J = mat([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
MINUS_J = mat([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])


def is_symplectic(a) -> bool:
    return mul(mul(a, J), transpose(a)) == J


def symplectic_inverse(a):
    """``-J a^T J``; valid only for J-symplectic ``a``."""
    return mul(mul(MINUS_J, transpose(a)), J)


def is_integral(a) -> bool:
    return a[0] == 1


def unit(entries) -> tuple[int, tuple[int, ...]]:
    """``1 + sum v E(i,j)`` for 1-based ``(i, j, v)`` triples."""
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    for i, j, v in entries:
        rows[i - 1][j - 1] += v
    return mat(rows)


# ---------------------------------------------------------------------------
# the paper's generators, written out from their definitions
# ---------------------------------------------------------------------------


def named(name: str, p: int):
    table = {
        "M0": [(1, 3, 1)],
        "M1": [(3, 2, 1), (4, 1, 1)],
        "M2": [(1, 4, p), (2, 3, p)],
        "M3": [(1, 2, 1), (4, 3, -1)],
        "M4": [(2, 1, -p), (3, 4, p)],
        "L1": [(2, 4, p * p)],
        "L5": [(3, 1, 1)],
    }
    _check(name in table, f"unknown generator {name!r}")
    return unit(table[name])


def named_power(name: str, p: int, e: int):
    """``(1 + N)^e = 1 + eN``, after checking ``N^2 = 0``."""
    _, x = named(name, p)
    n = (1, tuple(v - i for v, i in zip(x, IDENTITY[1])))
    _check(mul(n, n) == (1, (0,) * 16), f"{name} is not unipotent of order 2")
    return _norm(1, [i + e * v for i, v in zip(IDENTITY[1], n[1])])


def j1(a: int, b: int, c: int, d: int):
    return mat([[a, 0, b, 0], [0, 1, 0, 0], [c, 0, d, 0], [0, 0, 0, 1]])


def j2(a: int, b: int, c: int, d: int, p: int):
    """Plain-coordinate image ``(a, p b, c/p, d)`` along coordinates (2,4)."""
    return mat(
        [[1, 0, 0, 0], [0, a, 0, p * b], [0, 0, 1, 0], [0, Fraction(c, p), 0, d]]
    )


def r_conjugate(a, p: int):
    """``R a R^-1`` with ``R = diag(1,1,1,p)``: row 4 times p, column 4 over p."""
    rows = [[entry(a, i, j) for j in range(4)] for i in range(4)]
    for j in range(4):
        rows[3][j] *= p
    for i in range(4):
        rows[i][3] /= p
    return mat(rows)


# ---------------------------------------------------------------------------
# group predicates (used for side conditions and letter legality)
# ---------------------------------------------------------------------------


def _in_pz(x: Fraction, n: int) -> bool:
    return x.denominator == 1 and x.numerator % n == 0


def in_gamma_p2(a, p: int) -> bool:
    if not is_integral(a) or not is_symplectic(a):
        return False
    return all(
        (x - int(k % 5 == 0)) % (p * p) == 0 for k, x in enumerate(a[1])
    )


def in_gamma0_1p(a, p: int) -> bool:
    if not is_symplectic(a):
        return False
    p_slots = {(0, 3), (1, 0), (1, 2), (1, 3), (2, 3)}
    for i in range(4):
        for j in range(4):
            x = entry(a, i, j)
            if (i, j) == (3, 1):
                if (p * x).denominator != 1:
                    return False
            elif (i, j) in p_slots:
                if not _in_pz(x, p):
                    return False
            elif x.denominator != 1:
                return False
    return True


def in_gamma1_of_p(a: int, b: int, c: int, d: int, p: int) -> bool:
    return (
        a * d - b * c == 1
        and (a - 1) % p == 0
        and b % p == 0
        and c % p == 0
        and (d - 1) % p == 0
    )


# ---------------------------------------------------------------------------
# interchange text
# ---------------------------------------------------------------------------


def _scalar(s) -> Fraction:
    _check(isinstance(s, str), f"entry {s!r} is not a string")
    num, _, den = s.partition("/")
    value = Fraction(int(num), int(den) if den else 1)
    _check(
        (str(value.numerator) if value.denominator == 1 else
         f"{value.numerator}/{value.denominator}") == s,
        f"entry {s!r} is not in reduced form",
    )
    return value


def mat_from_lists(obj):
    _check(
        isinstance(obj, list) and len(obj) == 4
        and all(isinstance(r, list) and len(r) == 4 for r in obj),
        "matrix must be 4 lists of 4 entries",
    )
    return mat([[_scalar(x) for x in row] for row in obj])


def _int2(obj) -> tuple[int, int, int, int]:
    _check(
        isinstance(obj, list) and len(obj) == 2
        and all(isinstance(r, list) and len(r) == 2 for r in obj),
        "2x2 payload must be 2 lists of 2 entries",
    )
    vals = [_scalar(x) for row in obj for x in row]
    _check(all(v.denominator == 1 for v in vals), "2x2 payload must be integral")
    a, b, c, d = (int(v) for v in vals)
    return a, b, c, d


DIGIT_CHUNK = 1000  # well under the interpreter's 4,300-digit int/str limit


def int_to_decimal(n: int) -> str:
    """Base-10 text of any integer, built from pieces of at most
    ``DIGIT_CHUNK`` digits, so the interpreter's int/str digit limit never
    applies."""
    if n < 0:
        return "-" + int_to_decimal(-n)
    if n < 10 ** DIGIT_CHUNK:
        return str(n)
    k = DIGIT_CHUNK
    while n >= 10 ** (2 * k):
        k *= 2
    hi, lo = divmod(n, 10 ** k)
    return int_to_decimal(hi) + int_to_decimal(lo).rjust(k, "0")


def mat_to_lists(a) -> list[list[str]]:
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            x = entry(a, i, j)
            s = int_to_decimal(x.numerator)
            row.append(s if x.denominator == 1 else f"{s}/{x.denominator}")
        out.append(row)
    return out


def max_entry_bits(a) -> int:
    return max(abs(x).bit_length() for x in a[1])


# ---------------------------------------------------------------------------
# checks of program outputs
# ---------------------------------------------------------------------------


def check_word(word_text: str, input_text: str, p: int) -> int:
    """Replay an untilded word and compare it with the input matrix.

    Letters must be powers of M1..M4, j1 payloads of determinant 1 and
    j2 payloads in gamma1_of_p.  Returns the number of letters.
    """
    word = json.loads(word_text)
    target = mat_from_lists(json.loads(input_text))
    _check(word.get("p") == p, "word is for another p")
    _check(word.get("coords") == "untilded", "word is not in plain coordinates")
    letters = word.get("letters")
    _check(isinstance(letters, list), "letters must be a list")
    acc = IDENTITY
    for idx, letter in enumerate(letters):
        _check(isinstance(letter, dict) and len(letter) in (1, 2), f"letter {idx} malformed")
        if "gen" in letter:
            name, e = letter["gen"], letter.get("exp")
            _check(name in ("M1", "M2", "M3", "M4"), f"letter {idx}: {name!r} not allowed")
            _check(isinstance(e, int) and e != 0, f"letter {idx}: bad exponent {e!r}")
            acc = mul(acc, named_power(name, p, e))
        elif "j1" in letter:
            a, b, c, d = _int2(letter["j1"])
            _check(a * d - b * c == 1, f"letter {idx}: j1 payload not in SL(2,Z)")
            acc = mul(acc, j1(a, b, c, d))
        elif "j2" in letter:
            a, b, c, d = _int2(letter["j2"])
            _check(in_gamma1_of_p(a, b, c, d, p), f"letter {idx}: j2 payload not in gamma1_of_p")
            acc = mul(acc, j2(a, b, c, d, p))
        else:
            raise OracleError(f"letter {idx} has no known tag")
    _check(acc == target, "word does not replay to the input")
    return len(letters)


def cert_verdict(cert_text: str, p: int) -> tuple[bool, str]:
    """Rebuild a certificate DAG and check every side condition.

    Returns ``(True, "")`` when seeds are M0 or lie in gamma_p2,
    conjugators lie in gamma0_1p and the root equals the target;
    otherwise ``(False, reason)`` for the first condition that fails.
    """
    cert = json.loads(cert_text)
    if cert.get("p") != p:
        return False, "certificate is for another p"
    nodes = cert.get("nodes")
    root = cert.get("root")
    if not isinstance(nodes, list) or not nodes:
        return False, "no nodes"
    if not isinstance(root, int) or not 0 <= root < len(nodes):
        return False, "root out of range"
    target = mat_from_lists(cert.get("target"))
    m0 = named("M0", p)
    arity = {"seed_m0": 0, "seed_p2": 0, "mul": 2, "inv": 1, "conj": 1}
    values = []
    for i, node in enumerate(nodes):
        op, args = node.get("op"), node.get("args")
        if node.get("id") != i or op not in arity or not isinstance(args, list):
            return False, f"node {i} malformed"
        if len(args) != arity[op] or not all(
            isinstance(a, int) and 0 <= a < i for a in args
        ):
            return False, f"node {i}: bad arguments"
        if ("value" in node) != (op in ("seed_p2", "conj")):
            return False, f"node {i}: value present or missing"
        if op == "seed_m0":
            values.append(m0)
        elif op == "seed_p2":
            v = mat_from_lists(node["value"])
            if not in_gamma_p2(v, p):
                return False, f"seed node {i} not in gamma_p2"
            values.append(v)
        elif op == "mul":
            values.append(mul(values[args[0]], values[args[1]]))
        elif op == "inv":
            values.append(symplectic_inverse(values[args[0]]))
        else:
            g = mat_from_lists(node["value"])
            if not in_gamma0_1p(g, p):
                return False, f"conjugator node {i} not in gamma0_1p"
            values.append(mul(mul(g, values[args[0]]), symplectic_inverse(g)))
    if values[root] != target:
        return False, "root value differs from target"
    return True, ""


def check_certificate(cert_text: str, input_text: str, p: int) -> int:
    """A witness must verify and target the input; returns its node count."""
    ok, why = cert_verdict(cert_text, p)
    _check(ok, f"certificate rejected: {why}")
    cert = json.loads(cert_text)
    _check(
        mat_from_lists(cert["target"]) == mat_from_lists(json.loads(input_text)),
        "certificate target is not the input",
    )
    return len(cert["nodes"])
