"""Exact scalar and fixed-size matrix kernel.

Every group element in this package lives in one of two carriers:

* ``Mat2`` -- 2x2 matrices over arbitrary-precision integers (all the
  SL(2) work is integer-only);
* ``Mat4`` -- 4x4 matrices over exact rationals (``fractions.Fraction``,
  which keeps every entry reduced with a positive denominator).

Only this module knows the entries are ``Fraction`` objects; others
read a matrix through ``scaled()`` and :meth:`Mat4.entry_bits`.

There is no floating point anywhere in this module: divisibility
patterns such as ``p^2 | x`` or ``x in (1/p)Z`` are meaningless after
rounding.  Both matrix types are immutable values; all operations
return fresh objects, so certificate replay is deterministic and the
types are safe to share between threads.

Integer powers ``m ** n`` of both types go through one helper.  When
``N = m - 1`` squares to zero -- as for M0..M4, Mt1..Mt4, L1..L5 and
the SL(2) letters T, U and P -- the power is the closed form
``1 + n N``, exact for negative ``n`` too because ``(1 + N)(1 - N) = 1``.
That closed form is public as :func:`unipotent_power`, which returns
``None`` when ``N N != 0``; ``CertBuilder.power`` uses it to split a
large power.  The helper collects the nonzero entries of ``N``, tests ``N N = 0`` by
summing products over those entries only, and builds ``1 + n N`` by
touching only them, so a letter's power costs no matrix product.  The
sums matter: a dense rank-one ``N = u v^T`` with ``v . u = 0`` squares
to zero only through cancellation.  Any other base falls back to
binary powering, of the inverse when ``n < 0``.

``Mat4.identity()`` returns one shared immutable constant.  One loop,
:func:`mul_rows`, is every 4x4 product: of ``Mat4`` values and of the
integer rows that decomposition works on.

The interchange format for matrices is a row-major list of lists of
strings, each string a base-10 integer or a reduced ``num/den``
fraction with denominator at least 2.  Only this canonical spelling is
read (``-0``, ``0/1`` and ``5/1`` are refused), so round-trips are
bit-exact.
Integers past the interpreter's int/str conversion limit (4,300 digits
by default) are written in pieces below it; reading such an entry is a
:class:`ParseError`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BothZero,
    NotUnimodular,
    ParseError,
    ShapeAssertionFailed,
    SingularMatrix,
)

Scalar = int | Fraction

# decimal digits per str() call: below 640, the smallest int/str
# conversion limit the interpreter accepts, so no setting of it trips
_DIGITS = 600
_DIGITS_BOUND = 10 ** _DIGITS


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``g = gcd(a,b) > 0``
    and ``a*x + b*y = g``.  Raises :class:`BothZero` on ``(0, 0)``."""
    if a == 0 and b == 0:
        raise BothZero("ext_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    if a * old_s + b * old_t != old_r:
        raise ShapeAssertionFailed(f"ext_gcd({a}, {b}) broke the Bezout identity")
    return old_r, old_s, old_t


@dataclass(frozen=True)
class Mat2:
    """Immutable 2x2 integer matrix."""

    rows: tuple[tuple[int, int], tuple[int, int]]

    @staticmethod
    def of(a: int, b: int, c: int, d: int) -> "Mat2":
        return Mat2(((int(a), int(b)), (int(c), int(d))))

    @staticmethod
    def identity() -> "Mat2":
        return Mat2.of(1, 0, 0, 1)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self.rows[i]

    def __mul__(self, other: "Mat2") -> "Mat2":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Mat2.of(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __neg__(self) -> "Mat2":
        (a, b), (c, d) = self.rows
        return Mat2.of(-a, -b, -c, -d)

    def det(self) -> int:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def inv(self) -> "Mat2":
        """Exact inverse.  Only determinant +-1 has an integer inverse."""
        det = self.det()
        if det == 0:
            raise SingularMatrix("2x2 determinant is zero")
        if det not in (1, -1):
            raise NotUnimodular(f"2x2 determinant {det} has no integer inverse")
        (a, b), (c, d) = self.rows
        return Mat2.of(d * det, -b * det, -c * det, a * det)

    def __pow__(self, n: int) -> "Mat2":
        return _power(self, n)

    def is_identity(self) -> bool:
        return self.rows == ((1, 0), (0, 1))

    def scaled(self) -> tuple[int, tuple[tuple[int, int], tuple[int, int]]]:
        """``(1, rows)``: the entries are integers already."""
        return 1, self.rows


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def mul_rows(a, b) -> tuple[tuple, ...]:
    """The rows of the 4x4 product ``a b``, for rows of any exact
    numbers; ``int`` rows give ``int`` entries."""
    out = []
    for i in range(4):
        ai = a[i]
        row = []
        for j in range(4):
            row.append(
                ai[0] * b[0][j] + ai[1] * b[1][j] + ai[2] * b[2][j] + ai[3] * b[3][j]
            )
        out.append(tuple(row))
    return tuple(out)


@dataclass(frozen=True)
class Mat4:
    """Immutable 4x4 matrix over exact rationals."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows) -> "Mat4":
        out = tuple(tuple(_frac(x) for x in row) for row in rows)
        if len(out) != 4 or any(len(r) != 4 for r in out):
            raise ValueError("Mat4 needs 4 rows of 4 entries")
        return Mat4(out)

    @staticmethod
    def identity() -> "Mat4":
        return _IDENTITY4

    @staticmethod
    def diagonal(d1, d2, d3, d4) -> "Mat4":
        return Mat4.from_rows(
            [[d1, 0, 0, 0], [0, d2, 0, 0], [0, 0, d3, 0], [0, 0, 0, d4]]
        )

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def __mul__(self, other: "Mat4") -> "Mat4":
        return Mat4(mul_rows(self.rows, other.rows))

    def inv(self) -> "Mat4":
        """Exact inverse via Gauss-Jordan elimination over the rationals."""
        m = [list(r) for r in self.rows]
        inv = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        for col in range(4):
            pivot = next((r for r in range(col, 4) if m[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrix("4x4 determinant is zero")
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
            scale = m[col][col]
            m[col] = [x / scale for x in m[col]]
            inv[col] = [x / scale for x in inv[col]]
            for r in range(4):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return Mat4(tuple(tuple(row) for row in inv))

    def __pow__(self, n: int) -> "Mat4":
        return _power(self, n)

    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(d, rows)``: d > 0 the lcm of the denominators, ``rows`` the
        integer entries of ``d * self``; worked out once per matrix."""
        pair = getattr(self, "_scaled", None)
        if pair is None:
            ratios = [x.as_integer_ratio() for row in self.rows for x in row]
            d = math.lcm(*[q for _, q in ratios])
            e = [n * (d // q) for n, q in ratios]
            pair = d, (tuple(e[:4]), tuple(e[4:8]), tuple(e[8:12]), tuple(e[12:]))
            object.__setattr__(self, "_scaled", pair)
        return pair

    def entry_bits(self) -> int:
        """Bits of the widest reduced numerator or denominator."""
        acc = 0
        for row in self.rows:
            for x in row:
                acc |= abs(x.numerator) | x.denominator
        return acc.bit_length()


_IDENTITY4 = Mat4.diagonal(1, 1, 1, 1)


def _quotient(x, n: int):
    """``x / n``: an ``int`` when n divides the ``int`` x, else a ``Fraction``."""
    return x // n if type(x) is int and not x % n else Fraction(x, n)


def unipotent_power(m, n: int):
    """``1 + n N`` for ``N = m - 1`` when ``N N = 0``, else ``None``;
    ``m`` a ``Mat2`` or ``Mat4``.  Both the test and the closed form
    visit only the nonzero entries of ``N``."""
    cls = type(m)
    nil = []  # (i, j, N_ij) for the nonzero N_ij
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if i == j:
                if x != 1:
                    nil.append((i, j, x - 1))
            elif x:
                nil.append((i, j, x))
    # (N N)_ij accumulates N_ik N_kj; its terms may cancel
    square: dict[tuple[int, int], Scalar] = {}
    for i, k, x in nil:
        for k2, j, y in nil:
            if k == k2:
                square[i, j] = square.get((i, j), 0) + x * y
    if any(square.values()):
        return None
    rows = [list(r) for r in cls.identity().rows]
    for i, j, x in nil:
        rows[i][j] += n * x
    return cls(tuple(tuple(r) for r in rows))


def _power(m, n: int):
    """``m ** n`` for a ``Mat2`` or ``Mat4`` ``m``: the closed form of
    :func:`unipotent_power` when it applies, otherwise binary powering,
    of ``m.inv()`` when ``n < 0``."""
    closed = unipotent_power(m, n)
    if closed is not None:
        return closed
    base = m if n >= 0 else m.inv()
    n = abs(n)
    acc = type(m).identity()
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


# ---------------------------------------------------------------------------
# interchange format: strings "n" or "num/den", reduced, positive denominator
# ---------------------------------------------------------------------------

# canonical only: no "-0", no leading zeros; a denominator of 1 is refused below
_ENTRY_RE = re.compile(r"^(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?$")


def _int_to_str(n: int) -> str:
    """``str(n)`` for an integer of any size."""
    if -_DIGITS_BOUND < n < _DIGITS_BOUND:
        return str(n)
    if n < 0:
        return "-" + _int_to_str(-n)
    # about half the digits: n has at least 0.301 * bit_length of them
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10 ** k)
    return _int_to_str(high) + _int_to_str(low).zfill(k)


def scalar_to_str(x: Scalar) -> str:
    x = _frac(x)
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def scalar_from_str(s: str, where: str = "") -> Fraction:
    """Read an entry written as :func:`scalar_to_str` writes it; any
    other spelling of the same number (``-0``, ``0/1``, ``n/1``,
    ``2/4``) is a :class:`ParseError`, so round-trips are bit-exact."""
    if not isinstance(s, str):
        raise ParseError(f"entry {where or repr(s)} must be a string")
    m = _ENTRY_RE.match(s)
    if not m:
        raise ParseError(f"bad scalar {s!r} {where}".rstrip())
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError as exc:  # past the int/str conversion limit
        raise ParseError(f"entry too long to read {where}".rstrip() + f": {exc}") from exc
    if m.group(2) and (den == 1 or math.gcd(num, den) != 1):
        raise ParseError(f"scalar {s!r} is not canonical {where}".rstrip())
    return Fraction(num, den)


def load_json(text: str | bytes, where: str = ""):
    """``json.loads(text)``, with every refusal of its input -- bad JSON,
    bad UTF-8, a number past the int/str conversion limit, nesting past
    the recursion limit -- raised as a :class:`ParseError`."""
    prefix = f"{where}: " if where else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{prefix}bad JSON at offset {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # bad UTF-8, or a number past the digit limit
        raise ParseError(f"{prefix}{exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{prefix}JSON nested too deeply") from exc


def json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer; a float, bool or string is a :class:`ParseError`."""
    if type(x) is not int:
        raise ParseError(f"{what} must be an integer, not {type(x).__name__}")
    return x


def mat4_to_lists(m: Mat4) -> list[list[str]]:
    return [[scalar_to_str(x) for x in row] for row in m.rows]


def _read_rows(obj, n: int, read) -> tuple[tuple, ...]:
    """An n x n list of entry strings, each read by ``read(entry, where)``."""
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"matrix must be a list of {n} rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries")
        rows.append(tuple(read(x, f"at ({i},{j})") for j, x in enumerate(row)))
    return tuple(rows)


def _int_from_str(s: str, where: str) -> int:
    v = scalar_from_str(s, where)
    if v.denominator != 1:
        raise ParseError(f"entry {where} must be an integer")
    return int(v)


def mat4_from_lists(obj) -> Mat4:
    return Mat4(_read_rows(obj, 4, scalar_from_str))


def mat2_to_lists(m: Mat2) -> list[list[str]]:
    return [[_int_to_str(x) for x in row] for row in m.rows]


def mat2_from_lists(obj) -> Mat2:
    return Mat2(_read_rows(obj, 2, _int_from_str))
