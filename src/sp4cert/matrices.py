"""Exact scalar and fixed-size matrix kernel.

Every group element in this package lives in one of two carriers:

* ``Mat2`` -- 2x2 matrices over arbitrary-precision integers (all the
  SL(2) work is integer-only);
* ``Mat4`` -- 4x4 matrices over exact rationals, stored as one pair
  ``(d, e)``: d > 0 a common denominator and e the 16 integer entries
  of ``d * m``, one flat row-major tuple, reduced so that
  ``gcd(d, *e) = 1``.  Equal matrices have equal pairs, so ``==`` and
  ``hash`` read the pair.  ``Mat2.scaled()`` is ``(1, (a, b, c, d))``
  in the same layout.

Only this module knows how the entries are stored; others read a
matrix through ``scaled()``, which returns the stored pair, and
:meth:`Mat4.entry_bits`, and build one from a pair of integers with
:meth:`Mat4.from_pair`, the inverse of ``scaled()``.  ``Mat4(rows)``
takes rows of exact rationals (a ``str`` or ``float`` is a
``TypeError``), and ``Mat4.rows`` is a read-only view that builds one
``fractions.Fraction`` per entry, the only ``Fraction`` in the package;
both are for callers off the hot paths.

Every general 4x4 product is ``Mat4.__mul__``: both flat tuples unpacked into
locals and the 16 sums written out, then one gcd when d > 1.  Do not fold it
back into a comprehension: before Python 3.12 a comprehension runs as a nested
function with a frame of its own, and certificate replay is mostly these
products.  A word letter acts in one pass with no gcd: ``1 + n N`` as its
shears on one list copy (:meth:`Mat4.times_shears`), a unimodular block on
columns (1,3) or (2,4) written out (:meth:`Mat4.times_j_block`).
:meth:`Mat4.inv` is one integer formula on the pair for every invertible
matrix, ``(e / d)^-1 = d adj(e) / det(e)``, with no division.
:meth:`Mat4.symplectic_inv`, the signed block transpose ``-J m^T J``, costs no
arithmetic and is the inverse only of an m with ``m J m^T = J``, which its
callers must vouch for.  ``Mat4.identity()`` is one shared constant.

There is no floating point anywhere in this module: divisibility
patterns such as ``p^2 | x`` or ``x in (1/p)Z`` are meaningless after
rounding.  Both matrix types are immutable values; all operations
return fresh objects, so certificate replay is deterministic and the
types are safe to share between threads.

Integer powers ``m ** n`` of both types run :func:`repeated_squaring`, the
one square-and-multiply loop, which ``CertBuilder.power`` runs over
certificate nodes too.  No package path takes a general power or inverse:
a generator's power is ``generators.times_power`` over
:meth:`Mat4.times_shears`, the sampler writes its level-p shears, and each
4x4 inverse is :meth:`Mat4.symplectic_inv`, so no package module calls
:meth:`Mat4.inv` or ``**``; tests and demos do.

The interchange format for matrices is a row-major list of lists of
strings, each string a base-10 integer or a reduced ``num/den``
fraction with denominator at least 2.  Only this canonical spelling is
read (``-0``, ``0/1``, ``5/1`` and a trailing newline are refused), so
round-trips are bit-exact.  :func:`entry_strings` is the one writer
(``mat4_to_lists`` and ``mat2_to_lists`` reshape it): an integer matrix
is one C-level ``map(str, ...)``, a fraction entry is reduced by its
own gcd and written by ``str``, and if ``str`` refuses an entry past
the int/str conversion limit (4,300 digits by default), every entry
goes through ``_int_to_str``, the same digits written in pieces.  The
one other writer of entry text is the ``%s`` of ``certificates.serialize``,
which takes an integer matrix's stored ints as they are: ``%s`` is
``str``, in C.  A fraction, and any entry past the limit, still goes
through :func:`entry_strings`.  A
4 x 4 matrix is read in one pass when it can be: its rows, each a list
of four, are unpacked once and joined into one string (``,`` in a row,
``;`` between rows) that one match checks against 16 canonical
integers, so a separator inside an entry fails, and one
``map(int, ...)`` reads.  Any other matrix -- 2 x 2, of another shape,
with a fraction, a non-canonical or non-string entry, or an entry past
the limit -- is read entry by entry, the one source of fractions and of
every :class:`ParseError` text.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .errors import (
    BothZero,
    NotUnimodular,
    ParseError,
    ShapeAssertionFailed,
    SingularMatrix,
)

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
    """Immutable 2x2 integer matrix; any other entry is a ``TypeError``."""

    rows: tuple[tuple[int, int], tuple[int, int]]

    def __init__(self, rows) -> None:  # dataclass keeps an __init__ the class defines
        (a, b), (c, d) = rows
        object.__setattr__(self, "rows", ((index(a), index(b)), (index(c), index(d))))

    @staticmethod
    def of(a: int, b: int, c: int, d: int) -> "Mat2":
        m = object.__new__(Mat2)
        object.__setattr__(m, "rows", ((index(a), index(b)), (index(c), index(d))))
        return m

    @staticmethod
    def identity() -> "Mat2":
        return Mat2.of(1, 0, 0, 1)

    def __getitem__(self, i: int) -> tuple[int, int]:
        return self.rows[i]

    def __mul__(self, other: "Mat2") -> "Mat2":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Mat2.of(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

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
        return repeated_squaring(self, n, Mat2.__mul__, Mat2.inv, Mat2.identity)

    def is_identity(self) -> bool:
        return self.rows == ((1, 0), (0, 1))

    def scaled(self) -> tuple[int, tuple[int, int, int, int]]:
        """``(1, (a, b, c, d))``: the entries are integers already."""
        return 1, self.rows[0] + self.rows[1]


class Mat4:
    """Immutable 4x4 matrix over exact rationals, stored as the reduced
    pair ``(d, e)`` of the module docstring.  ``Mat4(rows)`` takes 4 rows
    of 4 ``numbers.Rational`` (``int``, ``Fraction``); a ``str``,
    ``float`` or ``Decimal`` entry is a ``TypeError``."""

    __slots__ = ("_d", "_e")

    def __init__(self, rows) -> None:
        e = tuple(map(tuple, rows))
        if len(e) != 4 or any(len(r) != 4 for r in e):
            raise ValueError("Mat4 needs 4 rows of 4 entries")
        flat = e[0] + e[1] + e[2] + e[3]
        for x in flat:
            if not isinstance(x, numbers.Rational):
                raise TypeError(f"Mat4 entries must be exact rationals, not {type(x).__name__}")
        self._d, self._e = _scale([(x.numerator, x.denominator) for x in flat])

    @staticmethod
    def from_pair(d: int, e: tuple[int, ...]) -> "Mat4":
        """The ``Mat4`` of ``e / d``, the inverse of :meth:`scaled`: d > 0
        and e a flat row-major tuple of 16 ints, divided by ``gcd(d, *e)``;
        any other length of e, or a d below 1, is a ``ValueError``."""
        if len(e) != 16:
            raise ValueError(f"Mat4.from_pair needs 16 flat entries, not {len(e)}")
        if d < 1:  # (-d, -e) would be a second pair of one matrix
            raise ValueError(f"Mat4.from_pair needs a denominator d > 0, not {d}")
        if d != 1:
            g = math.gcd(d, *e)
            if g != 1:
                d //= g
                e = tuple([x // g for x in e])
        return _pair(d, e)

    @staticmethod
    def identity() -> "Mat4":
        return _IDENTITY4

    @staticmethod
    def diagonal(d1, d2, d3, d4) -> "Mat4":
        return Mat4([[d1, 0, 0, 0], [0, d2, 0, 0], [0, 0, d3, 0], [0, 0, 0, d4]])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as 4 rows of ``Fraction`` objects, built on each read."""
        d, e = self._d, self._e
        return tuple(tuple(Fraction(x, d) for x in e[k:k + 4]) for k in (0, 4, 8, 12))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat4):
            return NotImplemented
        return self._d == other._d and self._e == other._e

    def __hash__(self) -> int:
        return hash((self._d, self._e))

    def __repr__(self) -> str:
        return f"Mat4.from_pair({self._d!r}, {self._e!r})"

    def __mul__(self, other: "Mat4") -> "Mat4":
        """The product, written out (module docstring)."""
        a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = self._e
        b00, b01, b02, b03, b10, b11, b12, b13, b20, b21, b22, b23, b30, b31, b32, b33 = other._e
        e = (
            a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30, a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31,
            a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32, a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33,
            a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30, a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31,
            a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32, a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33,
            a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30, a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31,
            a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32, a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33,
            a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30, a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31,
            a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32, a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33,
        )
        d = self._d * other._d
        return _pair(1, e) if d == 1 else Mat4.from_pair(d, e)

    def times_shears(self, shears: dict[tuple[int, int], int], n: int) -> "Mat4":
        """``self (1 + n N)``, N the 1-based ``{(i, j): x}`` with no j an i: shears on one copy."""
        e = list(self._e)
        for (i, j), x in shears.items():
            x *= n
            e[j - 1] += x * e[i - 1]
            e[j + 3] += x * e[i + 3]
            e[j + 7] += x * e[i + 7]
            e[j + 11] += x * e[i + 11]
        return _pair(self._d, tuple(e))

    def times_j_block(self, which: int, a: int, b: int, c: int, d: int) -> "Mat4":
        """``self`` times the block ``((a, b), (c, d))`` of det 1 on (1,3) if ``which`` is 1, else (2,4)."""
        s0, s1, s2, s3, t0, t1, t2, t3, u0, u1, u2, u3, v0, v1, v2, v3 = self._e  # rows 1..4
        if which == 1:
            e = (a * s0 + c * s2, s1, b * s0 + d * s2, s3, a * t0 + c * t2, t1, b * t0 + d * t2, t3,
                 a * u0 + c * u2, u1, b * u0 + d * u2, u3, a * v0 + c * v2, v1, b * v0 + d * v2, v3)
        else:
            e = (s0, a * s1 + c * s3, s2, b * s1 + d * s3, t0, a * t1 + c * t3, t2, b * t1 + d * t3,
                 u0, a * u1 + c * u3, u2, b * u1 + d * u3, v0, a * v1 + c * v3, v2, b * v1 + d * v3)
        return _pair(self._d, e)

    def inv(self) -> "Mat4":
        """``(e / d)^-1 = d adj(e) / det(e)``, both expanded by Laplace on
        the 2x2 minors of rows 1-2 and of rows 3-4; det 0 raises
        :class:`SingularMatrix`."""
        a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = self._e
        # s: minors of rows 1-2, c: of rows 3-4, on the column pairs
        # 01, 02, 03, 12, 13, 23 and 23, 13, 12, 03, 02, 01
        s0, s1, s2 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
        s3, s4, s5 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
        c5, c4, c3 = a22 * a33 - a32 * a23, a21 * a33 - a31 * a23, a21 * a32 - a31 * a22
        c2, c1, c0 = a20 * a33 - a30 * a23, a20 * a32 - a30 * a22, a20 * a31 - a30 * a21
        det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
        if det == 0:
            raise SingularMatrix("4x4 determinant is zero")
        adj = (
            a11 * c5 - a12 * c4 + a13 * c3, a02 * c4 - a01 * c5 - a03 * c3,
            a31 * s5 - a32 * s4 + a33 * s3, a22 * s4 - a21 * s5 - a23 * s3,
            a12 * c2 - a10 * c5 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
            a32 * s2 - a30 * s5 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1,
            a10 * c4 - a11 * c2 + a13 * c0, a01 * c2 - a00 * c4 - a03 * c0,
            a30 * s4 - a31 * s2 + a33 * s0, a21 * s2 - a20 * s4 - a23 * s0,
            a11 * c1 - a10 * c3 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
            a31 * s1 - a30 * s3 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0,
        )
        scale = self._d if det > 0 else -self._d
        if scale != 1:
            adj = tuple([scale * x for x in adj])
        return Mat4.from_pair(abs(det), adj)

    def symplectic_inv(self) -> "Mat4":
        """``-J m^T J = ((D^T, -B^T), (-C^T, A^T))`` for ``m = ((A, B), (C, D))``,
        d unchanged: the inverse iff ``m J m^T = J``, which is not checked."""
        a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = self._e
        return _pair(self._d, (a22, a32, -a02, -a12, a23, a33, -a03, -a13,
                               -a20, -a30, a00, a10, -a21, -a31, a01, a11))

    def __pow__(self, n: int) -> "Mat4":
        return repeated_squaring(self, n, Mat4.__mul__, Mat4.inv, Mat4.identity)

    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(d, e)``: d > 0, e the 16 integer entries of ``d * self``,
        row-major, and ``gcd(d, *e) = 1``."""
        return self._d, self._e

    def entry_bits(self) -> int:
        """Bits of the widest reduced numerator or denominator."""
        d = self._d
        if d == 1:  # a loop: faster than max over map(int.bit_length, ...)
            acc = 1
            for x in self._e:
                acc |= -x if x < 0 else x
            return acc.bit_length()
        acc = 0
        for x in self._e:
            g = math.gcd(x, d)
            acc |= abs(x // g) | (d // g)
        return acc.bit_length()


def _pair(d: int, e: tuple[int, ...]) -> Mat4:
    """The ``Mat4`` of a pair that is already reduced."""
    m = object.__new__(Mat4)
    m._d, m._e = d, e
    return m


def _scale(ratios: list[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """The pair of row-major reduced ``(num, den)`` entries: d is the
    lcm of the denominators, which leaves ``gcd(d, *e) = 1``."""
    d = math.lcm(*[q for _, q in ratios])
    return d, tuple([num * (d // q) for num, q in ratios])


_IDENTITY4 = Mat4.diagonal(1, 1, 1, 1)


def repeated_squaring(base, n: int, mul, inv, one):
    """``base ** n`` by repeated squaring, for any ``base`` with the product
    ``mul(x, y)``, the inverse ``inv(x)`` and the unit ``one()``: ``base``
    is inverted once when n < 0, no product by the unit is formed, and
    the last square, which nothing would use, is skipped."""
    if n == 0:
        return one()
    if n < 0:
        base, n = inv(base), -n
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


# ---------------------------------------------------------------------------
# interchange format: strings "n" or "num/den", reduced, positive denominator
# ---------------------------------------------------------------------------

# canonical only: no "-0", no leading zeros; a denominator of 1 is refused below
_INT = "(?:0|-?[1-9][0-9]*)"
_ENTRY_RE = re.compile(rf"({_INT})(?:/([1-9][0-9]*))?")
# 4 x 4 canonical integers, "," between entries and ";" between rows
_INT_ROWS_RE = re.compile(";".join([",".join([_INT] * 4)] * 4))


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


def _ratio_to_str(num: int, den: int, write=_int_to_str) -> str:
    """The entry string of ``num / den`` in lowest terms, den > 0; ``write`` writes each integer."""
    g = math.gcd(num, den)
    return write(num // g) if den == g else f"{write(num // g)}/{write(den // g)}"


def _ratio_from_str(s: str, where: str = "", integral: bool = False) -> tuple[int, int]:
    """The reduced ``(num, den)`` of an entry string written as
    :func:`_ratio_to_str` writes it; any other spelling of the same
    number (``-0``, ``0/1``, ``n/1``, ``2/4``) is a :class:`ParseError`,
    so round-trips are bit-exact.  With ``integral`` a fraction is a
    :class:`ParseError` too."""
    if not isinstance(s, str):
        raise ParseError(f"entry {where or repr(s)} must be a string")
    m = _ENTRY_RE.fullmatch(s)
    if not m:
        raise ParseError(f"bad scalar {s!r} {where}".rstrip())
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError as exc:  # past the int/str conversion limit
        raise ParseError(f"entry too long to read {where}".rstrip() + f": {exc}") from exc
    if m.group(2) and (den == 1 or math.gcd(num, den) != 1):
        raise ParseError(f"scalar {s!r} is not canonical {where}".rstrip())
    if integral and den != 1:
        raise ParseError(f"entry {where} must be an integer")
    return num, den


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


def entry_strings(m) -> tuple[str, ...]:
    """The row-major entry strings of a ``Mat4`` or ``Mat2`` (module docstring)."""
    d, e = m.scaled()
    try:
        return tuple(map(str, e)) if d == 1 else tuple([_ratio_to_str(x, d, str) for x in e])
    except ValueError:  # past the int/str conversion limit
        return tuple([_ratio_to_str(x, d, _int_to_str) for x in e])


def mat4_to_lists(m: Mat4) -> list[list[str]]:
    s = entry_strings(m)
    return [list(s[0:4]), list(s[4:8]), list(s[8:12]), list(s[12:16])]


def _read_rows(obj, n: int) -> tuple[int, tuple[int, ...]]:
    """The pair ``(d, e)``, e the n * n entries flat and row-major, of an
    n x n list of entry strings, read as the module docstring says; n = 2
    reads integers only.  Entry by entry, the location ``at (i,j)`` is
    formatted only for a row that fails: the row is read again with it,
    to raise the located error."""
    if not isinstance(obj, list) or len(obj) != n:
        raise ParseError(f"matrix must be a list of {n} rows")
    if n == 4:
        a, b, c, d = obj
        if type(a) is type(b) is type(c) is type(d) is list and len(a) == len(b) == len(c) == len(d) == 4:
            try:
                if _INT_ROWS_RE.fullmatch(f"{','.join(a)};{','.join(b)};{','.join(c)};{','.join(d)}"):
                    return 1, tuple(map(int, (*a, *b, *c, *d)))
            except (TypeError, ValueError):  # a non-str entry; past the digit limit
                pass
    integral = n == 2
    ratios = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries")
        try:
            ratios += [_ratio_from_str(x, "", integral) for x in row]
        except ParseError:
            for j, x in enumerate(row):
                _ratio_from_str(x, f"at ({i},{j})", integral)
            raise
    return _scale(ratios)


def mat4_from_lists(obj) -> Mat4:
    return _pair(*_read_rows(obj, 4))


def mat2_to_lists(m: Mat2) -> list[list[str]]:
    s = entry_strings(m)
    return [list(s[:2]), list(s[2:])]


def mat2_from_lists(obj) -> Mat2:
    return Mat2.of(*_read_rows(obj, 2)[1])
