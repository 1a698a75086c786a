"""Symplectic forms, congruence patterns, embeddings and vector classes.

The package works with two 4x4 symplectic forms,

    J      = (( 0, I),(-I, 0))          with I = diag(1, 1),
    Lambda = (( 0, F),(-F, 0))          with F = diag(1, p),

and with membership predicates for the groups cut out by entrywise
congruence conditions relative to those forms.  Conventions:

* Matrices act on *row* vectors from the right, so the symplectic
  condition reads ``g * form * g^T == form``.  For J the transposed
  condition defines the same group; for Lambda it does not, and the row
  convention is the one under which ``G~ = R G R^{-1}`` holds with
  ``R = diag(1,1,1,p)`` and under which shortness of a row vector is
  invariant under right multiplication.

* ``symplectic_check`` never forms the product ``g * form * g^T``.
  That product is antisymmetric like the form, so it equals the form
  iff its six entries above the diagonal do, and entry (i, j) is the
  form's pairing of rows i and j: ``sum f_ab (u_a v_b - u_b v_a)`` over
  the nonzero ``f_ab`` with a < b (two terms for J and for Lambda).
  The pairings run on the integers ``D * g``, D the lcm of g's
  denominators (1 except in gamma0_1p), against ``D^2 * form``.
  :class:`SymplecticForm` refuses a matrix that is not antisymmetric,
  so this is always the whole condition.

* The congruence predicates test integrality and the congruence
  pattern first, as remainders of ``g_ij - delta_ij``, and run the
  symplectic test only on matrices that pass.  The verdict is the same
  conjunction in either order; a non-member usually fails on a
  remainder, which is cheaper than the pairings.

* ``p`` must be an odd prime below 3317044064679887385961981, the
  smallest strong pseudoprime to the bases 2..41 of :func:`is_prime`.

* A nonzero integer row vector ``v`` is *short* when some integer
  vector ``w`` satisfies ``v Lambda w^T = 1``, equivalently when
  ``gcd(v1, p*v2, v3, p*v4) = 1``; otherwise it is *long*.

The eight predicates (plus plain SL(2,Z)), with ``g`` the candidate:

=================  ====================================================
gamma_1p           integral, symplectic for J, ``g - 1`` entrywise in
                   ((Z,Z,Z,pZ),(pZ,pZ,pZ,p^2 Z),(Z,Z,Z,pZ),(Z,Z,Z,pZ))
gamma0_1p          symplectic for J over Q, ``g`` entrywise in
                   ((Z,Z,Z,pZ),(pZ,Z,pZ,pZ),(Z,Z,Z,pZ),(Z,(1/p)Z,Z,Z))
gamma_tilde_1p     integral, symplectic for Lambda, rows 2 and 4
                   congruent to (0,1,0,0) and (0,0,0,1) mod p
gamma_p2           integral, symplectic for J, congruent to 1 mod p^2
sp4z_j             integral, symplectic for J
sp_lambda_z        integral, symplectic for Lambda
sl2z               2x2 integral, determinant 1
gamma1_of_p        2x2, det 1, shape ((ap+1, bp),(cp, dp+1))
gamma1prime_p2     2x2, det 1, ``g - 1`` in ((p^2 Z, pZ),(p^3 Z, p^2 Z))
=================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import BadPrime, NotUnimodular, ShapeAssertionFailed, ZeroVector
from .matrices import Mat2, Mat4, ext_gcd


class GroupLabel(str, Enum):
    SP4Z_J = "sp4z_j"
    SP_LAMBDA_Z = "sp_lambda_z"
    GAMMA_1P = "gamma_1p"
    GAMMA0_1P = "gamma0_1p"
    GAMMA_TILDE_1P = "gamma_tilde_1p"
    GAMMA_P2 = "gamma_p2"
    SL2Z = "sl2z"
    GAMMA1_OF_P = "gamma1_of_p"
    GAMMA1PRIME_P2 = "gamma1prime_p2"


TWO_BY_TWO_LABELS = frozenset(
    {GroupLabel.SL2Z, GroupLabel.GAMMA1_OF_P, GroupLabel.GAMMA1PRIME_P2}
)


class VectorClass(Enum):
    SHORT = "short"
    LONG = "long"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the smallest strong pseudoprime to every base above (OEIS A014233)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41: deterministic for n < _MR_BOUND,
    a probable-prime test at and above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    """Return p if it is an odd prime below _MR_BOUND, else raise BadPrime."""
    if isinstance(p, int) and p >= _MR_BOUND:
        raise BadPrime(f"primality is proven only below {_MR_BOUND}, got {p}")
    if not isinstance(p, int) or p % 2 == 0 or not is_prime(p):
        raise BadPrime(f"p must be an odd prime, got {p!r}")
    return p


@dataclass(frozen=True)
class SymplecticForm:
    """An antisymmetric 4x4 form, either J (det 1) or Lambda (det p^2).

    Construction rejects a matrix that is not antisymmetric, which is
    what makes :func:`symplectic_check`'s six row pairings the whole
    symplectic condition."""

    matrix: Mat4
    # the form scaled to integers: nonzero (a, b, F_ab) above the diagonal,
    # and F itself, with F = E * matrix for E the lcm of its denominators
    _terms: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)
    _scaled: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.matrix != -self.matrix.transpose():
            raise ValueError("a symplectic form must be antisymmetric")
        _, scaled = _scaled_numerators(self.matrix)
        terms = tuple(
            (a, b, scaled[a][b]) for a in range(4) for b in range(a + 1, 4) if scaled[a][b]
        )
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_scaled", scaled)

    @staticmethod
    def standard() -> "SymplecticForm":
        return SymplecticForm(
            Mat4.from_rows(
                [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
            )
        )

    @staticmethod
    def polarised(p: int) -> "SymplecticForm":
        require_odd_prime(p)
        return SymplecticForm(
            Mat4.from_rows(
                [[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]]
            )
        )


def _scaled_numerators(m: Mat4) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(D, D*m)`` with D the lcm of m's denominators, so D*m is integral."""
    d = math.lcm(*(x.denominator for row in m.rows for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m.rows)


def symplectic_check(m: Mat4, form: SymplecticForm) -> bool:
    """True iff ``m`` preserves the form under the row convention.

    Compares the form's pairings of the six row pairs (i < j) of the
    integers ``D*m`` with ``D^2 f_ij``, as the module docstring explains;
    f enters scaled to integers on both sides."""
    d, rows = _scaled_numerators(m)
    d2, terms, scaled = d * d, form._terms, form._scaled
    for i in range(3):
        u = rows[i]
        for j in range(i + 1, 4):
            v = rows[j]
            pairing = 0
            for a, b, f in terms:
                pairing += f * (u[a] * v[b] - u[b] * v[a])
            if pairing != d2 * scaled[i][j]:
                return False
    return True


_J = SymplecticForm.standard()

# Lambda forms kept built; p can come from user input, so the cache is bounded
_FORM_CACHE_SIZE = 256
_polarised = lru_cache(maxsize=_FORM_CACHE_SIZE)(SymplecticForm.polarised)


def _congruent(m: Mat4, moduli) -> bool:
    """True iff every entry is an integer with ``m_ij - delta_ij``
    divisible by ``moduli[i][j]``; slots whose modulus is None are left
    to the caller."""
    for i, (row, mods) in enumerate(zip(m.rows, moduli)):
        for j, (x, n) in enumerate(zip(row, mods)):
            if n is None:
                continue
            if x.denominator != 1 or (x.numerator - (i == j)) % n:
                return False
    return True


def _member_gamma_1p(m: Mat4, p: int) -> bool:
    moduli = (
        (1, 1, 1, p),
        (p, p, p, p * p),
        (1, 1, 1, p),
        (1, 1, 1, p),
    )
    return _congruent(m, moduli) and symplectic_check(m, _J)


def _member_gamma0_1p(m: Mat4, p: int) -> bool:
    # diagonal moduli are 1, so m - 1 and m have the same residues here
    moduli = (
        (1, 1, 1, p),
        (p, 1, p, p),
        (1, 1, 1, p),
        (1, None, 1, 1),
    )
    if m[3][1].denominator not in (1, p):  # the single (1/p)Z slot
        return False
    return _congruent(m, moduli) and symplectic_check(m, _J)


def _member_gamma_tilde_1p(m: Mat4, p: int) -> bool:
    # rows 2 and 4 congruent to (0,1,0,0) and (0,0,0,1) mod p
    moduli = ((1,) * 4, (p,) * 4, (1,) * 4, (p,) * 4)
    return _congruent(m, moduli) and symplectic_check(m, _polarised(p))


def _member_gamma_p2(m: Mat4, p: int) -> bool:
    p2 = p * p
    return _congruent(m, ((p2,) * 4,) * 4) and symplectic_check(m, _J)


def _member_gamma1_of_p(q: Mat2, p: int) -> bool:
    (a, b), (c, d) = q.rows
    return (
        q.det() == 1
        and (a - 1) % p == 0
        and b % p == 0
        and c % p == 0
        and (d - 1) % p == 0
    )


def _member_gamma1prime_p2(q: Mat2, p: int) -> bool:
    (a, b), (c, d) = q.rows
    p2 = p * p
    return (
        q.det() == 1
        and (a - 1) % p2 == 0
        and b % p == 0
        and c % (p2 * p) == 0
        and (d - 1) % p2 == 0
    )


def member(m: Mat2 | Mat4, label: GroupLabel, p: int) -> bool:
    """Exact membership test for the labelled group at the odd prime p.

    Both the symplectic/determinant condition and the congruence
    pattern are checked; malformed input simply fails the predicate.
    """
    label = GroupLabel(label)
    require_odd_prime(p)
    if label in TWO_BY_TWO_LABELS:
        if not isinstance(m, Mat2):
            raise TypeError(f"{label.value} is a 2x2 predicate")
        if label is GroupLabel.SL2Z:
            return m.det() == 1
        if label is GroupLabel.GAMMA1_OF_P:
            return _member_gamma1_of_p(m, p)
        return _member_gamma1prime_p2(m, p)
    if not isinstance(m, Mat4):
        raise TypeError(f"{label.value} is a 4x4 predicate")
    if label is GroupLabel.SP4Z_J:
        return m.is_integral() and symplectic_check(m, _J)
    if label is GroupLabel.SP_LAMBDA_Z:
        return m.is_integral() and symplectic_check(m, _polarised(p))
    if label is GroupLabel.GAMMA_1P:
        return _member_gamma_1p(m, p)
    if label is GroupLabel.GAMMA0_1P:
        return _member_gamma0_1p(m, p)
    if label is GroupLabel.GAMMA_TILDE_1P:
        return _member_gamma_tilde_1p(m, p)
    return _member_gamma_p2(m, p)


def j1_embed(a: Mat2) -> Mat4:
    """Embed SL(2,Z) along coordinates (1,3); the tilde and plain
    embeddings coincide entrywise."""
    if a.det() != 1:
        raise NotUnimodular("j1 payload must have determinant 1")
    (x, y), (z, w) = a.rows
    return Mat4.from_rows(
        [[x, 0, y, 0], [0, 1, 0, 0], [z, 0, w, 0], [0, 0, 0, 1]]
    )


def j2_embed(q: Mat2, p: int, tilde: bool = False) -> Mat4:
    """Embed a 2x2 unimodular matrix along coordinates (2,4).

    Plain coordinates place ``(a, p*b, c/p, d)``; tilde coordinates
    place ``(a, b, c, d)``.  For plain coordinates the result is
    integral only when p divides c, but non-integral images are still
    valid elements of the rational group gamma0_1p.
    """
    require_odd_prime(p)
    if q.det() != 1:
        raise NotUnimodular("j2 payload must have determinant 1")
    (a, b), (c, d) = q.rows
    if tilde:
        return Mat4.from_rows(
            [[1, 0, 0, 0], [0, a, 0, b], [0, 0, 1, 0], [0, c, 0, d]]
        )
    return Mat4.from_rows(
        [[1, 0, 0, 0], [0, a, 0, p * b], [0, 0, 1, 0], [0, Fraction(c, p), 0, d]]
    )


def r_conjugate(m: Mat4, p: int, inverse: bool = False) -> Mat4:
    """Return ``R m R^{-1}`` (or ``R^{-1} m R`` when ``inverse``)."""
    require_odd_prime(p)
    # conjugation by diag(1,1,1,p) scales row 4 by p and column 4 by 1/p
    s = Fraction(p) if not inverse else Fraction(1, p)
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            x = m[i][j]
            if i == 3:
                x = x * s
            if j == 3:
                x = x / s
            row.append(x)
        rows.append(tuple(row))
    return Mat4(tuple(rows))


def vector_class(v: tuple[int, int, int, int], p: int) -> VectorClass:
    """Classify a nonzero integer row 4-vector as short or long.

    ``v Lambda = (-v3, -p*v4, v1, p*v2)``, and an integral functional
    takes the value 1 iff the gcd of its coefficients is 1, so the test
    is ``gcd(v1, p*v2, v3, p*v4) == 1``.
    """
    require_odd_prime(p)
    v1, v2, v3, v4 = (int(x) for x in v)
    if v1 == v2 == v3 == v4 == 0:
        raise ZeroVector("cannot classify the zero vector")
    g = math.gcd(v1, p * v2, v3, p * v4)
    return VectorClass.SHORT if g == 1 else VectorClass.LONG


def short_witness(v: tuple[int, int, int, int], p: int) -> tuple[int, int, int, int]:
    """Construct ``w`` with ``v Lambda w^T = 1`` for a short vector.

    Independent of :func:`vector_class`: builds w from extended gcds and
    checks the defining identity, raising if v is long.
    """
    require_odd_prime(p)
    v1, v2, v3, v4 = (int(x) for x in v)
    # v Lambda w^T = -v3*w1 - p*v4*w2 + v1*w3 + p*v2*w4
    coeffs = (-v3, -p * v4, v1, p * v2)
    g, acc = 0, [0, 0, 0, 0]
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if g == 0:
            g = abs(c)
            acc = [0, 0, 0, 0]
            acc[i] = 1 if c > 0 else -1
        else:
            g2, x, y = ext_gcd(g, c)
            acc = [x * t for t in acc]
            acc[i] += y
            g = g2
    if g == 0:
        raise ZeroVector("cannot witness the zero vector")
    if g != 1:
        raise ValueError(f"vector {v} is long (gcd {g})")
    if sum(c * t for c, t in zip(coeffs, acc)) != 1:
        raise ShapeAssertionFailed(f"witness {acc} does not pair to 1 with {v}")
    return (acc[0], acc[1], acc[2], acc[3])
