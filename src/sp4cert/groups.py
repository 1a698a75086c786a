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
  invariant under right multiplication.  :func:`r_conjugate` forms
  ``R m R^{-1}`` on the pair of ``m.scaled()``, and the plain
  :func:`j2_embed` image is the R^-1-conjugate of the tilde one.

* ``symplectic_check`` never forms the product ``g * form * g^T``.
  That product is antisymmetric like the form, so it equals the form
  iff its six entries above the diagonal do, and entry (i, j) is the
  pairing of rows i and j, ``f1 (u0 v2 - u2 v0) + f2 (u1 v3 - u3 v1)``
  for a form ``((0, F), (-F, 0))`` with ``F = diag(f1, f2)``, the only
  shape :class:`SymplecticForm` admits.  The pairings run on the
  rows of ``g.scaled() = (d, e)``, e the 16 integer entries of
  ``d * g`` in one flat row-major tuple, against ``d^2 * form``.

* Every group is written down once, as data: :func:`_pattern` lays the
  table below out flat for each denominator d in {1, p}, and
  :func:`member` maps ``mod`` over the same flat e against it in one
  pass.  It refuses any other d, compares the remainders of e modulo
  ``d n_ij`` with ``d delta_ij mod d n_ij`` (which also demands an
  integral entry; the (1/p)Z slot has modulus 1), and runs det 1 or the
  pairings only on matrices that pass; a non-member usually fails on a
  remainder.

* ``p`` must be an odd prime below 3317044064679887385961981, the
  smallest strong pseudoprime to the bases 2..41 of :func:`is_prime`.

* A nonzero integer row vector ``v`` is *short* when some integer
  vector ``w`` satisfies ``v Lambda w^T = 1``, equivalently when
  ``gcd(v1, p*v2, v3, p*v4) = 1``; otherwise it is *long*.

The nine predicates, with ``g`` the candidate; each modulus divides
``g_ij - delta_ij`` (``Z`` is modulus 1), and ``(1/p)Z`` is the one
entry allowed the denominator p:

=================  ====================================================  ========
gamma_1p           ((Z,Z,Z,pZ),(pZ,pZ,pZ,p^2 Z),(Z,Z,Z,pZ),(Z,Z,Z,pZ))  J
gamma0_1p          ((Z,Z,Z,pZ),(pZ,Z,pZ,pZ),(Z,Z,Z,pZ),(Z,(1/p)Z,Z,Z))   J
gamma_tilde_1p     ((Z,Z,Z,Z),(pZ,pZ,pZ,pZ),(Z,Z,Z,Z),(pZ,pZ,pZ,pZ))     Lambda
gamma_p2           p^2 Z in every entry                                  J
sp4z_j             Z in every entry                                      J
sp_lambda_z        Z in every entry                                      Lambda
sl2z               2x2, ((Z,Z),(Z,Z))                                    det 1
gamma1_of_p        2x2, ((pZ,pZ),(pZ,pZ))                                det 1
gamma1prime_p2     2x2, ((p^2 Z,pZ),(p^3 Z,p^2 Z))                       det 1
=================  ====================================================  ========

So gamma_tilde_1p's rows 2 and 4 are (0,1,0,0) and (0,0,0,1) mod p,
and gamma0_1p's symplectic condition holds over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import mod, mul

from .errors import BadPrime, DomainError, NotUnimodular, ShapeAssertionFailed, ZeroVector
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
    """A form ``((0, F), (-F, 0))``, F diagonal: J (F = 1) or Lambda
    (F = diag(1, p)).  Construction rejects any other matrix, which is
    what makes :func:`symplectic_check`'s six pairings the whole condition."""

    matrix: Mat4
    # (f1, f2): the diagonal of F in matrix.scaled()
    _f: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _, s = self.matrix.scaled()
        f1, f2 = s[2], s[7]
        if s != (0, 0, f1, 0, 0, 0, 0, f2, -f1, 0, 0, 0, 0, -f2, 0, 0):
            raise ValueError("a symplectic form must be ((0, F), (-F, 0)) with F diagonal")
        object.__setattr__(self, "_f", (f1, f2))

    @staticmethod
    def standard() -> "SymplecticForm":
        return SymplecticForm(
            Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        )

    @staticmethod
    def polarised(p: int) -> "SymplecticForm":
        require_odd_prime(p)
        return SymplecticForm(
            Mat4([[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]])
        )


def symplectic_check(m: Mat4, form: SymplecticForm) -> bool:
    """True iff ``m`` preserves the form under the row convention: the six
    row pairings of ``m.scaled()`` against ``d^2`` times the form's entries."""
    d, (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, e0, e1, e2, e3) = m.scaled()
    f1, f2 = form._f
    d2 = d * d
    return (
        f1 * (a0 * b2 - a2 * b0) + f2 * (a1 * b3 - a3 * b1) == 0
        and f1 * (a0 * c2 - a2 * c0) + f2 * (a1 * c3 - a3 * c1) == d2 * f1
        and f1 * (a0 * e2 - a2 * e0) + f2 * (a1 * e3 - a3 * e1) == 0
        and f1 * (b0 * c2 - b2 * c0) + f2 * (b1 * c3 - b3 * c1) == 0
        and f1 * (b0 * e2 - b2 * e0) + f2 * (b1 * e3 - b3 * e1) == d2 * f2
        and f1 * (c0 * e2 - c2 * e0) + f2 * (c1 * e3 - c3 * e1) == 0
    )


_J = SymplecticForm.standard()

# (label, p) patterns kept built; p can come from user input, so the cache is bounded
_PATTERN_CACHE_SIZE = 256


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern(label: GroupLabel, p: int):
    """``(tables, form)``: ``tables[d]`` for d in {1, p} is the flat
    ``(moduli, residues)`` of the module table for the rows of ``d g``,
    ``d n_ij`` (1 in the (1/p)Z slot) and ``d delta_ij mod d n_ij``;
    ``form`` is J, Lambda, or None for the 2x2 groups (det 1)."""
    p2 = p * p
    z, zp = (1, 1, 1, 1), (p, p, p, p)
    lam = SymplecticForm.polarised(p)
    moduli, form = {
        GroupLabel.GAMMA_1P: (((1, 1, 1, p), (p, p, p, p2), (1, 1, 1, p), (1, 1, 1, p)), _J),
        GroupLabel.GAMMA0_1P: (((1, 1, 1, p), (p, 1, p, p), (1, 1, 1, p), (1, None, 1, 1)), _J),
        GroupLabel.GAMMA_TILDE_1P: ((z, zp, z, zp), lam),
        GroupLabel.GAMMA_P2: (((p2,) * 4,) * 4, _J),
        GroupLabel.SP4Z_J: ((z, z, z, z), _J),
        GroupLabel.SP_LAMBDA_Z: ((z, z, z, z), lam),
        GroupLabel.SL2Z: (((1, 1), (1, 1)), None),
        GroupLabel.GAMMA1_OF_P: (((p, p), (p, p)), None),
        GroupLabel.GAMMA1PRIME_P2: (((p2, p), (p2 * p, p2)), None),
    }[GroupLabel(label)]
    step = len(moduli) + 1  # the diagonal is every step-th flat entry
    tables = {}
    for d in (1, p):
        flat = tuple(1 if n is None else d * n for row in moduli for n in row)
        tables[d] = flat, tuple(0 if k % step else d % n for k, n in enumerate(flat))
    return tables, form


def member(m: Mat2 | Mat4, label: GroupLabel, p: int) -> bool:
    """Exact membership test for the labelled group at the odd prime p.

    Reads :func:`_pattern` against ``(d, e) = m.scaled()`` in one
    pass: d in {1, p}, the remainders of the flat entries e, then det 1 or
    the symplectic condition; malformed input fails the predicate.
    """
    require_odd_prime(p)
    tables, form = _pattern(label, p)
    if not isinstance(m, Mat2 if form is None else Mat4):
        raise TypeError(f"{GroupLabel(label).value} is a {'2x2' if form is None else '4x4'} predicate")
    d, e = m.scaled()
    table = tables.get(d)
    if table is None:
        return False
    moduli, residues = table
    if tuple(map(mod, e, moduli)) != residues:
        return False
    return m.det() == 1 if form is None else symplectic_check(m, form)


def times_embedding(m: Mat4, q: Mat2, which: int) -> Mat4:
    """``m j_which(q)`` in tilde coordinates: columns (1,3) or (2,4) of m times q."""
    (a, b), (c, d) = q.rows
    if a * d - b * c != 1:
        raise NotUnimodular(f"j{which} payload must have determinant 1")
    return m.times_j_block(which, a, b, c, d)


def j1_embed(a: Mat2) -> Mat4:
    """Embed SL(2,Z) along coordinates (1,3); the tilde and plain
    embeddings coincide entrywise."""
    return times_embedding(Mat4.identity(), a, 1)


def j2_embed(q: Mat2, p: int) -> Mat4:
    """Embed a 2x2 unimodular matrix along coordinates (2,4) in plain
    coordinates: ``(a, p*b, c/p, d)``, the R^-1-conjugate of the tilde
    image ``times_embedding(Mat4.identity(), q, 2)``.  The result is
    integral only when p divides c, but non-integral images are still
    valid elements of the rational group gamma0_1p.
    """
    require_odd_prime(p)
    return r_conjugate(times_embedding(Mat4.identity(), q, 2), p, inverse=True)


def r_conjugate(m: Mat4, p: int, inverse: bool = False) -> Mat4:
    """Return ``R m R^{-1}`` (or ``R^{-1} m R`` when ``inverse``).

    Works on the pair ``(d, e)`` of ``m.scaled()``: ``p R m R^{-1}`` is
    ``R e (p R^{-1}) / d``, so the new pair is ``p d`` over e with row 4
    and columns 1..3 times p (rows 1..3 and column 4 when ``inverse``),
    reduced by one gcd."""
    require_odd_prime(p)
    d, e = m.scaled()
    q = p * p
    factors = (p, p, p, q) * 3 + (1, 1, 1, p) if inverse else (p, p, p, 1) * 3 + (q, q, q, p)
    return Mat4.from_pair(p * d, tuple(map(mul, factors, e)))


def _integer_row(v) -> tuple[int, ...]:
    """The entries of ``v`` as ints; a non-integer entry is a :class:`DomainError`."""
    row = tuple(int(x) for x in v)
    if row != tuple(v):
        raise DomainError(f"vector ({', '.join(map(str, v))}) has a non-integer entry")
    return row


def vector_class(v: tuple[int, int, int, int], p: int) -> VectorClass:
    """Classify a nonzero integer row 4-vector as short or long; a
    non-integer entry is a :class:`DomainError`.

    ``v Lambda = (-v3, -p*v4, v1, p*v2)``, and an integral functional
    takes the value 1 iff the gcd of its coefficients is 1, so the test
    is ``gcd(v1, p*v2, v3, p*v4) == 1``.
    """
    require_odd_prime(p)
    v1, v2, v3, v4 = _integer_row(v)
    if v1 == v2 == v3 == v4 == 0:
        raise ZeroVector("cannot classify the zero vector")
    g = math.gcd(v1, p * v2, v3, p * v4)
    return VectorClass.SHORT if g == 1 else VectorClass.LONG


def short_witness(v: tuple[int, int, int, int], p: int) -> tuple[int, int, int, int]:
    """Construct ``w`` with ``v Lambda w^T = 1`` for a short vector.

    Independent of :func:`vector_class`: builds w from extended gcds and
    checks the defining identity, raising if v is long.  A non-integer
    entry is a :class:`DomainError`.
    """
    require_odd_prime(p)
    v1, v2, v3, v4 = _integer_row(v)
    # v Lambda w^T = -v3*w1 - p*v4*w2 + v1*w3 + p*v2*w4
    coeffs = (-v3, -p * v4, v1, p * v2)
    g, acc = 0, [0, 0, 0, 0]
    for i, c in enumerate(coeffs):  # at the first nonzero c, ext_gcd(0, c) = (|c|, 0, sign c)
        if c == 0:
            continue
        g, x, y = ext_gcd(g, c)
        acc = [x * t for t in acc]
        acc[i] += y
    if g == 0:
        raise ZeroVector("cannot witness the zero vector")
    if g != 1:
        raise ValueError(f"vector {v} is long (gcd {g})")
    if sum(c * t for c, t in zip(coeffs, acc)) != 1:
        raise ShapeAssertionFailed(f"witness {acc} does not pair to 1 with {v}")
    return (acc[0], acc[1], acc[2], acc[3])
