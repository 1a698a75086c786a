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
  form's pairing of rows i and j: ``sum f_ab (u_a v_b - u_b v_a)`` over
  the nonzero ``f_ab`` with a < b (two terms for J and for Lambda).
  The pairings run on the integer rows e of ``g.scaled() = (d, e)``,
  ``e = d * g`` for d the lcm of g's denominators, against
  ``d^2 * form``.
  :class:`SymplecticForm` refuses a matrix that is not antisymmetric,
  so this is always the whole condition.

* Every group is written down once, as data: :func:`_pattern` maps a
  label and p to ``(moduli, form)``, the table below, and
  :func:`member` reads it on one path, on the same rows e.  It refuses
  d outside {1, p}, tests each congruence as a remainder of
  ``e_ij - d delta_ij`` modulo ``d n_ij`` (which also demands an
  integral entry), and runs det 1 or the pairings only on matrices that
  pass.  The verdict is the same conjunction in either order; a
  non-member usually fails on a remainder, cheaper than the pairings.

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
    """An antisymmetric 4x4 form, either J (det 1) or Lambda (det p^2).

    Construction rejects a matrix that is not antisymmetric, which is
    what makes :func:`symplectic_check`'s six row pairings the whole
    symplectic condition."""

    matrix: Mat4
    # the nonzero (a, b, F_ab) above the diagonal of matrix.scaled()
    _terms: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _, scaled = self.matrix.scaled()
        if any(scaled[a][b] != -scaled[b][a] for a in range(4) for b in range(a, 4)):
            raise ValueError("a symplectic form must be antisymmetric")
        terms = tuple(
            (a, b, scaled[a][b]) for a in range(4) for b in range(a + 1, 4) if scaled[a][b]
        )
        object.__setattr__(self, "_terms", terms)

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
    """True iff ``m`` preserves the form under the row convention.

    Compares the form's pairings of the six row pairs (i < j) of
    ``(d, rows) = m.scaled()`` with ``d^2 f_ij``, as the module
    docstring explains; f enters scaled to integers on both sides."""
    d, rows = m.scaled()
    d2, terms, scaled = d * d, form._terms, form.matrix.scaled()[1]
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

# (label, p) patterns kept built; p can come from user input, so the cache is bounded
_PATTERN_CACHE_SIZE = 256


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _pattern(label: GroupLabel, p: int):
    """``(moduli, form)`` for the labelled group, row for row as in the
    module table: ``moduli[i][j]`` divides ``g_ij - delta_ij`` (None
    marks the (1/p)Z slot of gamma0_1p), and ``form`` is J, Lambda, or
    None for the 2x2 groups, whose condition is det 1."""
    p2 = p * p
    z, zp = (1, 1, 1, 1), (p, p, p, p)
    lam = SymplecticForm.polarised(p)
    return {
        GroupLabel.GAMMA_1P: (((1, 1, 1, p), (p, p, p, p2), (1, 1, 1, p), (1, 1, 1, p)), _J),
        GroupLabel.GAMMA0_1P: (((1, 1, 1, p), (p, 1, p, p), (1, 1, 1, p), (1, None, 1, 1)), _J),
        GroupLabel.GAMMA_TILDE_1P: ((z, zp, z, zp), lam),
        GroupLabel.GAMMA_P2: (((p2,) * 4,) * 4, _J),
        GroupLabel.SP4Z_J: ((z, z, z, z), _J),
        GroupLabel.SP_LAMBDA_Z: ((z, z, z, z), lam),
        GroupLabel.SL2Z: (((1, 1), (1, 1)), None),
        GroupLabel.GAMMA1_OF_P: (((p, p), (p, p)), None),
        GroupLabel.GAMMA1PRIME_P2: (((p2, p), (p2 * p, p2)), None),
    }[label]


def member(m: Mat2 | Mat4, label: GroupLabel, p: int) -> bool:
    """Exact membership test for the labelled group at the odd prime p.

    Reads the group's row of :func:`_pattern` against ``m.scaled()``:
    d in {1, p}, the congruences, then det 1 or the symplectic
    condition; malformed input simply fails the predicate.
    """
    label = GroupLabel(label)
    require_odd_prime(p)
    moduli, form = _pattern(label, p)
    size = len(moduli)
    if not isinstance(m, Mat2 if size == 2 else Mat4):
        raise TypeError(f"{label.value} is a {size}x{size} predicate")
    d, rows = m.scaled()
    if d != 1 and d != p:
        return False
    # a modulus d*n refuses e_ij/d off the integers; None is the (1/p)Z slot
    for i, (row, mods) in enumerate(zip(rows, moduli)):
        for j, (x, n) in enumerate(zip(row, mods)):
            if n is not None and (x - d * (i == j)) % (d * n):
                return False
    return m.det() == 1 if form is None else symplectic_check(m, form)


def times_embedding(m: Mat4, q: Mat2, which: int) -> Mat4:
    """``m j_which(q)`` in tilde coordinates: columns (1,3) or (2,4) of m times q."""
    if q.det() != 1:
        raise NotUnimodular(f"j{which} payload must have determinant 1")
    return m.times_block(which - 1, which + 1, *q.rows[0], *q.rows[1])


def j1_embed(a: Mat2) -> Mat4:
    """Embed SL(2,Z) along coordinates (1,3); the tilde and plain
    embeddings coincide entrywise."""
    return times_embedding(Mat4.identity(), a, 1)


def j2_embed(q: Mat2, p: int, tilde: bool = False) -> Mat4:
    """Embed a 2x2 unimodular matrix along coordinates (2,4).

    Tilde coordinates place ``(a, b, c, d)``; plain coordinates place
    ``(a, p*b, c/p, d)``, the R^-1-conjugate of the tilde image.  For
    plain coordinates the result is integral only when p divides c, but
    non-integral images are still valid elements of the rational group
    gamma0_1p.
    """
    require_odd_prime(p)
    image = times_embedding(Mat4.identity(), q, 2)
    return image if tilde else r_conjugate(image, p, inverse=True)


def r_conjugate(m: Mat4, p: int, inverse: bool = False) -> Mat4:
    """Return ``R m R^{-1}`` (or ``R^{-1} m R`` when ``inverse``).

    Works on the pair ``(d, e)`` of ``m.scaled()``: ``p R m R^{-1}`` is
    ``R e (p R^{-1}) / d``, so the new pair is ``p d`` over e with row 4
    and columns 1..3 times p (rows 1..3 and column 4 when ``inverse``),
    reduced by one gcd."""
    require_odd_prime(p)
    d, e = m.scaled()
    q = p * p
    *top, (a, b, c, w) = e
    if inverse:
        rows = (*[(p * x, p * y, p * z, q * t) for x, y, z, t in top], (a, b, c, p * w))
    else:
        rows = (*[(p * x, p * y, p * z, t) for x, y, z, t in top], (q * a, q * b, q * c, p * w))
    return Mat4.from_pair(p * d, rows)


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
