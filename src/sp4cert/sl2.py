"""Constructive SL(2,Z) algorithms.

Three word problems are solved here, each with replay as the
correctness oracle (the returned object multiplies back to the input
exactly):

* ``sl2_decompose`` -- write any unimodular 2x2 integer matrix as a
  word in T = ((1,1),(0,1)) and U = ((1,0),(1,1)) with integer
  exponents, by the Euclidean algorithm on the first column.

* ``normal_closure_decompose`` -- rewrite such a word as an ordered
  product of conjugates w Tᵉ w^{-1}, one per letter
  (:func:`conjugates_of_t`).  Since U = S T^{-1} S^{-1} with
  S = ((0,-1),(1,0)), every U-letter becomes an S-conjugate;
  conjugators are opaque (they are never themselves expanded), so S may
  appear as a conjugator without circularity.

* ``gamma1p_generate`` -- reconstruct an element of the level-p group
  ``gamma1_of_p`` from powers of P = ((1,0),(p,1)), elements of
  ``gamma1prime_p2``, and conjugation by SL(2,Z), following the
  three-way congruence case split on ((lam*p+1, alf*p),(bet*p, mu*p+1)):

  1. lam = 0 mod p:  P^{-bet} * q lies in gamma1prime_p2, so
     q = P^bet * prime;
  2. lam, alf both prime to p:  conjugating by ((1,0),(k,1)) with
     p | (lam - k*alf) lands in case 1;
  3. lam prime to p, p | alf:  multiplying on the left by
     ((1,p),(0,1)), itself in gamma1prime_p2, lands in case 2.

  The cases run as one straight chain: case 3 when it applies, then
  case 2 whenever lam is prime to p (left multiplication by the shear
  keeps lam mod p), then case 1.  The gamma1prime_p2 payload of case 1
  is rechecked by predicate, and the step list is replayed at return.

No letter is built as a matrix power: T^k, U^k and P^k = U^(kp) act
as integer row operations on the left (the Euclidean loop, the P-steps)
and as column operations on the right (an Sl2Word's replay from the
identity), so that replay checks the Euclidean loop independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import NotInGroup, NotUnimodular, ShapeAssertionFailed
from .groups import GroupLabel, member
from .matrices import Mat2

T = Mat2.of(1, 1, 0, 1)
U = Mat2.of(1, 0, 1, 1)
S = Mat2.of(0, -1, 1, 0)
_ONE = Mat2.identity()  # the conjugator of a T-letter


@dataclass(frozen=True)
class Sl2Word:
    """Word over {T, U} with nonzero integer exponents; replay is the
    ordered product, built from the identity by one column operation a letter."""

    letters: tuple[tuple[str, int], ...]

    def replay(self) -> Mat2:
        (a, b), (c, d) = (1, 0), (0, 1)
        for name, exp in self.letters:
            if name == "T":  # column 2 += exp column 1
                b, d = b + exp * a, d + exp * c
            else:  # U: column 1 += exp column 2
                a, c = a + exp * b, c + exp * d
        return Mat2.of(a, b, c, d)


class ConjugateFactor(NamedTuple):
    """The factor w T^exp w^{-1}, exp nonzero."""

    conjugator: Mat2
    exp: int

    def value(self) -> Mat2:
        w = self.conjugator
        return w * Mat2.of(1, self.exp, 0, 1) * w.inv()


@dataclass(frozen=True)
class ConjugateList:
    """Ordered product of conjugates w T^e w^{-1}."""

    factors: tuple[ConjugateFactor, ...]

    def replay(self) -> Mat2:
        acc = Mat2.identity()
        for f in self.factors:
            acc = acc * f.value()
        return acc


def _require_unimodular(a: Mat2) -> None:
    if a.det() != 1:
        raise NotUnimodular(f"determinant {a.det()} != 1")


def _push(letters: list[tuple[str, int]], name: str, exp: int) -> None:
    if exp == 0:
        return
    if letters and letters[-1][0] == name:
        merged = letters[-1][1] + exp
        letters.pop()
        if merged:
            letters.append((name, merged))
        return
    letters.append((name, exp))


# -I written in T and U; equals (T^-1 U T^-1)^2 = S^2
_MINUS_ONE = ((("T", -1), ("U", 1), ("T", -2), ("U", 1), ("T", -1)))


def sl2_decompose(a: Mat2) -> Sl2Word:
    """Euclidean decomposition over {T, U}; replay equals the input.

    The letters act on the rows ((x, y), (c, w)) of the input: left
    multiplication by T^k adds k times row 2 to row 1, by U^k adds k
    times row 1 to row 2; the loop runs the Euclidean algorithm on the
    first column.  Ties (equal absolute value) reduce the lower-left
    entry, so the output is deterministic.  The sign is cleaned up
    through (T^-1 U T^-1)^2 = -1.
    """
    _require_unimodular(a)
    letters: list[tuple[str, int]] = []
    (x, y), (c, w) = a.rows
    while c:
        if x == 0:
            # make the corner nonzero: the input is T^-1 (T input)
            x, y = c, y + w
            _push(letters, "T", -1)
        elif abs(x) > abs(c):
            q = x // c
            x, y = x - q * c, y - q * w
            _push(letters, "T", q)
        else:
            q = c // x
            c, w = c - q * x, w - q * y
            _push(letters, "U", q)
    if x not in (1, -1) or w != x:
        raise ShapeAssertionFailed(f"Euclid did not end on a diagonal +-1: {((x, y), (c, w))}")
    if x == -1:
        for name, exp in _MINUS_ONE:
            _push(letters, name, exp)
        y = -y
    _push(letters, "T", y)
    word = Sl2Word(tuple(letters))
    if word.replay() != a:
        raise ShapeAssertionFailed(f"SL(2) word does not replay to {a.rows}")
    return word


def conjugates_of_t(word: Sl2Word) -> tuple[ConjugateFactor, ...]:
    """One conjugate of a T-power per letter of ``word``, in order:
    T^e is itself, U^e = S T^-e S^-1."""
    return tuple(ConjugateFactor(_ONE, e) if name == "T" else ConjugateFactor(S, -e)
                 for name, e in word.letters)


def normal_closure_decompose(a: Mat2) -> ConjugateList:
    """Express the input as an ordered product of factors w T^e w^{-1},
    one per letter of its :func:`sl2_decompose` word."""
    result = ConjugateList(conjugates_of_t(sl2_decompose(a)))
    if result.replay() != a:
        raise ShapeAssertionFailed(f"conjugate list does not replay to {a.rows}")
    return result


# ---------------------------------------------------------------------------
# generation of gamma1_of_p from P, gamma1prime_p2 and SL(2,Z)-conjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplyLeftP:
    exponent: int


@dataclass(frozen=True)
class MultiplyLeftPrime:
    element: Mat2  # must pass gamma1prime_p2


@dataclass(frozen=True)
class ConjugateBy:
    conjugator: Mat2  # must be unimodular


Step = Union[MultiplyLeftP, MultiplyLeftPrime, ConjugateBy]


def _times_p_power(m: Mat2, e: int, p: int) -> Mat2:
    """P^e * m: add e p times row 1 to row 2."""
    (a, b), (c, d) = m.rows
    return Mat2.of(a, b, c + e * p * a, d + e * p * b)


@dataclass(frozen=True)
class Gamma1pSteps:
    """Replayable reconstruction of a gamma1_of_p element.

    Replay folds the steps over the identity: ``MultiplyLeftP(e)`` maps
    acc to P^e * acc by a row operation, ``MultiplyLeftPrime(q)`` to
    q * acc, and ``ConjugateBy(w)`` to w * acc * w^{-1}; the result
    must equal ``target``.  ``cases_applied`` lists the congruence
    cases fired, in replay order (innermost first).
    """

    p: int
    target: Mat2
    steps: tuple[Step, ...]
    cases_applied: tuple[int, ...]

    def replay(self) -> Mat2:
        acc = Mat2.identity()
        for step in self.steps:
            if isinstance(step, MultiplyLeftP):
                acc = _times_p_power(acc, step.exponent, self.p)
            elif isinstance(step, MultiplyLeftPrime):
                acc = step.element * acc
            else:
                acc = step.conjugator * acc * step.conjugator.inv()
        return acc


def gamma1p_generate(q: Mat2, p: int) -> Gamma1pSteps:
    """Step list rebuilding q from P-powers, gamma1prime_p2 elements and
    SL(2,Z) conjugations; raises NotInGroup if q fails the predicate."""
    if not member(q, GroupLabel.GAMMA1_OF_P, p):
        raise NotInGroup(f"not in gamma1_of_p at p={p}: {q.rows}")

    # each case maps m one case down and puts the step undoing it in
    # front, so replay runs case 1's steps first
    m = q
    undo: list[Step] = []
    cases: list[int] = []
    lam = (q[0][0] - 1) // p
    if lam % p != 0 and (q[0][1] // p) % p == 0:  # case 3
        shear = Mat2.of(1, p, 0, 1)  # in gamma1prime_p2, as is its inverse
        m = shear * m
        undo.insert(0, MultiplyLeftPrime(shear.inv()))
        cases.insert(0, 3)
    if lam % p != 0:  # case 2
        # smallest nonnegative k with lam = k*alf mod p, alf = m[0][1] / p
        k = (lam * pow(m[0][1] // p, -1, p)) % p
        conj = Mat2.of(1, 0, k, 1)
        m = conj * m * conj.inv()
        undo.insert(0, ConjugateBy(conj.inv()))
        cases.insert(0, 2)
    bet = m[1][0] // p  # case 1
    prime = _times_p_power(m, -bet, p)
    if not member(prime, GroupLabel.GAMMA1PRIME_P2, p):
        raise ShapeAssertionFailed(f"P^-bet q is not in gamma1prime_p2: {prime.rows}")
    steps: list[Step] = [] if prime.is_identity() else [MultiplyLeftPrime(prime)]
    if bet != 0:
        steps.append(MultiplyLeftP(bet))

    result = Gamma1pSteps(p=p, target=q, steps=(*steps, *undo), cases_applied=(1, *cases))
    if result.replay() != q:
        raise ShapeAssertionFailed(f"gamma1_of_p steps do not replay to {q.rows}")
    return result
