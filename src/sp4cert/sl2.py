"""Constructive SL(2,Z) algorithms.

Three word problems are solved here, each with replay as the
correctness oracle (the returned object multiplies back to the input
exactly):

* ``sl2_decompose`` -- write any unimodular 2x2 integer matrix as a
  word in T = ((1,1),(0,1)) and U = ((1,0),(1,1)) with integer
  exponents, by the Euclidean algorithm on the first column.

* ``normal_closure_decompose`` -- rewrite such a word as an ordered
  product of conjugates w T^{+-1} w^{-1}.  Since U = S T^{-1} S^{-1}
  with S = ((0,-1),(1,0)), every U-letter becomes an S-conjugate;
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

  The case chain is at most (3) -> (2) -> (1), so the recursion depth
  never exceeds 3.  All step payloads are revalidated by predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import NotInGroup, NotUnimodular, ShapeAssertionFailed
from .groups import GroupLabel, member
from .matrices import Mat2

T = Mat2.of(1, 1, 0, 1)
U = Mat2.of(1, 0, 1, 1)
S = Mat2.of(0, -1, 1, 0)

_LETTERS = {"T": T, "U": U}


@dataclass(frozen=True)
class Sl2Word:
    """Word over {T, U} with nonzero integer exponents; replay is the
    ordered left-to-right product."""

    letters: tuple[tuple[str, int], ...]

    def replay(self) -> Mat2:
        acc = Mat2.identity()
        for name, exp in self.letters:
            acc = acc * _LETTERS[name] ** exp
        return acc


@dataclass(frozen=True)
class ConjugateFactor:
    conjugator: Mat2
    sign: int  # +1 or -1

    def value(self) -> Mat2:
        w = self.conjugator
        return w * T ** self.sign * w.inv()


@dataclass(frozen=True)
class ConjugateList:
    """Ordered product of conjugates w T^{+-1} w^{-1}."""

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

    Left multiplication by T^k adds k times row 2 to row 1, by U^k adds
    k times row 1 to row 2; the loop runs the Euclidean algorithm on
    the first column.  Ties (equal absolute value) reduce the
    lower-left entry, so the output is deterministic.  The sign is
    cleaned up through (T^-1 U T^-1)^2 = -1.
    """
    _require_unimodular(a)
    letters: list[tuple[str, int]] = []
    cur = a
    while True:
        x, c = cur[0][0], cur[1][0]
        if c == 0:
            break
        if x == 0:
            # make the corner nonzero: cur = T^{-1} (T cur)
            cur = T * cur
            _push(letters, "T", -1)
            continue
        if abs(x) > abs(c):
            q = x // c
            cur = T ** (-q) * cur
            _push(letters, "T", q)
        else:
            q = c // x
            cur = U ** (-q) * cur
            _push(letters, "U", q)
    x = cur[0][0]
    assert x in (1, -1) and cur[1][1] == x, cur
    if x == -1:
        for name, exp in _MINUS_ONE:
            _push(letters, name, exp)
        cur = -cur
    b = cur[0][1]
    _push(letters, "T", b)
    word = Sl2Word(tuple(letters))
    if word.replay() != a:
        raise ShapeAssertionFailed(f"SL(2) word does not replay to {a.rows}")
    return word


def normal_closure_decompose(a: Mat2) -> ConjugateList:
    """Express the input as an ordered product of factors w T^{+-1} w^{-1}.

    T-letters keep the identity conjugator; each U-letter expands
    through U = S T^{-1} S^{-1}.  Factor count equals the total
    exponent size of the underlying word.
    """
    word = sl2_decompose(a)
    factors: list[ConjugateFactor] = []
    for name, exp in word.letters:
        sign = 1 if exp > 0 else -1
        if name == "T":
            factors.extend(
                ConjugateFactor(Mat2.identity(), sign) for _ in range(abs(exp))
            )
        else:
            factors.extend(
                ConjugateFactor(S, -sign) for _ in range(abs(exp))
            )
    result = ConjugateList(tuple(factors))
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


@dataclass(frozen=True)
class Gamma1pSteps:
    """Replayable reconstruction of a gamma1_of_p element.

    Replay folds the steps over the identity: ``MultiplyLeftP(e)`` maps
    acc to P^e * acc, ``MultiplyLeftPrime(q)`` to q * acc, and
    ``ConjugateBy(w)`` to w * acc * w^{-1}; the result must equal
    ``target``.  ``cases_applied`` lists the congruence cases fired, in
    replay order (innermost first).
    """

    p: int
    target: Mat2
    steps: tuple[Step, ...]
    cases_applied: tuple[int, ...]

    def replay(self) -> Mat2:
        pp = Mat2.of(1, 0, self.p, 1)
        acc = Mat2.identity()
        for step in self.steps:
            if isinstance(step, MultiplyLeftP):
                acc = pp ** step.exponent * acc
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

    pmat = Mat2.of(1, 0, p, 1)
    steps: list[Step] = []
    cases: list[int] = []

    def case1(m: Mat2) -> None:
        lam = (m[0][0] - 1) // p
        bet = m[1][0] // p
        assert lam % p == 0
        prime = pmat ** (-bet) * m
        if not prime.is_identity():
            assert member(prime, GroupLabel.GAMMA1PRIME_P2, p), prime.rows
            steps.append(MultiplyLeftPrime(prime))
        if bet != 0:
            steps.append(MultiplyLeftP(bet))
        cases.append(1)

    def case2(m: Mat2) -> None:
        lam = (m[0][0] - 1) // p
        alf = m[0][1] // p
        assert lam % p != 0 and alf % p != 0
        # smallest nonnegative k with lam = k*alf mod p
        k = (lam * pow(alf, -1, p)) % p
        conj = Mat2.of(1, 0, k, 1)
        case1(conj * m * conj.inv())
        steps.append(ConjugateBy(conj.inv()))
        cases.append(2)

    lam = (q[0][0] - 1) // p
    alf = q[0][1] // p
    if lam % p == 0:
        case1(q)
    elif alf % p != 0:
        case2(q)
    else:
        shear = Mat2.of(1, p, 0, 1)  # in gamma1prime_p2, as is its inverse
        assert member(shear.inv(), GroupLabel.GAMMA1PRIME_P2, p)
        case2(shear * q)
        steps.append(MultiplyLeftPrime(shear.inv()))
        cases.append(3)

    result = Gamma1pSteps(p=p, target=q, steps=tuple(steps), cases_applied=tuple(cases))
    if result.replay() != q:
        raise ShapeAssertionFailed(f"gamma1_of_p steps do not replay to {q.rows}")
    return result
