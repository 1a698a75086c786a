"""Constructive decomposition over the generating set.

Any member of ``gamma_tilde_1p`` (or of ``gamma_1p``, after conjugating
by R = diag(1,1,1,p)) factors as a word over

    Mt1..Mt4,   j1(SL(2,Z)),   j2(gamma1_of_p)

and this module produces such a word explicitly.  Replay (the ordered
left-to-right product of the letters) is the correctness oracle:
:func:`decompose` replays its word once, in the coordinates of its
input, and raises :class:`ShapeAssertionFailed` on a mismatch.  The
checks in this module are explicit, so ``python -O`` keeps them.

Every letter is an integer ``Mat4`` in tilde coordinates, built by
:func:`_letter_matrix` from the functions that define it: a named power
e is ``generators.generator_power`` of its tilde twin (M_i -> Mt_i),
the identity plus e times the twin's entries, and a j1 or j2 letter is
``groups.j1_embed`` of its payload or ``groups.j2_embed`` with
``tilde=True``.  A plain letter is the
R-conjugate of that matrix, so :meth:`GeneratorWord.replay` multiplies
a plain word in tilde coordinates and conjugates the product back by
R once at the end (``groups.r_conjugate``), so every product but the
last stays integral (d = 1), a plain j2 payload with p not dividing c
included.  The reducer right-multiplies its working matrix by the same
letter matrices.

:func:`decompose` tests its input's membership, R-conjugates a plain
input, runs :func:`reduce_first_row` and the j2 clear on the tilde
member, and compares the word's replay with the input itself.

The pipeline works by right multiplication throughout:

1.  *First-row reduction.*  Right multiplication acts on the first row
    v = (v1,v2,v3,v4) by

        j1(A):  (v1,v3) -> (v1,v3) A         Mt2: v3 += p*v2, v4 += v1
        Mt3: v2 += v1, v3 -= p*v4            Mt1: v1 += p*v4, v2 += v3
        Mt4: v1 -= p*v2, v4 += v3

    The first row of a genuine member is *short*
    (gcd(v1, p*v2, v3, p*v4) = 1), which makes the following fixed
    sequence land on (1,0,0,0):

      (a) a j1 gcd step gives v = (g, v2, 0, v4) with g = gcd(v1,v3) > 0;
      (b) if g > 1, one Mt2 puts p*v2 into slot 3, and another j1 gcd
          step shrinks g to d = gcd(g, p*v2);
      (c) if d > 1, one Mt3^-1 puts p*v4' into slot 3 and a j1 gcd step
          reaches gcd(d, p*v4') = gcd(d, p*v4) = 1, which equals 1
          exactly because gcd(g, p*v2, p*v4) = 1 for short rows;
      (d) with v1 = 1, one Mt2 power clears v4, one Mt3 power clears
          v2, and a final j1 shear clears v3.

    Each stage multiplies by group elements only, so intermediate
    matrices stay in the group.

2.  *Column clearing.*  A reduced matrix K with first row (1,0,0,0) has
    third column (0,0,1,0)^T forced by the symplectic condition, and
    the 2x2 block Q at positions {(2,2),(2,4),(4,2),(4,4)} lies in
    ``gamma1_of_p``; multiplying by j2(Q)^-1 clears rows 2 and 4 except
    for first-column entries -n*p and m*p tied to row 3 by the
    symplectic condition.  The block is tested once and that one
    product is the working matrix from then on.

3.  *Residue.*  Right multiplication by Mt4^-n Mt1^-m leaves exactly
    j1((1,0),(x,1)), the final letter.

The emitted word is the reversed, inverted multiplier log, so replay is
a plain left-to-right product equal to the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import (
    LongFirstRow,
    NotInGroup,
    ParseError,
    ShapeAssertionFailed,
    UnknownName,
)
from .generators import generator_power
from .groups import GroupLabel, j1_embed, j2_embed, member, r_conjugate, require_odd_prime
from .matrices import Mat2, Mat4, ext_gcd, json_int, mat2_from_lists, mat2_to_lists


@dataclass(frozen=True)
class Named:
    name: str  # "M1".."M4" or "Mt1".."Mt4"
    exp: int


@dataclass(frozen=True)
class J1:
    payload: Mat2


@dataclass(frozen=True)
class J2:
    payload: Mat2


Letter = Union[Named, J1, J2]

# the named letters of each alphabet (keyed by ``tilde``), each mapped to
# the tilde twin whose entries give its rows
_TWINS = {
    True: {f"Mt{i}": f"Mt{i}" for i in range(1, 5)},
    False: {f"M{i}": f"Mt{i}" for i in range(1, 5)},
}


def _letter_matrix(letter: Letter, p: int, tilde: bool) -> Mat4:
    """A letter's integer matrix in tilde coordinates: ``generator_power``
    of a named letter's tilde twin, ``j1_embed`` of a j1 payload, or
    ``j2_embed(payload, p, tilde=True)``.  A name outside the ``tilde``
    alphabet raises :class:`UnknownName`; a payload of determinant other
    than 1, the :class:`NotUnimodular` of its embedding."""
    if isinstance(letter, Named):
        twin = _TWINS[tilde].get(letter.name)
        if twin is None:
            coords = "tilde" if tilde else "untilded"
            raise UnknownName(f"no {coords} letter named {letter.name!r}")
        return generator_power(twin, p, letter.exp)
    if isinstance(letter, J1):
        return j1_embed(letter.payload)
    return j2_embed(letter.payload, p, tilde=True)


@dataclass(frozen=True)
class GeneratorWord:
    """Word over the generating set; replay multiplies left to right.

    Named letters are M1..M4 in plain coordinates and Mt1..Mt4 in tilde
    coordinates."""

    p: int
    tilde: bool
    letters: tuple[Letter, ...]

    def replay(self) -> Mat4:
        """The product of the letters, multiplied in tilde coordinates
        from the identity; a plain word's product is conjugated back by
        R once at the end.  BadPrime for a bad p, whatever the letters."""
        require_odd_prime(self.p)
        acc = Mat4.identity()
        for letter in self.letters:
            acc = acc * _letter_matrix(letter, self.p, self.tilde)
        return acc if self.tilde else r_conjugate(acc, self.p, inverse=True)

    def to_json_obj(self) -> dict:
        letters = []
        for letter in self.letters:
            if isinstance(letter, Named):
                letters.append({"gen": letter.name, "exp": letter.exp})
            elif isinstance(letter, J1):
                letters.append({"j1": mat2_to_lists(letter.payload)})
            else:
                letters.append({"j2": mat2_to_lists(letter.payload)})
        return {
            "p": self.p,
            "coords": "tilde" if self.tilde else "untilded",
            "letters": letters,
        }

    @staticmethod
    def from_json_obj(obj) -> "GeneratorWord":
        if not isinstance(obj, dict):
            raise ParseError("word must be a JSON object")
        try:
            p = json_int(obj["p"], "word p")
            coords = obj["coords"]
            raw = obj["letters"]
        except KeyError as exc:
            raise ParseError(f"word header malformed: {exc}") from exc
        if coords not in ("tilde", "untilded"):
            raise ParseError(f"bad coords {coords!r}")
        if not isinstance(raw, list):
            raise ParseError("letters must be a list")
        names = _TWINS[coords == "tilde"]
        letters: list[Letter] = []
        for idx, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ParseError(f"letter {idx} malformed")
            if "gen" in item:
                gen = item["gen"]
                if not isinstance(gen, str) or gen not in names:
                    raise ParseError(
                        f"letter {idx}: gen must be one of {', '.join(names)} in {coords} coords"
                    )
                exp = json_int(item.get("exp"), f"letter {idx} exponent")
                letters.append(Named(gen, exp))
            elif "j1" in item:
                letters.append(J1(mat2_from_lists(item["j1"])))
            elif "j2" in item:
                letters.append(J2(mat2_from_lists(item["j2"])))
            else:
                raise ParseError(f"letter {idx} has no recognised tag")
        return GeneratorWord(p=p, tilde=coords == "tilde", letters=tuple(letters))


def _invert_letter(letter: Letter) -> Letter:
    if isinstance(letter, Named):
        return Named(letter.name, -letter.exp)
    if isinstance(letter, J1):
        return J1(letter.payload.inv())
    return J2(letter.payload.inv())


def _is_identity(letter: Letter) -> bool:
    if isinstance(letter, Named):
        return letter.exp == 0
    return letter.payload.is_identity()


def _simplify_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Merge adjacent letters of the same kind; exact because j1 and j2
    are homomorphisms.  Identity letters are dropped."""
    out: list[Letter] = []
    for letter in letters:
        if _is_identity(letter):
            continue
        if out:
            prev = out[-1]
            if (
                isinstance(letter, Named)
                and isinstance(prev, Named)
                and prev.name == letter.name
            ):
                out.pop()
                merged = Named(letter.name, prev.exp + letter.exp)
                if merged.exp:
                    out.append(merged)
                continue
            if isinstance(letter, (J1, J2)) and type(prev) is type(letter):
                out.pop()
                product = prev.payload * letter.payload
                if not product.is_identity():
                    out.append(type(letter)(product))
                continue
        out.append(letter)
    return tuple(out)


def _gcd_step_matrix(v1: int, v3: int) -> Mat2:
    """A in SL(2,Z) with (v1, v3) A = (gcd, 0), gcd > 0."""
    g, x, y = ext_gcd(v1, v3)
    return Mat2.of(x, -v3 // g, y, v1 // g)


class _Reducer:
    """Accumulates right multipliers applied to an integer working matrix."""

    def __init__(self, cur: Mat4, p: int, letters: Iterable[Letter] = ()):
        self.cur = cur
        self.p = p
        self.letters: list[Letter] = list(letters)

    def apply(self, letter: Letter) -> None:
        """Right-multiply by a tilde letter's matrix and log it;
        identities are skipped."""
        if _is_identity(letter):
            return
        self.cur = self.cur * _letter_matrix(letter, self.p, True)
        self.letters.append(letter)

    def gcd_clear_v3(self) -> int:
        v = self.cur.scaled()[1][0]
        self.apply(J1(_gcd_step_matrix(v[0], v[2])))
        v = self.cur.scaled()[1][0]
        if v[2] != 0 or v[0] <= 0:
            raise ShapeAssertionFailed("j1 gcd step did not clear v3 to a positive v1")
        return v[0]


def reduce_first_row(k: Mat4, p: int) -> tuple[GeneratorWord, Mat4]:
    """Right-multiply a gamma_tilde_1p member down to first row (1,0,0,0).

    Returns the multipliers, in application order, as a tilde word using
    only Mt1..Mt4 and j1 letters, together with the reduced matrix:
    ``k * word.replay() == reduced``.  Members are integral, so every
    working matrix has d = 1 and its first row is ``cur.scaled()[1][0]``.
    """
    if not member(k, GroupLabel.GAMMA_TILDE_1P, p):
        raise NotInGroup(f"not in gamma_tilde_1p at p={p}")
    v = k.scaled()[1][0]
    if math.gcd(v[0], p * v[1], v[2], p * v[3]) != 1:
        # impossible for genuine members; loud signal of a predicate bug
        raise LongFirstRow(f"first row {v} is long at p={p}")

    red = _Reducer(k, p)
    g = red.gcd_clear_v3()  # (a)
    v = red.cur.scaled()[1][0]
    if (v[1], v[3]) != (0, 0):
        if g > 1 and v[1] != 0:  # (b)
            red.apply(Named("Mt2", 1))
            g = red.gcd_clear_v3()
        if g > 1:  # (c)
            red.apply(Named("Mt3", -1))
            g = red.gcd_clear_v3()
        if g != 1:
            raise LongFirstRow(f"gcd stalled at {g}; first row was not short")
        v = red.cur.scaled()[1][0]
        red.apply(Named("Mt2", -v[3]))  # (d)
        v = red.cur.scaled()[1][0]
        red.apply(Named("Mt3", -v[1]))
        red.gcd_clear_v3()
    if red.cur.scaled()[1][0] != (1, 0, 0, 0):
        raise ShapeAssertionFailed("first row did not reduce to (1,0,0,0)")
    return GeneratorWord(p=p, tilde=True, letters=tuple(red.letters)), red.cur


def _cleared_shape(cur: Mat4, p: int) -> tuple[int, int] | None:
    """If cur is ((1,0,0,0),(-n p,1,0,0),(*,m,1,n),(m p,0,0,1)), return
    (m, n); otherwise None."""
    rows = cur.scaled()[1]
    m, n = rows[2][1], rows[2][3]
    expect = ((1, 0, 0, 0), (-n * p, 1, 0, 0), (rows[2][0], m, 1, n), (m * p, 0, 0, 1))
    return (m, n) if rows == expect else None


def decompose(k: Mat4, p: int, tilde: bool = True) -> GeneratorWord:
    """Word over the generating set replaying exactly to k.

    In plain coordinates the input is conjugated by R into tilde
    coordinates, decomposed there, and the letters mapped back
    (Mt_i -> M_i with the same j1/j2 payloads, which is exactly
    letterwise R-conjugation).  So the plain word replays to k exactly
    when the tilde word replays to R k R^-1.  The returned word's
    replay is compared with k itself.
    """
    if tilde:
        word = _decompose_tilde(k, p)
    else:
        if not member(k, GroupLabel.GAMMA_1P, p):
            raise NotInGroup(f"not in gamma_1p at p={p}")
        letters = tuple(
            Named("M" + letter.name[2:], letter.exp) if isinstance(letter, Named) else letter
            for letter in _decompose_tilde(r_conjugate(k, p), p).letters
        )
        word = GeneratorWord(p=p, tilde=False, letters=letters)
    if word.replay() != k:
        raise ShapeAssertionFailed(f"word does not replay to its input at p={p}")
    return word


def _decompose_tilde(k: Mat4, p: int) -> GeneratorWord:
    """Tilde-coordinate word for a gamma_tilde_1p member, not replayed:
    :func:`reduce_first_row`, then the j2 clear and the residue."""
    reduction, red = reduce_first_row(k, p)
    work = _Reducer(red, p, reduction.letters)
    rows = red.scaled()[1]
    block = Mat2.of(rows[1][1], rows[1][3], rows[3][1], rows[3][3])
    shape = None
    if member(block, GroupLabel.GAMMA1_OF_P, p):
        work.apply(J2(block.inv()))
        shape = _cleared_shape(work.cur, p)
    if shape is None:
        raise ShapeAssertionFailed(f"the j2 block does not clear rows 2 and 4 of {rows}")

    m, n = shape
    work.apply(Named("Mt4", -n))
    work.apply(Named("Mt1", -m))

    residue = work.cur
    shear = J1(Mat2.of(1, 0, residue.scaled()[1][2][0], 1))
    if residue != _letter_matrix(shear, p, True):
        raise ShapeAssertionFailed(f"residue is not a j1 shear: {residue.scaled()[1]}")

    letters: list[Letter] = []
    if not _is_identity(shear):
        letters.append(shear)
    letters.extend(_invert_letter(letter) for letter in reversed(work.letters))
    return GeneratorWord(p=p, tilde=True, letters=_simplify_letters(letters))
