"""Constructive decomposition over the generating set.

Any member of ``gamma_tilde_1p`` (or of ``gamma_1p``, after conjugating
by R = diag(1,1,1,p)) factors as a word over

    Mt1..Mt4,   j1(SL(2,Z)),   j2(gamma1_of_p)

and this module produces such a word explicitly.  Replay (the ordered
left-to-right product of the letters) is the correctness oracle:
:func:`decompose` replays its word once, in the coordinates of its
input, and raises :class:`ShapeAssertionFailed` on a mismatch.  The
checks in this module are explicit, so ``python -O`` keeps them.

Each letter carries its action: ``times``, ``inverse``, ``is_identity``,
``plain`` and ``to_json_obj``.  Its ``times`` right-multiplies in tilde
coordinates by the function that builds it from the identity, in one pass
over the flat entries with no gcd: a :class:`Named` power e of M_i or Mt_i
is ``generators.times_power`` of its tilde twin Mt_i (its shears on one copy),
and a :class:`J1` or :class:`J2` letter is ``groups.times_embedding`` of its
payload (the block written out).  No letter product is dense.  A plain letter
is the R-conjugate of its tilde twin, which ``plain`` maps back, so
:meth:`GeneratorWord.replay` multiplies a plain word in tilde coordinates and
conjugates back by R once at the end (``groups.r_conjugate``): every matrix but
the last stays integral (d = 1), a plain j2 payload with p not dividing c
included.  The reducer right-multiplies its working matrix the same way.

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

The emitted word is the residue shear followed by the reversed,
inverted multiplier log.  The log holds no identity letter and no two
adjacent letters of one kind (each stage alternates kinds), so the one
merge a word needs is of the shear with a leading j1 letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import (
    NotInGroup,
    ParseError,
    ShapeAssertionFailed,
    UnknownName,
)
from .generators import times_power
from .groups import GroupLabel, member, r_conjugate, require_odd_prime, times_embedding
from .matrices import Mat2, Mat4, ext_gcd, json_int, mat2_from_lists, mat2_to_lists


# the named letters of each alphabet, keyed by ``tilde``; M_i's tilde twin Mt_i has its index
ALPHABET = {True: ("Mt1", "Mt2", "Mt3", "Mt4"), False: ("M1", "M2", "M3", "M4")}


@dataclass(frozen=True)
class Named:
    name: str  # "M1".."M4" or "Mt1".."Mt4"
    exp: int

    def times(self, m: Mat4, p: int, tilde: bool) -> Mat4:
        """``m`` times this letter in tilde coordinates, ``times_power`` of its
        tilde twin; a name outside the ``tilde`` alphabet is :class:`UnknownName`."""
        try:
            i = ALPHABET[tilde].index(self.name)
        except ValueError:
            coords = "tilde" if tilde else "untilded"
            raise UnknownName(f"no {coords} letter named {self.name!r}") from None
        return times_power(m, ALPHABET[True][i], p, self.exp)

    def inverse(self) -> "Named":
        return Named(self.name, -self.exp)

    def is_identity(self) -> bool:
        return self.exp == 0

    def plain(self) -> "Named":
        """A tilde letter's plain twin, Mt_i -> M_i: its R-conjugate."""
        return Named(ALPHABET[False][ALPHABET[True].index(self.name)], self.exp)

    def to_json_obj(self) -> dict:
        return {"gen": self.name, "exp": self.exp}


@dataclass(frozen=True)
class _Block:
    """A j1 or j2 letter: its payload on columns (1,3) or (2,4), as ``which``
    is 1 or 2; ``tag``, ``"j1"`` or ``"j2"``, keys it in the word JSON."""

    payload: Mat2

    def times(self, m: Mat4, p: int, tilde: bool) -> Mat4:
        """``m`` times this letter in tilde coordinates, ``times_embedding`` of
        the payload; a determinant other than 1 is :class:`NotUnimodular`."""
        return times_embedding(m, self.payload, self.which)

    def inverse(self) -> "_Block":
        return type(self)(self.payload.inv())

    def is_identity(self) -> bool:
        return self.payload.is_identity()

    def plain(self) -> "_Block":
        return self  # its own R-conjugate

    def to_json_obj(self) -> dict:
        return {self.tag: mat2_to_lists(self.payload)}


class J1(_Block):
    which, tag = 1, "j1"


class J2(_Block):
    which, tag = 2, "j2"


Letter = Union[Named, J1, J2]


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
            acc = letter.times(acc, self.p, self.tilde)
        return acc if self.tilde else r_conjugate(acc, self.p, inverse=True)

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "coords": "tilde" if self.tilde else "untilded",
            "letters": [letter.to_json_obj() for letter in self.letters],
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
        names = ALPHABET[coords == "tilde"]
        letters: list[Letter] = []
        for idx, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ParseError(f"letter {idx} malformed")
            if "gen" in item:
                if item["gen"] not in names:
                    raise ParseError(
                        f"letter {idx}: gen must be one of {', '.join(names)} in {coords} coords"
                    )
                letters.append(Named(item["gen"], json_int(item.get("exp"), f"letter {idx} exponent")))
                continue
            for kind in (J1, J2):
                if kind.tag in item:
                    letters.append(kind(mat2_from_lists(item[kind.tag])))
                    break
            else:
                raise ParseError(f"letter {idx} has no recognised tag")
        return GeneratorWord(p=p, tilde=coords == "tilde", letters=tuple(letters))


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
        """Right-multiply by a tilde letter and log it; skip an identity."""
        if letter.is_identity():
            return
        self.cur = letter.times(self.cur, self.p, True)
        self.letters.append(letter)

    def gcd_clear_v3(self) -> int:
        v = self.cur.scaled()[1][:4]
        self.apply(J1(_gcd_step_matrix(v[0], v[2])))
        v = self.cur.scaled()[1][:4]
        if v[2] != 0 or v[0] <= 0:
            raise ShapeAssertionFailed("j1 gcd step did not clear v3 to a positive v1")
        return v[0]


def reduce_first_row(k: Mat4, p: int) -> tuple[GeneratorWord, Mat4]:
    """Right-multiply a gamma_tilde_1p member down to first row (1,0,0,0).

    Returns the multipliers, in application order, as a tilde word using
    only Mt1..Mt4 and j1 letters, together with the reduced matrix:
    ``k * word.replay() == reduced``.  Members are integral, so every
    working matrix has d = 1 and its first row is ``cur.scaled()[1][:4]``.
    """
    if not member(k, GroupLabel.GAMMA_TILDE_1P, p):
        raise NotInGroup(f"not in gamma_tilde_1p at p={p}")
    v = k.scaled()[1][:4]
    if math.gcd(v[0], p * v[1], v[2], p * v[3]) != 1:
        # impossible for genuine members; loud signal of a predicate bug
        raise ShapeAssertionFailed(f"first row {v} is long at p={p}")

    red = _Reducer(k, p)
    g = red.gcd_clear_v3()  # (a)
    v = red.cur.scaled()[1][:4]
    if (v[1], v[3]) != (0, 0):
        if g > 1 and v[1] != 0:  # (b)
            red.apply(Named("Mt2", 1))
            g = red.gcd_clear_v3()
        if g > 1:  # (c)
            red.apply(Named("Mt3", -1))
            g = red.gcd_clear_v3()
        if g != 1:
            raise ShapeAssertionFailed(f"gcd stalled at {g}; first row was not short")
        v = red.cur.scaled()[1][:4]
        red.apply(Named("Mt2", -v[3]))  # (d)
        v = red.cur.scaled()[1][:4]
        red.apply(Named("Mt3", -v[1]))
        red.gcd_clear_v3()
    if red.cur.scaled()[1][:4] != (1, 0, 0, 0):
        raise ShapeAssertionFailed("first row did not reduce to (1,0,0,0)")
    return GeneratorWord(p=p, tilde=True, letters=tuple(red.letters)), red.cur


def _cleared_shape(cur: Mat4, p: int) -> tuple[int, int] | None:
    """If cur is ((1,0,0,0),(-n p,1,0,0),(*,m,1,n),(m p,0,0,1)), return
    (m, n); otherwise None."""
    e = cur.scaled()[1]
    m, n = e[9], e[11]
    expect = (1, 0, 0, 0, -n * p, 1, 0, 0, e[8], m, 1, n, m * p, 0, 0, 1)
    return (m, n) if e == expect else None


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
        letters = tuple(letter.plain() for letter in _decompose_tilde(r_conjugate(k, p), p).letters)
        word = GeneratorWord(p=p, tilde=False, letters=letters)
    if word.replay() != k:
        raise ShapeAssertionFailed(f"word does not replay to its input at p={p}")
    return word


def _decompose_tilde(k: Mat4, p: int) -> GeneratorWord:
    """Tilde-coordinate word for a gamma_tilde_1p member, not replayed:
    :func:`reduce_first_row`, then the j2 clear and the residue."""
    reduction, red = reduce_first_row(k, p)
    work = _Reducer(red, p, reduction.letters)
    e = red.scaled()[1]
    block = Mat2.of(e[5], e[7], e[13], e[15])
    shape = None
    if member(block, GroupLabel.GAMMA1_OF_P, p):
        work.apply(J2(block.inv()))
        shape = _cleared_shape(work.cur, p)
    if shape is None:
        raise ShapeAssertionFailed(f"the j2 block does not clear rows 2 and 4 of {red!r}")

    m, n = shape
    work.apply(Named("Mt4", -n))
    work.apply(Named("Mt1", -m))

    residue = work.cur
    shear = J1(Mat2.of(1, 0, residue.scaled()[1][8], 1))
    if residue != shear.times(Mat4.identity(), p, True):
        raise ShapeAssertionFailed(f"residue is not a j1 shear: {residue!r}")

    # the log holds no identity letter and no two adjacent letters of one
    # kind (module docstring): the one merge is the shear with a leading j1
    letters = [letter.inverse() for letter in reversed(work.letters)]
    if letters and type(letters[0]) is J1:
        shear = J1(shear.payload * letters.pop(0).payload)
    if not shear.is_identity():
        letters.insert(0, shear)
    return GeneratorWord(p=p, tilde=True, letters=tuple(letters))
