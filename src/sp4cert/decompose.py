"""Constructive decomposition over the generating set.

Any member of ``gamma_tilde_1p`` (or of ``gamma_1p``, after conjugating
by R = diag(1,1,1,p)) factors as a word over

    Mt1..Mt4,   j1(SL(2,Z)),   j2(gamma1_of_p)

and this module produces such a word explicitly.  Replay (the ordered
left-to-right product of the letters) is the correctness oracle:
:func:`decompose` replays its word once, in the coordinates of its
input, and raises :class:`ShapeAssertionFailed` on a mismatch.  The
checks in this module are explicit, so ``python -O`` keeps them.

Every letter is the identity plus at most four entries, so each step,
in the reduction and in replay alike, multiplies by a letter through
column operations (:func:`_times_letter`): column j of ``acc * s`` sums
only the columns of ``acc`` picked by the nonzero ``s[k][j]``.  The
letter matrices themselves still come from ``letter_matrix``,
``generator``, ``j1_embed`` and ``j2_embed`` alone.

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
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    LongFirstRow,
    NotInGroup,
    ParseError,
    ShapeAssertionFailed,
)
from .generators import generator
from .groups import GroupLabel, j1_embed, j2_embed, member, r_conjugate
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


@dataclass(frozen=True)
class GeneratorWord:
    """Word over the generating set; replay multiplies left to right."""

    p: int
    tilde: bool
    letters: tuple[Letter, ...]

    def letter_matrix(self, letter: Letter) -> Mat4:
        if isinstance(letter, Named):
            return generator(letter.name, self.p) ** letter.exp
        if isinstance(letter, J1):
            return j1_embed(letter.payload)
        return j2_embed(letter.payload, self.p, tilde=self.tilde)

    def replay(self) -> Mat4:
        acc = Mat4.identity()
        for letter in self.letters:
            acc = _times_letter(acc, self.letter_matrix(letter))
        return acc

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
        letters: list[Letter] = []
        for idx, item in enumerate(raw):
            if not isinstance(item, dict):
                raise ParseError(f"letter {idx} malformed")
            if "gen" in item:
                exp = json_int(item.get("exp"), f"letter {idx} exponent")
                letters.append(Named(str(item["gen"]), exp))
            elif "j1" in item:
                letters.append(J1(mat2_from_lists(item["j1"])))
            elif "j2" in item:
                letters.append(J2(mat2_from_lists(item["j2"])))
            else:
                raise ParseError(f"letter {idx} has no recognised tag")
        return GeneratorWord(p=p, tilde=coords == "tilde", letters=tuple(letters))


_ZERO = Fraction(0)


def _times_letter(acc: Mat4, s: Mat4) -> Mat4:
    """``acc * s`` by column operations.

    Column j of the product sums ``acc[i][k] * s[k][j]`` over the
    nonzero ``s[k][j]`` only, taking ``acc[i][k]`` itself when the
    factor is 1.  Exact for any ``s``; a letter matrix costs a handful
    of operations per row instead of a full 4x4 product.

    ``Mat4.__mul__`` could skip zeros the same way for every product.
    Once the benchmark's ``witness`` memory reading stops growing with
    the number of rounds a faster run completes (see ROADMAP.md), fold
    this into ``Mat4.__mul__`` and delete it."""
    columns = [
        tuple((k, None if x == 1 else x) for k, row in enumerate(s.rows) if (x := row[j]))
        for j in range(4)
    ]
    out = []
    for row in acc.rows:
        new = []
        for terms in columns:
            total = None
            for k, x in terms:
                term = row[k] if x is None else row[k] * x
                total = term if total is None else total + term
            new.append(_ZERO if total is None else total)
        out.append(tuple(new))
    return Mat4(tuple(out))


def _invert_letter(letter: Letter) -> Letter:
    if isinstance(letter, Named):
        return Named(letter.name, -letter.exp)
    if isinstance(letter, J1):
        return J1(letter.payload.inv())
    return J2(letter.payload.inv())


def _simplify_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Merge adjacent letters of the same kind; exact because j1 and j2
    are homomorphisms.  Identity letters are dropped."""
    out: list[Letter] = []
    for letter in letters:
        if isinstance(letter, Named) and letter.exp == 0:
            continue
        if isinstance(letter, (J1, J2)) and letter.payload.is_identity():
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
            if isinstance(letter, J1) and isinstance(prev, J1):
                out.pop()
                product = prev.payload * letter.payload
                if not product.is_identity():
                    out.append(J1(product))
                continue
            if isinstance(letter, J2) and isinstance(prev, J2):
                out.pop()
                product = prev.payload * letter.payload
                if not product.is_identity():
                    out.append(J2(product))
                continue
        out.append(letter)
    return tuple(out)


def _gcd_step_matrix(v1: int, v3: int) -> Mat2:
    """A in SL(2,Z) with (v1, v3) A = (gcd, 0), gcd > 0."""
    g, x, y = ext_gcd(v1, v3)
    return Mat2.of(x, -v3 // g, y, v1 // g)


class _Reducer:
    """Accumulates right multipliers applied to a working matrix."""

    def __init__(self, k: Mat4, p: int):
        self.cur = k
        self.p = p
        self.letters: list[Letter] = []

    @property
    def row(self) -> tuple[int, int, int, int]:
        return tuple(int(x) for x in self.cur[0])

    def apply_named(self, name: str, exp: int) -> None:
        if exp == 0:
            return
        self.cur = _times_letter(self.cur, generator(name, self.p) ** exp)
        self.letters.append(Named(name, exp))

    def apply_j1(self, a: Mat2) -> None:
        if a.is_identity():
            return
        self.cur = _times_letter(self.cur, j1_embed(a))
        self.letters.append(J1(a))

    def apply_j2_inverse(self, q: Mat2) -> None:
        if q.is_identity():
            return
        inverse = q.inv()
        self.cur = _times_letter(self.cur, j2_embed(inverse, self.p, tilde=True))
        self.letters.append(J2(inverse))

    def gcd_clear_v3(self) -> int:
        v = self.row
        self.apply_j1(_gcd_step_matrix(v[0], v[2]))
        v = self.row
        if v[2] != 0 or v[0] <= 0:
            raise ShapeAssertionFailed("j1 gcd step did not clear v3 to a positive v1")
        return v[0]


def reduce_first_row(k: Mat4, p: int) -> tuple[GeneratorWord, Mat4]:
    """Right-multiply a gamma_tilde_1p member down to first row (1,0,0,0).

    Returns the multipliers, in application order, as a tilde word using
    only Mt1..Mt4 and j1 letters, together with the reduced matrix:
    ``k * word.replay() == reduced``.
    """
    if not member(k, GroupLabel.GAMMA_TILDE_1P, p):
        raise NotInGroup(f"not in gamma_tilde_1p at p={p}")
    v = tuple(int(x) for x in k[0])
    if math.gcd(v[0], p * v[1], v[2], p * v[3]) != 1:
        # impossible for genuine members; loud signal of a predicate bug
        raise LongFirstRow(f"first row {v} is long at p={p}")

    red = _Reducer(k, p)
    g = red.gcd_clear_v3()  # (a)
    v = red.row
    if (v[1], v[3]) != (0, 0):
        if g > 1 and v[1] != 0:  # (b)
            red.apply_named("Mt2", 1)
            g = red.gcd_clear_v3()
        if g > 1:  # (c)
            red.apply_named("Mt3", -1)
            g = red.gcd_clear_v3()
        if g != 1:
            raise LongFirstRow(f"gcd stalled at {g}; first row was not short")
        v = red.row
        red.apply_named("Mt2", -v[3])  # (d)
        v = red.row
        red.apply_named("Mt3", -v[1])
        red.gcd_clear_v3()
    if red.row != (1, 0, 0, 0):
        raise ShapeAssertionFailed("first row did not reduce to (1,0,0,0)")
    word = GeneratorWord(p=p, tilde=True, letters=tuple(red.letters))
    return word, red.cur


def _extract_block(red: Mat4) -> Mat2:
    return Mat2.of(
        int(red[1][1]), int(red[1][3]), int(red[3][1]), int(red[3][3])
    )


def _cleared_shape(k: Mat4, p: int) -> tuple[int, int] | None:
    """If k matches ((1,0,0,0),(-n p,1,0,0),(*,m,1,n),(m p,0,0,1)),
    return (m, n); otherwise None."""
    rows = k.rows
    if not k.is_integral():
        return None
    m, n = int(rows[2][1]), int(rows[2][3])
    expect = (
        (1, 0, 0, 0),
        (-n * p, 1, 0, 0),
        (int(rows[2][0]), m, 1, n),
        (m * p, 0, 0, 1),
    )
    actual = tuple(tuple(int(x) for x in r) for r in rows)
    return (m, n) if actual == expect else None


def decompose(k: Mat4, p: int, tilde: bool = True) -> GeneratorWord:
    """Word over the generating set replaying exactly to k.

    In plain coordinates the input is conjugated by R into tilde
    coordinates, decomposed there, and the letters mapped back
    (Mt_i -> M_i with the same j1/j2 payloads, which is exactly
    letterwise R-conjugation).  So the plain word replays to k exactly
    when the tilde word replays to R k R^-1, and only the returned word
    is replayed.
    """
    if tilde:
        word = _decompose_tilde(k, p)
    else:
        if not member(k, GroupLabel.GAMMA_1P, p):
            raise NotInGroup(f"not in gamma_1p at p={p}")
        word_t = _decompose_tilde(r_conjugate(k, p), p)
        letters = tuple(
            Named("M" + letter.name[2:], letter.exp)
            if isinstance(letter, Named)
            else letter
            for letter in word_t.letters
        )
        word = GeneratorWord(p=p, tilde=False, letters=letters)
    if word.replay() != k:
        raise ShapeAssertionFailed(f"word does not replay to its input at p={p}")
    return word


def _decompose_tilde(k: Mat4, p: int) -> GeneratorWord:
    """Tilde-coordinate word for a gamma_tilde_1p member k, not replayed."""
    mult_word, red = reduce_first_row(k, p)
    work = _Reducer(red, p)
    work.letters = list(mult_word.letters)

    block = _extract_block(red)
    shape = None
    if member(block, GroupLabel.GAMMA1_OF_P, p):
        work.apply_j2_inverse(block)
        shape = _cleared_shape(work.cur, p)
    if shape is None:
        raise ShapeAssertionFailed(
            f"the j2 block does not clear rows 2 and 4 of {red.rows}"
        )

    m, n = shape
    work.apply_named("Mt4", -n)
    work.apply_named("Mt1", -m)

    residue = work.cur
    x = int(residue[2][0])
    if residue != j1_embed(Mat2.of(1, 0, x, 1)):
        raise ShapeAssertionFailed(f"residue is not a j1 shear: {residue.rows}")

    letters: list[Letter] = []
    if x != 0:
        letters.append(J1(Mat2.of(1, 0, x, 1)))
    letters.extend(_invert_letter(letter) for letter in reversed(work.letters))
    return GeneratorWord(p=p, tilde=True, letters=_simplify_letters(letters))
