import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sp4cert

from support import ReferenceMat4, fraction_entries, reference_product, reference_replay

from sp4cert.decompose import (
    GeneratorWord,
    J1,
    J2,
    Named,
    _lift,
    decompose,
    reduce_first_row,
)
from sp4cert.errors import (
    BadPrime,
    NotInGroup,
    NotUnimodular,
    ParseError,
    ShapeAssertionFailed,
    UnknownName,
)
from sp4cert.generators import _ENTRIES, generator, times_power
from sp4cert.groups import (
    GroupLabel,
    SymplecticForm,
    _pattern,
    j1_embed,
    j2_embed,
    member,
    r_conjugate,
    symplectic_check,
)
from sp4cert.matrices import Mat2, Mat4
from sp4cert.sampling import SampleSpec, sample

I4 = Mat4.identity()


def tilde_corpus(p, count, seed, max_len=20):
    return [
        sample(
            SampleSpec(GroupLabel.GAMMA_TILDE_1P, p, seed + i, i % (max_len + 1))
        )
        for i in range(count)
    ]


# --- reduce_first_row ------------------------------------------------------


def test_reduce_identity():
    word, red = reduce_first_row(I4, 3)
    assert word.letters == ()
    assert red == I4


def test_reduce_mt2():
    p = 3
    mt2 = generator("Mt2", p)
    word, red = reduce_first_row(mt2, p)
    assert word.letters == (Named("Mt2", -1),)
    assert red.rows[0] == (1, 0, 0, 0)
    assert mt2 * word.replay() == red


def test_reduce_contract_on_corpus():
    p = 3
    for i, k in enumerate(tilde_corpus(p, 100, 600)):
        word, red = reduce_first_row(k, p)
        assert red.rows[0] == (1, 0, 0, 0), i
        assert k * word.replay() == red
        for letter in word.letters:
            assert isinstance(letter, (Named, J1))
            if isinstance(letter, Named):
                assert letter.name in ("Mt1", "Mt2", "Mt3", "Mt4")
                assert letter.exp != 0
            else:
                assert letter.payload.det() == 1


def test_reduce_keeps_membership_at_every_step():
    # each emitted multiplier is itself a group element, so all
    # intermediate products stay inside the group
    p = 5
    for k in tilde_corpus(p, 25, 1700, max_len=12):
        word, red = reduce_first_row(k, p)
        cur = k
        for letter in word.letters:
            cur = cur * GeneratorWord(p, True, (letter,)).replay()
            assert member(cur, GroupLabel.GAMMA_TILDE_1P, p)
        assert cur == red


def test_reduce_rejects_non_members():
    with pytest.raises(NotInGroup):
        reduce_first_row(generator("M2", 3), 3)  # plain coords, not tilde


def test_a_long_first_row_past_the_member_check_is_an_internal_fault(monkeypatch):
    # no member has a long first row, so only a predicate bug gets one past member
    dec = importlib.import_module("sp4cert.decompose")
    monkeypatch.setattr(dec, "member", lambda m, label, p: True)
    with pytest.raises(ShapeAssertionFailed) as exc:
        reduce_first_row(Mat4.diagonal(3, 1, 1, 1), 3)
    assert str(exc.value) == "first row (3, 0, 0, 0) is long at p=3"


def test_a_stalled_gcd_is_an_internal_fault(monkeypatch):
    # steps (a)-(c) end at gcd 1 on any short row; a j1 step that reports
    # twice its gcd stalls them at 2
    dec = importlib.import_module("sp4cert.decompose")
    k = sample(SampleSpec(GroupLabel.GAMMA_TILDE_1P, 5, 7, 6))
    real = dec._Reducer.gcd_clear_v3
    monkeypatch.setattr(dec._Reducer, "gcd_clear_v3", lambda self: 2 * real(self))
    with pytest.raises(ShapeAssertionFailed) as exc:
        reduce_first_row(k, 5)
    assert str(exc.value) == "gcd stalled at 2; first row was not short"


# --- decompose -------------------------------------------------------------


def test_decompose_identity_is_empty():
    assert decompose(I4, 3, tilde=True).letters == ()
    assert decompose(I4, 3, tilde=False).letters == ()


def test_decompose_m2_untilded():
    p = 5
    m2 = generator("M2", p)
    word = decompose(m2, p, tilde=False)
    assert word.replay() == m2
    assert not word.tilde


def test_decompose_product_example():
    p = 3
    k = j2_embed(Mat2.of(1, 0, p, 1), p) * generator("M3", p) * generator("M0", p)
    word = decompose(k, p, tilde=False)
    assert word.replay() == k


def test_decompose_rejects_non_members():
    with pytest.raises(NotInGroup):
        decompose(generator("Mt2", 3), 3, tilde=False)
    with pytest.raises(NotInGroup):
        decompose(generator("M2", 3), 3, tilde=True)


@pytest.mark.parametrize("p", [3, 7])
def test_plain_decompose_rejects_each_kind_of_non_member(p):
    off_form = Mat4([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    moduli, residues = _pattern(GroupLabel.GAMMA_1P, p)[0][1]
    assert tuple(x % n for x, n in zip(off_form.scaled()[1], moduli)) == residues
    assert not symplectic_check(off_form, SymplecticForm.standard())
    slot = j2_embed(Mat2.of(1, 0, 1, 1), p)
    assert member(slot, GroupLabel.GAMMA0_1P, p) and slot.rows[3][1] == Fraction(1, p)
    tilde_member = sample(SampleSpec(GroupLabel.GAMMA_TILDE_1P, p, 11, 8))
    assert not member(tilde_member, GroupLabel.GAMMA_1P, p)
    cases = (
        Mat4([[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        off_form,  # integral, on the congruence pattern, not symplectic
        slot,
        tilde_member,
    )
    for k in cases:
        with pytest.raises(NotInGroup) as exc:
            decompose(k, p, tilde=False)
        assert str(exc.value) == f"not in gamma_1p at p={p}"


@pytest.mark.parametrize("first", [(2, 0, 3, 0), (0, 1, 0, 0), (-1, 0, 0, 0)])
def test_a_gcd_step_that_leaves_v3_or_a_nonpositive_v1_is_caught(monkeypatch, first):
    # the reducer checks its own j1 gcd step; an identity step clears nothing
    dec = importlib.import_module("sp4cert.decompose")
    monkeypatch.setattr(dec, "_gcd_step_matrix", lambda a, c: Mat2.identity())
    cur = Mat4([list(first), [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ShapeAssertionFailed, match="did not clear v3 to a positive v1"):
        dec._Reducer(cur, 3).gcd_clear_v3()


def test_a_j2_block_or_residue_off_its_shape_is_caught(monkeypatch):
    # _decompose_tilde checks the j2 clear and the residue itself, before any replay
    dec = importlib.import_module("sp4cert.decompose")
    k = sample(SampleSpec(GroupLabel.GAMMA_TILDE_1P, 5, 7, 6))
    with monkeypatch.context() as patch:
        patch.setattr(dec, "member", lambda m, label, p: label != GroupLabel.GAMMA1_OF_P
                      and member(m, label, p))
        with pytest.raises(ShapeAssertionFailed, match="does not clear rows 2 and 4"):
            dec._decompose_tilde(k, 5)
    cleared = dec._cleared_shape
    monkeypatch.setattr(dec, "_cleared_shape", lambda cur, p: (cleared(cur, p)[0] + 1, 0))
    with pytest.raises(ShapeAssertionFailed, match="residue is not a j1 shear"):
        dec._decompose_tilde(k, 5)


def test_plain_decompose_tests_the_input_and_its_conjugate(monkeypatch):
    dec = importlib.import_module("sp4cert.decompose")
    seen = []

    def spy(m, label, p):
        seen.append((GroupLabel(label), m))
        return member(m, label, p)

    monkeypatch.setattr(dec, "member", spy)
    p = 5
    for i in range(6):
        k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 8100 + i, 4 + i))
        conjugate = r_conjugate(k, p)
        seen.clear()
        dec.decompose(k, p, tilde=False)
        assert seen[:2] == [(GroupLabel.GAMMA_1P, k), (GroupLabel.GAMMA_TILDE_1P, conjugate)]
        seen.clear()
        dec.decompose(conjugate, p, tilde=True)
        assert seen[0] == (GroupLabel.GAMMA_TILDE_1P, conjugate)
        assert GroupLabel.GAMMA_1P not in [label for label, _ in seen]


@pytest.mark.parametrize("label", [GroupLabel.GAMMA_1P, GroupLabel.GAMMA_TILDE_1P])
def test_decompose_reduces_and_replays_once(monkeypatch, label):
    dec = importlib.import_module("sp4cert.decompose")
    calls = []
    reduce, replay = dec.reduce_first_row, dec.GeneratorWord.replay
    monkeypatch.setattr(dec, "reduce_first_row", lambda *a: calls.append("reduce") or reduce(*a))
    monkeypatch.setattr(
        dec.GeneratorWord, "replay", lambda word: calls.append("replay") or replay(word)
    )
    p = 7
    for i in range(8):
        k = sample(SampleSpec(label, p, 8300 + i, 2 * i))
        calls.clear()
        dec.decompose(k, p, tilde=label is GroupLabel.GAMMA_TILDE_1P)
        assert calls == ["reduce", "replay"]


@pytest.mark.parametrize("label", [GroupLabel.GAMMA_1P, GroupLabel.GAMMA_TILDE_1P])
def test_decompose_forms_no_dense_product(monkeypatch, label):
    # the reducer, the residue check and replay apply each letter as column
    # operations on the matrix it multiplies
    p = 7
    corpus = [sample(SampleSpec(label, p, 8400 + i, i)) for i in range(21)]
    monkeypatch.setattr(Mat4, "__mul__", lambda *a: pytest.fail("Mat4 product"))
    monkeypatch.setattr(Mat4, "__pow__", lambda *a: pytest.fail("Mat4 power"))
    for k in corpus:
        decompose(k, p, tilde=label is GroupLabel.GAMMA_TILDE_1P)


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_decompose_does_no_fraction_arithmetic(monkeypatch, p):
    # members are integral: past the parse, the whole path runs on integer rows
    plain = [sample(SampleSpec(GroupLabel.GAMMA_1P, p, 9000 + i, i % 21)) for i in range(21)]
    tilde = tilde_corpus(p, 21, 9500)
    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, lambda *a, name=name: pytest.fail(f"Fraction.{name}"))
    plain_words = [decompose(k, p, tilde=False) for k in plain]
    tilde_words = [decompose(k, p, tilde=True) for k in tilde]
    monkeypatch.undo()
    assert [w.replay() for w in plain_words] == plain
    assert [w.replay() for w in tilde_words] == tilde


def test_decompose_replay_on_corpus():
    for p in (3, 5, 7):
        for i, k in enumerate(tilde_corpus(p, 60, 100 * p)):
            word = decompose(k, p, tilde=True)
            assert word.replay() == k, (p, i)


def test_decompose_untilded_matches_conjugation():
    p = 3
    for i in range(40):
        m = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 5200 + i, i % 15))
        word = decompose(m, p, tilde=False)
        assert word.replay() == m
        tilde_word = decompose(r_conjugate(m, p), p, tilde=True)
        # letterwise mapping: same payloads, names differ only by the tilde
        assert len(word.letters) == len(tilde_word.letters)
        for plain, tl in zip(word.letters, tilde_word.letters):
            if isinstance(plain, Named):
                assert isinstance(tl, Named)
                assert tl.name == "Mt" + plain.name[1:]
                assert tl.exp == plain.exp
            else:
                assert type(plain) is type(tl)
                assert plain.payload == tl.payload


def test_decompose_j2_payloads_valid():
    p = 3
    seen_j2 = 0
    for i, k in enumerate(tilde_corpus(p, 80, 4400)):
        for letter in decompose(k, p, tilde=True).letters:
            if isinstance(letter, J2):
                seen_j2 += 1
                assert member(letter.payload, GroupLabel.GAMMA1_OF_P, p)
            elif isinstance(letter, J1):
                assert letter.payload.det() == 1
    assert seen_j2 > 0


def test_intermediates_stay_in_group():
    p = 3
    for k in tilde_corpus(p, 20, 2500, max_len=10):
        word = decompose(k, p, tilde=True)
        # walking the word from the left stays inside the group
        cur = I4
        for letter in word.letters:
            cur = cur * GeneratorWord(p, True, (letter,)).replay()
            assert member(cur, GroupLabel.GAMMA_TILDE_1P, p)
        assert cur == k


# --- integer replay against the Fraction product ---------------------------

ALPHABET = {False: ("M1", "M2", "M3", "M4"), True: ("Mt1", "Mt2", "Mt3", "Mt4")}
EXPONENTS = st.one_of(
    st.sampled_from((0, 1, -1, 10**6, -(10**6))), st.integers(-(10**6), 10**6)
)


@st.composite
def sl2_payload(draw):
    """A product of powers of T and U: any SL(2,Z) element."""
    acc = Mat2.identity()
    for _ in range(draw(st.integers(0, 5))):
        letter = Mat2.of(1, 1, 0, 1) if draw(st.booleans()) else Mat2.of(1, 0, 1, 1)
        acc = acc * letter ** draw(st.integers(-9, 9))
    return acc


@st.composite
def letters(draw, tilde):
    """A letter of the ``tilde`` or plain alphabet: a named power, a j1
    payload, or a j2 payload (plain j2 payloads with p not dividing c
    included; those put c/p in the (4,2) slot)."""
    kind = draw(st.sampled_from(("named", "j1", "j2")))
    if kind == "named":
        return Named(draw(st.sampled_from(ALPHABET[tilde])), draw(EXPONENTS))
    return (J1 if kind == "j1" else J2)(draw(sl2_payload()))


@st.composite
def words(draw):
    """A word at p in {3, 5, 7, 11} in either coordinates, over its own alphabet."""
    tilde = draw(st.booleans())
    return GeneratorWord(
        p=draw(st.sampled_from((3, 5, 7, 11))),
        tilde=tilde,
        letters=tuple(draw(st.lists(letters(tilde), max_size=6))),
    )


# --- letters applied as column operations ------------------------------------

DIFF = settings(max_examples=80, deadline=None)
RATIONAL = st.fractions(-50, 50, max_denominator=12)
WIDE_EXPONENTS = st.one_of(
    st.sampled_from((0, 1, -1, 2**130, -(2**130))), st.integers(-(2**130), 2**130)
)


@st.composite
def dense(draw, entries=RATIONAL):
    return Mat4([[draw(entries) for _ in range(4)] for _ in range(4)])


def dense_letter(letter, p, tilde):
    """A letter's tilde matrix as 4x4 rows, written here from the module
    table of ``generators`` (the identity plus e times the twin's
    entries) and the j1 (1,3) and j2 (2,4) coordinates."""
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    if isinstance(letter, Named):
        twin = "Mt" + letter.name[2 if tilde else 1:]
        for (i, j), x in _ENTRIES[twin](p).items():
            rows[i - 1][j - 1] += letter.exp * x
        return rows
    first, second = (0, 2) if isinstance(letter, J1) else (1, 3)
    (a, b), (c, d) = letter.payload.rows
    rows[first][first], rows[first][second] = a, b
    rows[second][first], rows[second][second] = c, d
    return rows


@DIFF
@given(
    st.one_of(dense(), dense(st.integers(-(10**12), 10**12))),
    WIDE_EXPONENTS,
    sl2_payload(),
)
def test_letter_product_matches_full_product(acc, exp, payload):
    # the reducer, replay and the residue check right-multiply by a letter
    # as column operations; every letter of both alphabets, on integer
    # (d = 1) and rational (d > 1) matrices, against the dense triple sum.
    # Each letter's inverse undoes it, it is the identity exactly when its
    # dense matrix is, and its JSON reads back; the tilde letters' plain
    # twins replay to the R^-1-conjugate of the tilde word
    for tilde in (False, True):
        letters = (*(Named(name, exp) for name in ALPHABET[tilde]), J1(payload), J2(payload))
        for p in (3, 11):
            for letter in letters:
                # Mat4 of Fraction rows reduces its pair: equal pairs also
                # show that the column action keeps its pair reduced
                rows = dense_letter(letter, p, tilde)
                product = letter.times(acc, p, tilde)
                assert product == Mat4(reference_product(acc.rows, rows))
                assert letter.inverse().times(product, p, tilde) == acc
                assert letter.is_identity() == (Mat4(rows) == I4)
            word = GeneratorWord(p, tilde, letters)
            assert GeneratorWord.from_json_obj(json.loads(json.dumps(word.to_json_obj()))) == word
            if tilde:
                plain = GeneratorWord(p, False, tuple(letter.plain() for letter in letters))
                assert plain.replay() == r_conjugate(word.replay(), p, inverse=True)


@DIFF
@given(st.lists(st.integers(-(10**12), 10**12), min_size=16, max_size=16),
       st.integers(2, 10**6), WIDE_EXPONENTS)
def test_times_power_matches_full_product_for_every_table_row(flat, d, exp):
    # every row of the table, M0 and L1..L5 included, at exponent 0, a
    # negative one and a wide one, on the pairs (1, flat) and (d, flat),
    # gcd(d, *flat) = 1, against the integer triple sum flat (1 + e N):
    # the shears keep d and leave the pair reduced
    flat[0] = 1
    rows = [flat[k:k + 4] for k in (0, 4, 8, 12)]
    for scale in (1, d):
        m = Mat4.from_pair(scale, tuple(flat))
        for name, entries in _ENTRIES.items():
            for p in (3, 11, 10**9 + 7):
                for e in (0, -(p + 2), exp):
                    shear = [[int(i == j) for j in range(4)] for i in range(4)]
                    for (i, j), x in entries(p).items():
                        shear[i - 1][j - 1] += e * x
                    expect = sum(reference_product(rows, shear), ())
                    assert times_power(m, name, p, e).scaled() == (scale, expect)


@DIFF
@given(dense(), dense(st.one_of(st.just(0), st.just(1), RATIONAL)))
def test_letter_product_matches_full_product_for_any_matrix(acc, s):
    out = acc * s
    assert ReferenceMat4.of(out) == ReferenceMat4.of(acc) * ReferenceMat4.of(s)
    assert fraction_entries(out)


@settings(max_examples=300, deadline=None)
@given(words())
def test_integer_replay_matches_the_fraction_product(word):
    replayed = word.replay()
    assert replayed == reference_replay(word)
    assert fraction_entries(replayed)
    for letter in word.letters:
        single = GeneratorWord(word.p, word.tilde, (letter,))
        matrix = single.replay()
        assert matrix == reference_replay(single)
        assert fraction_entries(matrix)


# --- a word's letters come from its own alphabet ---------------------------

FOREIGN = {False: ("Mt1", "Mt4", "M0", "L3", "P", "R", "J", "Lambda", "M5"),
           True: ("M1", "M4", "M0", "L3", "P", "R", "J", "Lambda", "Mt0")}


@pytest.mark.parametrize("tilde", [False, True])
def test_foreign_names_are_refused(tilde):
    coords = "tilde" if tilde else "untilded"
    for name in FOREIGN[tilde] + (7, None, ["M1"]):
        obj = {"p": 3, "coords": coords, "letters": [{"gen": name, "exp": 1}]}
        with pytest.raises(ParseError, match="letter 0"):
            GeneratorWord.from_json_obj(obj)
    for name in FOREIGN[tilde]:
        word = GeneratorWord(3, tilde, (Named(name, 1),))
        with pytest.raises(UnknownName):
            word.replay()
    for name in ALPHABET[tilde]:
        obj = {"p": 3, "coords": coords, "letters": [{"gen": name, "exp": 2}]}
        assert GeneratorWord.from_json_obj(obj).replay() == generator(name, 3) ** 2


def test_bad_prime_and_bad_payload_raise_at_replay():
    shear = J1(Mat2.of(1, 0, 4, 1))
    for p in (9, 2, 1):
        with pytest.raises(BadPrime):
            GeneratorWord(p, True, (shear,)).replay()  # a j1-only word too
        with pytest.raises(BadPrime):
            GeneratorWord(p, False, ()).replay()
    for kind in (J1, J2):
        for tilde in (False, True):
            with pytest.raises(NotUnimodular):
                GeneratorWord(3, tilde, (kind(Mat2.of(2, 0, 0, 1)),)).replay()


# --- the normal form of a word -------------------------------------------


def _kind(letter):
    """Letters of one kind merge: a named letter by name, j1 and j2 by type."""
    return letter.name if isinstance(letter, Named) else type(letter)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_words_hold_no_identity_and_no_adjacent_letters_of_one_kind(p):
    # decompose merges only its residue shear; this is the invariant that
    # leaves no other merge to make
    for group, tilde in ((GroupLabel.GAMMA_1P, False), (GroupLabel.GAMMA_TILDE_1P, True)):
        for i in range(310):
            k = sample(SampleSpec(group, p, 7000 + 1000 * p + i, i % 31))
            letters = decompose(k, p, tilde=tilde).letters
            assert not any(
                letter.exp == 0 if isinstance(letter, Named) else letter.payload.is_identity()
                for letter in letters
            ), (p, tilde, i)
            kinds = [_kind(letter) for letter in letters]
            assert all(a != b for a, b in zip(kinds, kinds[1:])), (p, tilde, i)


def test_the_residue_shear_merges_with_a_leading_j1_letter():
    # the reducer logs one j1 gcd step and leaves a shear, so the word is
    # the shear times that step's inverse: one letter, not two
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 10033, 2))
    step, shear = Mat2.of(-1, 2, -1, 1), Mat2.of(1, 0, -5, 1)
    log, reduced = reduce_first_row(r_conjugate(k, 3), 3)
    assert (log.letters, reduced) == ((J1(step),), j1_embed(shear))
    word = decompose(k, 3, tilde=False)
    assert word == GeneratorWord(3, False, (J1(shear * step.inv()),))
    assert word.letters == (J1(Mat2.of(1, -2, -4, 9)),)


def _letter_class_tests(source):
    """Lines of the ``isinstance`` calls in ``source`` that name a letter class."""
    classes = {"Named", "J1", "J2", "_Block", "Letter"}
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and classes & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    ]


def test_decompose_tests_no_letter_class():
    # each letter kind carries its action (times, inverse, is_identity,
    # plain, to_json_obj), so decompose dispatches on no letter's class
    source = Path(importlib.import_module("sp4cert.decompose").__file__).read_text()
    assert _letter_class_tests(source) == []
    assert _letter_class_tests("f(x)\nisinstance(x, (int, J2))\nisinstance(x, Mat2)") == [2]


# --- small letters: each letter's class mod p^2, with small entries ---------

SMALL_PRIMES = (3, 5, 7, 11, 10**9 + 7)


def _congruent(a, b, n: int) -> bool:
    """Two integral matrices agree entrywise mod n."""
    return all((x - y) % n == 0 for x, y in zip(a.scaled()[1], b.scaled()[1])) and a.scaled()[0] == b.scaled()[0] == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_named_small_is_the_symmetric_residue_mod_p2(p):
    p2, half = p * p, p * p // 2
    for name in ALPHABET[False]:
        for e in (*range(-2 * p2, 2 * p2 + 1), 10**30 + 7, -(10**30) - 7):
            letter = Named(name, e)
            small = letter.small(p)
            assert small.name == name and (small.exp - e) % p2 == 0 and -half <= small.exp <= half
            assert (small is letter) == (small.exp == e)
            assert _congruent(generator(name, p) ** e if abs(e) < 10**6 else small_power(name, p, e),
                              generator(name, p) ** small.exp, p2)


def small_power(name: str, p: int, e: int) -> Mat4:
    """``generator(name, p) ** e`` as the identity plus e times its table entries."""
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    for (i, j), x in _ENTRIES[name](p).items():
        rows[i - 1][j - 1] += e * x
    return Mat4(rows)


@st.composite
def block_letters(draw):
    """``(p, letter)``: a j1 letter over an SL(2,Z) sample, or a j2 letter
    over a gamma1_of_p sample, long enough to pass the lift's threshold."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    kind = draw(st.sampled_from((J1, J2)))
    label = GroupLabel.SL2Z if kind is J1 else GroupLabel.GAMMA1_OF_P
    spec = SampleSpec(label, p, draw(st.integers(0, 10**6)), draw(st.integers(0, 60)))
    return p, kind(sample(spec))


@settings(max_examples=300, deadline=None)
@given(block_letters())
def test_block_small_keeps_the_class_and_shrinks_the_payload(case):
    p, letter = case
    m = p ** (2 if isinstance(letter, J1) else 3)
    small = letter.small(p)
    _, (a, b, c, d) = letter.payload.scaled()
    if max(abs(a), abs(b), abs(c), abs(d)) <= m * m:
        assert small is letter
        return
    assert type(small) is type(letter) and small.payload.det() == 1
    assert _congruent(small.payload, letter.payload, m)
    # d (c when m divides it) moved from its symmetric residue by the least t m
    # that makes c and d coprime, and the top row is then at most about m^2 (t + 1)
    _, (a1, b1, c1, d1) = small.payload.scaled()
    half = m // 2
    if c % m:
        t, rest = divmod(d1 - ((d + half) % m - half), m)
        assert rest == 0 and 0 <= t < abs(c1)
        assert all(math.gcd(c1, d1 - u * m) != 1 for u in range(1, t + 1))
    elif abs(d1) == 1:
        assert (a1, b1, c1, d1) == tuple((x + half) % m - half for x in (a, b, c, d))
        return
    else:
        t = 0
        assert c1 == m
    assert abs(a1) <= m * abs(c1) // 2 and max(abs(a1), abs(b1)) <= m * m * (t + 1)
    if isinstance(letter, J1):
        assert _congruent(j1_embed(small.payload), j1_embed(letter.payload), p * p)
    else:
        assert member(small.payload, GroupLabel.GAMMA1_OF_P, p)
        assert _congruent(j2_embed(small.payload, p), j2_embed(letter.payload, p), p * p)


@pytest.mark.parametrize("p", [3, 5])
def test_a_block_is_lifted_only_past_the_square_of_its_modulus(p):
    for kind, m in ((J1, p * p), (J2, p ** 3)):
        for sign in (1, -1):
            at = kind(Mat2.of(1, sign * m * m, 0, 1))
            past = kind(Mat2.of(1, sign * (m * m + p), 0, 1))
            assert at.small(p) is at
            assert past.small(p) == kind(Mat2.of(1, sign * p, 0, 1))
    between = J2(Mat2.of(1, p**4 + p, 0, 1))  # past p^4, not past p^6: j2's level is 3
    assert between.small(p) is between


def test_lift_moves_c_when_the_modulus_divides_it():
    m = 25
    for q in (Mat2.of((1 + 3 * m) // 2, 1, 3 * m, 2), Mat2.of(37, -27, -4 * m, 73)):
        out = _lift(q, m)
        assert out.det() == 1 and _congruent(out, q, m) and out.rows[1] == (m, (q.rows[1][1] + 12) % m - 12)
    # with d = +-1 as well, the residues are the lift
    for q in (Mat2.of(1, 0, -3 * m, 1), Mat2.of(-1, 7 + 7 * m, 7 * m, -1), Mat2.of(1 + m, 12, m, 1)):
        assert _lift(q, m) == Mat2.of(*[(x + 12) % m - 12 for x in q.scaled()[1]])


def test_lift_refuses_a_bottom_row_that_no_unimodular_matrix_has():
    # (c, d) = (p, p) or (0, p) mod p^2 is no bottom row of SL(2, Z/p^2): no t
    # makes c and d + t p^2 coprime, and the lift says so before it searches,
    # at once even where c is near 10^9
    big = 10**9 + 7
    for q, m, row in ((Mat2.of(1, 0, 3, 3), 9, "(3, 3)"), (Mat2.of(1, 0, -3, -3), 9, "(-3, -3)"),
                      (Mat2.of(1, 0, 0, 3), 9, "(0, 3)"), (Mat2.of(1, 0, big, big), big * big, f"({big}, {big})")):
        with pytest.raises(ShapeAssertionFailed, match=f"^{re.escape(row)} is no bottom row of SL\\(2, Z/{m}\\)$"):
            _lift(q, m)


@pytest.mark.parametrize("wrong", ["residues", "off class"])
def test_block_small_checks_its_lift(monkeypatch, wrong):
    decompose_module = importlib.import_module("sp4cert.decompose")
    real = decompose_module._lift
    bad = {
        "residues": lambda q, m: Mat2.of(*[(x + m // 2) % m - m // 2 for x in q.scaled()[1]]),
        "off class": lambda q, m: real(q, m) * Mat2.of(1, 1, 0, 1),
    }[wrong]
    monkeypatch.setattr(decompose_module, "_lift", bad)
    letter = J1(Mat2.of(-8294, 1659, -5, 1))  # its residues mod 9 have det 7
    with pytest.raises(ShapeAssertionFailed, match="the lift of"):
        letter.small(3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_small_word_is_the_input_mod_p2(p):
    # r, each letter of k's plain word replaced by its small twin, lies in
    # gamma_1p and k r^-1 in gamma_p2
    for k in [sample(SampleSpec(GroupLabel.GAMMA_1P, p, 700 + n, n)) for n in range(21)]:
        word = decompose(k, p, tilde=False)
        r = GeneratorWord(p, False, tuple(letter.small(p) for letter in word.letters)).replay()
        assert member(r, GroupLabel.GAMMA_1P, p) and member(k * r.inv(), GroupLabel.GAMMA_P2, p)


# --- serialisation ---------------------------------------------------------


def test_word_json_round_trip():
    p = 3
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 31, 9))
    word = decompose(k, p, tilde=False)
    obj = word.to_json_obj()
    text = json.dumps(obj)
    back = GeneratorWord.from_json_obj(json.loads(text))
    assert back == word
    assert back.replay() == k


@pytest.mark.parametrize("coords, names", [("untilded", "M1, M2, M3, M4"), ("tilde", "Mt1, Mt2, Mt3, Mt4")])
def test_word_json_names_the_letters_of_its_coords(coords, names):
    obj = {"p": 3, "coords": coords, "letters": [{"gen": "M5", "exp": 1}]}
    with pytest.raises(ParseError) as info:
        GeneratorWord.from_json_obj(obj)
    assert str(info.value) == f"letter 0: gen must be one of {names} in {coords} coords"


def test_word_json_rejects_junk():
    with pytest.raises(ParseError):
        GeneratorWord.from_json_obj({"p": 3, "coords": "spiral", "letters": []})
    with pytest.raises(ParseError):
        GeneratorWord.from_json_obj({"p": 3, "coords": "tilde", "letters": [{}]})
    with pytest.raises(ParseError):
        GeneratorWord.from_json_obj([1, 2, 3])
    with pytest.raises(ParseError, match="word header malformed"):
        GeneratorWord.from_json_obj({"p": 3, "letters": []})
    with pytest.raises(ParseError, match="letters must be a list"):
        GeneratorWord.from_json_obj({"p": 3, "coords": "tilde", "letters": {"gen": "Mt1"}})
    with pytest.raises(ParseError, match="letter 0 malformed"):
        GeneratorWord.from_json_obj({"p": 3, "coords": "tilde", "letters": [["Mt1", 1]]})
    for p in (3.9, True, "3"):  # not truncated or coerced
        with pytest.raises(ParseError, match="must be an integer"):
            GeneratorWord.from_json_obj({"p": p, "coords": "untilded", "letters": []})


@pytest.mark.parametrize("exp", ["x", None, "7" * 5001, 2.7, True, "2"])
def test_word_json_bad_exponent_is_a_parse_error(exp):
    # a non-number, null, a string past the int/str conversion limit, and
    # a float, a bool and a digit string, none of them truncated or coerced
    obj = {"p": 3, "coords": "untilded", "letters": [{"gen": "M1", "exp": exp}]}
    with pytest.raises(ParseError, match="letter 0"):
        GeneratorWord.from_json_obj(obj)


# --- the replay check ------------------------------------------------------


def test_replay_check_survives_python_optimise_flag():
    # each inverted named letter is off by one; the replay check alone can see it
    script = textwrap.dedent("""
        import importlib

        from sp4cert.errors import ShapeAssertionFailed
        from sp4cert.generators import generator

        assert False, "python -O was expected to strip this"
        dec = importlib.import_module("sp4cert.decompose")
        invert = dec.Named.inverse

        def corrupt(letter):
            inverse = invert(letter)
            return dec.Named(inverse.name, inverse.exp + 1)

        dec.Named.inverse = corrupt
        for tilde, name in ((True, "Mt2"), (False, "M2")):
            try:
                dec.decompose(generator(name, 3), 3, tilde=tilde)
            except ShapeAssertionFailed:
                print("rejected")
        """)
    src = str(Path(sp4cert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rejected", "rejected"]
