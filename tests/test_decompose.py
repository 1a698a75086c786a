import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sp4cert

from sp4cert.decompose import (
    GeneratorWord,
    J1,
    J2,
    Named,
    _times_letter,
    decompose,
    reduce_first_row,
)
from sp4cert.errors import NotInGroup, ParseError
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, j2_embed, member, r_conjugate
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
    assert tuple(red[0]) == (1, 0, 0, 0)
    assert mt2 * word.replay() == red


def test_reduce_contract_on_corpus():
    p = 3
    for i, k in enumerate(tilde_corpus(p, 100, 600)):
        word, red = reduce_first_row(k, p)
        assert tuple(int(x) for x in red[0]) == (1, 0, 0, 0), i
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
            cur = cur * word.letter_matrix(letter)
            assert member(cur, GroupLabel.GAMMA_TILDE_1P, p)
        assert cur == red


def test_reduce_rejects_non_members():
    with pytest.raises(NotInGroup):
        reduce_first_row(generator("M2", 3), 3)  # plain coords, not tilde


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
            cur = cur * word.letter_matrix(letter)
            assert member(cur, GroupLabel.GAMMA_TILDE_1P, p)
        assert cur == k


# --- letters applied by column operations ----------------------------------

DIFF = settings(max_examples=80, deadline=None)
RATIONAL = st.fractions(-50, 50, max_denominator=12)
NAMES = ("M1", "M2", "M3", "M4", "Mt1", "Mt2", "Mt3", "Mt4")


@st.composite
def dense(draw, entries=RATIONAL):
    return Mat4.from_rows(
        [[draw(entries) for _ in range(4)] for _ in range(4)]
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
def letter_matrices(draw):
    """Every kind of letter at p in {3, 5, 7}, built by ``letter_matrix``:
    named powers, j1 payloads, and tilde and plain j2 payloads (a plain
    payload puts c/p in its (4,2) slot)."""
    p = draw(st.sampled_from((3, 5, 7)))
    word = GeneratorWord(p=p, tilde=draw(st.booleans()), letters=())
    kind = draw(st.sampled_from(("named", "j1", "j2")))
    if kind == "named":
        exp = draw(st.sampled_from((0, 1, -1, 10**6, -(10**6))))
        return word.letter_matrix(Named(draw(st.sampled_from(NAMES)), exp))
    if kind == "j1":
        return word.letter_matrix(J1(draw(sl2_payload())))
    return word.letter_matrix(J2(draw(sl2_payload())))


@DIFF
@given(dense(), letter_matrices())
def test_letter_product_matches_full_product(acc, letter):
    assert _times_letter(acc, letter) == acc * letter


@DIFF
@given(dense(), dense(st.one_of(st.just(0), st.just(1), RATIONAL)))
def test_letter_product_matches_full_product_for_any_matrix(acc, s):
    out = _times_letter(acc, s)
    assert out == acc * s
    assert all(type(x) is Fraction for row in out.rows for x in row)


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


def test_word_json_rejects_junk():
    with pytest.raises(ParseError):
        GeneratorWord.from_json_obj({"p": 3, "coords": "spiral", "letters": []})
    with pytest.raises(ParseError):
        GeneratorWord.from_json_obj({"p": 3, "coords": "tilde", "letters": [{}]})
    with pytest.raises(ParseError):
        GeneratorWord.from_json_obj([1, 2, 3])
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
    # one emitted letter is corrupted; the replay check alone can see it
    script = textwrap.dedent("""
        import importlib

        from sp4cert.errors import ShapeAssertionFailed
        from sp4cert.generators import generator

        assert False, "python -O was expected to strip this"
        dec = importlib.import_module("sp4cert.decompose")
        simplify = dec._simplify_letters

        def corrupt(letters):
            first, *rest = simplify(letters)
            return (dec.Named(first.name, first.exp + 1), *rest)

        dec._simplify_letters = corrupt
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
