import hashlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sp4cert
from sp4cert import sl2
from sp4cert.errors import NotInGroup, NotUnimodular, ShapeAssertionFailed
from sp4cert.groups import GroupLabel, member
from sp4cert.matrices import Mat2
from sp4cert.sampling import SampleSpec, sample
from sp4cert.sl2 import (
    ConjugateBy,
    Gamma1pSteps,
    MultiplyLeftP,
    MultiplyLeftPrime,
    S,
    Sl2Word,
    T,
    U,
    gamma1p_generate,
    normal_closure_decompose,
    sl2_decompose,
)


def test_decompose_t():
    assert sl2_decompose(T).letters == (("T", 1),)


def test_decompose_tu():
    word = sl2_decompose(Mat2.of(2, 1, 1, 1))
    assert word.letters == (("T", 1), ("U", 1))
    assert word.replay() == Mat2.of(2, 1, 1, 1)


def test_decompose_s():
    assert sl2_decompose(S).letters == (("T", -1), ("U", 1), ("T", -1))
    assert (T ** -1) * U * (T ** -1) == S


def test_decompose_minus_identity():
    word = sl2_decompose(Mat2.of(-1, 0, 0, -1))
    assert word.replay() == Mat2.of(-1, 0, 0, -1)


def test_decompose_rejects_other_determinants():
    with pytest.raises(NotUnimodular):
        sl2_decompose(Mat2.of(1, 0, 0, -1))


@pytest.mark.parametrize("a", [Mat2.of(1, 0, 0, 2), Mat2.of(2, 0, 0, 2)])
def test_a_euclid_run_off_the_diagonal_is_an_internal_fault(monkeypatch, a):
    # no input reaches this raise: past the determinant check, Euclid ends
    # with c = 0 and x w = 1, so x = w = +-1; each case fails one half of it
    monkeypatch.setattr(sl2, "_require_unimodular", lambda m: None)
    with pytest.raises(ShapeAssertionFailed) as caught:
        sl2_decompose(a)
    assert str(caught.value) == f"Euclid did not end on a diagonal +-1: {a.rows}"


def test_decompose_replay_seeded():
    for i in range(300):
        a = sample(SampleSpec(GroupLabel.SL2Z, 3, 1000 + i, i % 31))
        assert sl2_decompose(a).replay() == a


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-4, 4)), max_size=10))
def test_decompose_replay_hypothesis(spec):
    a = Mat2.identity()
    for is_t, e in spec:
        a = a * (T if is_t else U) ** e
    assert sl2_decompose(a).replay() == a


def test_normal_closure_t():
    factors = normal_closure_decompose(T).factors
    assert len(factors) == 1
    assert factors[0].conjugator == Mat2.identity() and factors[0].exp == 1


def test_normal_closure_u():
    factors = normal_closure_decompose(U).factors
    assert len(factors) == 1
    assert factors[0].conjugator == S and factors[0].exp == -1
    assert S * T ** -1 * S.inv() == U


def test_normal_closure_tu():
    factors = normal_closure_decompose(Mat2.of(2, 1, 1, 1)).factors
    assert [(f.conjugator, f.exp) for f in factors] == [
        (Mat2.identity(), 1),
        (S, -1),
    ]


def _one_factor_per_letter(a: Mat2) -> sl2.ConjugateList:
    """The conjugate list of ``a``, checked to replay, to hold one factor
    per letter of a's word and to form at most three ``Mat2`` products a
    letter however wide the exponents: no work per unit of exponent."""
    products, real = [], Mat2.__mul__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Mat2, "__mul__", lambda x, y: products.append(1) or real(x, y))
        cl = normal_closure_decompose(a)
    letters = len(sl2_decompose(a).letters)
    assert len(cl.factors) == letters
    assert len(products) <= 3 * letters
    assert cl.replay() == a
    return cl


def test_normal_closure_replay_seeded():
    for i in range(200):
        a = sample(SampleSpec(GroupLabel.SL2Z, 3, 2000 + i, i % 17))
        for f in _one_factor_per_letter(a).factors:
            assert f.conjugator.det() == 1
            assert f.exp != 0


def test_a_t_power_is_one_factor():
    factors = normal_closure_decompose(Mat2.of(1, 50, 0, 1)).factors
    assert factors == (sl2.ConjugateFactor(Mat2.identity(), 50),)


def test_gamma1p_base_generator():
    p = 3
    steps = gamma1p_generate(Mat2.of(1, 0, p, 1), p)
    assert steps.steps == (MultiplyLeftP(1),)
    assert steps.replay() == Mat2.of(1, 0, p, 1)


def test_gamma1p_prime_element():
    p = 3
    q = Mat2.of(1, p, 0, 1)
    steps = gamma1p_generate(q, p)
    assert steps.steps == (MultiplyLeftPrime(q),)


def test_gamma1p_case_two_example():
    p = 3
    q = Mat2.of(4, 3, 9, 7)
    assert q.det() == 1
    steps = gamma1p_generate(q, p)
    assert steps.replay() == q
    assert steps.cases_applied == (1, 2)
    conjs = [s for s in steps.steps if isinstance(s, ConjugateBy)]
    assert len(conjs) == 1
    # k = 1 is the smallest nonnegative representative of lam/alf mod 3
    assert conjs[0].conjugator == Mat2.of(1, 0, -1, 1)


def test_gamma1p_case_three_chain():
    p = 5
    # lam = 1 (coprime to 5) and alf = 5 (divisible by 5), so the full
    # (3) -> (2) -> (1) chain fires; det = 6*21 - 25*5 = 1
    q = Mat2.of(6, 25, 5, 21)
    assert q.det() == 1
    steps = gamma1p_generate(q, p)
    assert steps.replay() == q
    assert steps.cases_applied == (1, 2, 3)


def test_gamma1p_identity():
    steps = gamma1p_generate(Mat2.identity(), 3)
    assert steps.steps == ()
    assert steps.replay() == Mat2.identity()


def test_gamma1p_rejects_non_members():
    with pytest.raises(NotInGroup):
        gamma1p_generate(T, 3)


def test_gamma1p_replay_and_depth_seeded():
    p = 3
    for i in range(300):
        q = sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, 3000 + i, i % 9))
        steps = gamma1p_generate(q, p)
        assert steps.replay() == q
        assert len(steps.cases_applied) <= 3
        for step in steps.steps:
            if isinstance(step, MultiplyLeftPrime):
                assert member(step.element, GroupLabel.GAMMA1PRIME_P2, p)
            elif isinstance(step, ConjugateBy):
                assert step.conjugator.det() == 1


def test_gamma1p_sampler_pattern_stability():
    # random conjugated products used by the sampler stay in the group
    p = 7
    rng = random.Random(15)
    for i in range(100):
        q = sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, rng.randrange(10**6), 6))
        assert member(q, GroupLabel.GAMMA1_OF_P, p)


# sha256 of repr((steps, cases_applied)) for gamma1_of_p samples over seeds
# 0..59 with word length seed % 9, recorded before the case chain was
# written straight-line
STEP_DIGESTS = {
    3: "87767111874d04660ec56ce61f93c4e36975e555abe8df4659ac422523e63d9f",
    5: "1e062537170a8b3768276c433f045f37f63f4f3fcb72fa74cf06175668d8f9e2",
    7: "c68ce3ec59cf1011e5bd606a0308c242bb103e13686b5119a62475879fe6a2f4",
}


@pytest.mark.parametrize("p", sorted(STEP_DIGESTS))
def test_gamma1p_steps_are_pinned(p):
    h = hashlib.sha256()
    cases = set()
    for seed in range(60):
        result = gamma1p_generate(sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, seed, seed % 9)), p)
        cases.add(result.cases_applied)
        h.update(repr((result.steps, result.cases_applied)).encode())
    assert cases == {(1,), (1, 2), (1, 2, 3)}
    assert h.hexdigest() == STEP_DIGESTS[p]


def test_gamma1p_case_one_payload_is_checked_explicitly(monkeypatch):
    def no_prime_members(m, label, p):
        return label is not GroupLabel.GAMMA1PRIME_P2 and member(m, label, p)

    monkeypatch.setattr(sl2, "member", no_prime_members)
    with pytest.raises(ShapeAssertionFailed, match="gamma1prime_p2"):
        gamma1p_generate(Mat2.of(6, 25, 5, 21), 5)


@st.composite
def gamma1_of_p_elements(draw):
    """``(q, p)``: q a product of level-p shears, each conjugated by an SL(2,Z) word."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    word = st.lists(st.tuples(st.sampled_from("TU"), st.integers(-3, 3)), max_size=3)
    q = Mat2.identity()
    for up, e, letters in draw(st.lists(st.tuples(st.booleans(), st.integers(-3, 3), word), max_size=4)):
        w = Sl2Word(tuple(letters)).replay()
        q = q * w * (Mat2.of(1, e * p, 0, 1) if up else Mat2.of(1, 0, e * p, 1)) * w.inv()
    return q, p


@settings(max_examples=200, deadline=None)
@given(gamma1_of_p_elements())
@example((Mat2.of(4, 3, 9, 7), 3))  # cases 1 and 2
@example((Mat2.of(6, 25, 5, 21), 5))  # cases 1, 2 and 3
def test_gamma1p_steps_never_start_with_a_conjugation(case):
    # certificates._j2_chain conjugates the node built so far, so it needs one
    q, p = case
    steps = gamma1p_generate(q, p).steps
    assert not steps or not isinstance(steps[0], ConjugateBy)


# --- the closed forms against the Mat2 powers they replace ------------------

EXPONENTS = st.integers(-(2 ** 130), 2 ** 130)
WORDS = st.lists(st.tuples(st.sampled_from("TU"), EXPONENTS), max_size=8)


def _mat2_product(letters) -> Mat2:
    acc = Mat2.identity()
    for name, e in letters:
        acc = acc * (T if name == "T" else U) ** e
    return acc


@settings(max_examples=150, deadline=None)
@given(WORDS)
def test_word_replay_is_the_product_of_mat2_powers(letters):
    expected = _mat2_product(letters)
    assert Sl2Word(tuple(letters)).replay() == expected
    assert sl2_decompose(expected).replay() == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("TU"), st.integers(-(2 ** 200), 2 ** 200)), max_size=8))
def test_one_factor_per_letter_of_wide_exponents(letters):
    _one_factor_per_letter(_mat2_product(letters))


UNIMODULAR = st.lists(st.tuples(st.sampled_from("TU"), st.integers(-9, 9)), max_size=4).map(_mat2_product)
STEPS = st.lists(
    st.one_of(
        EXPONENTS.map(MultiplyLeftP),
        UNIMODULAR.map(MultiplyLeftPrime),
        UNIMODULAR.map(ConjugateBy),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 7, 2 ** 61 - 1]), STEPS)
def test_step_replay_is_the_product_of_mat2_powers(p, steps):
    expected = Mat2.identity()
    for step in steps:
        if isinstance(step, MultiplyLeftP):
            expected = Mat2.of(1, 0, p, 1) ** step.exponent * expected
        elif isinstance(step, MultiplyLeftPrime):
            expected = step.element * expected
        else:
            expected = step.conjugator * expected * step.conjugator.inv()
    assert Gamma1pSteps(p, expected, tuple(steps), ()).replay() == expected


def test_replay_checks_survive_python_optimise_flag():
    # a dropped Euclid letter and a dropped step: only the replay checks can see them
    script = textwrap.dedent("""
        import dataclasses

        from sp4cert import sl2
        from sp4cert.errors import ShapeAssertionFailed
        from sp4cert.matrices import Mat2

        assert False, "python -O was expected to strip this"
        push, replay = sl2._push, sl2.Gamma1pSteps.replay

        def drop_u(letters, name, exp):
            if name != "U":
                push(letters, name, exp)

        def drop_first(steps):
            return replay(dataclasses.replace(steps, steps=steps.steps[1:]))

        sl2._push = drop_u
        try:
            sl2.sl2_decompose(Mat2.of(2, 1, 1, 1))
        except ShapeAssertionFailed as exc:
            print("rejected:", exc)
        sl2._push = push
        sl2.Gamma1pSteps.replay = drop_first
        try:
            sl2.gamma1p_generate(Mat2.of(6, 25, 5, 21), 5)
        except ShapeAssertionFailed as exc:
            print("rejected:", exc)
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
    assert done.stdout.splitlines() == [
        "rejected: SL(2) word does not replay to ((2, 1), (1, 1))",
        "rejected: gamma1_of_p steps do not replay to ((6, 25), (5, 21))",
    ]
