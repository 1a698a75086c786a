import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sp4cert.errors import BadPrime, DomainError, NotUnimodular, ZeroVector
from sp4cert.generators import generator
from sp4cert.groups import (
    TWO_BY_TWO_LABELS,
    GroupLabel,
    SymplecticForm,
    VectorClass,
    is_prime,
    j1_embed,
    j2_embed,
    member,
    r_conjugate,
    require_odd_prime,
    short_witness,
    symplectic_check,
    vector_class,
)
from sp4cert.matrices import Mat2, Mat4
from sp4cert.sampling import SampleSpec, sample
from sp4cert.sl2 import T, U

from support import (
    fraction_entries,
    mat4_det,
    mat4_sub,
    mat4_transpose,
    reference_member,
    reference_r_conjugate,
    reference_symplectic_check,
    tilde_j2,
)

I4 = Mat4.identity()
J = SymplecticForm.standard()


def lam_form(p):
    return SymplecticForm.polarised(p)


def gamma1p_corpus(p, count, seed):
    return [
        sample(SampleSpec(GroupLabel.GAMMA_1P, p, seed + i, i % 13))
        for i in range(count)
    ]


# --- symplectic_check ------------------------------------------------------


def test_symplectic_identity():
    assert symplectic_check(I4, J)


def test_symplectic_m2():
    assert symplectic_check(generator("M2", 5), J)


def test_symplectic_rejects_non_member():
    bad = Mat4(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert not symplectic_check(bad, J)


def test_tilde_generators_preserve_lambda():
    for p in (3, 7):
        for i in range(1, 5):
            assert symplectic_check(generator(f"Mt{i}", p), lam_form(p))
            assert symplectic_check(generator(f"M{i}", p), J)


def test_form_invariants():
    assert mat4_det(J.matrix) == 1
    assert mat4_transpose(J.matrix) == mat4_sub(Mat4.diagonal(0, 0, 0, 0), J.matrix)
    for p in (3, 11):
        lam = lam_form(p).matrix
        assert mat4_det(lam) == p * p
        assert mat4_transpose(lam) == mat4_sub(Mat4.diagonal(0, 0, 0, 0), lam)


# --- member ----------------------------------------------------------------


def test_member_m0():
    for p in (3, 5, 7, 11):
        assert member(generator("M0", p), GroupLabel.GAMMA_1P, p)


def test_member_j2_of_p():
    assert member(j2_embed(Mat2.of(1, 0, 3, 1), 3), GroupLabel.GAMMA_1P, 3)


def test_member_prime_shear():
    assert member(Mat2.of(1, 3, 0, 1), GroupLabel.GAMMA1PRIME_P2, 3)
    assert not member(Mat2.of(1, 1, 0, 1), GroupLabel.GAMMA1PRIME_P2, 3)


def test_member_bad_prime():
    for p in (2, 4, 9, 1, -3, 15, 3.0, "3", [3]):
        with pytest.raises(BadPrime):
            member(I4, GroupLabel.GAMMA_1P, p)


def test_r_conjugate_and_short_witness_refuse_a_bad_prime():
    for p in (2, 9, -3):
        with pytest.raises(BadPrime):
            r_conjugate(I4, p)
        with pytest.raises(BadPrime):
            short_witness((1, 0, 0, 0), p)


def test_require_odd_prime_refuses_non_int_p_after_an_int_p():
    assert require_odd_prime(3) == 3
    for p in (3.0, True, [3]):
        with pytest.raises(BadPrime):
            require_odd_prime(p)


def test_member_arity_mismatch():
    with pytest.raises(TypeError, match="^sl2z is a 2x2 predicate$"):
        member(I4, GroupLabel.SL2Z, 3)
    with pytest.raises(TypeError, match="^sl2z is a 2x2 predicate$"):
        member(I4, "sl2z", 3)
    with pytest.raises(TypeError, match="^gamma_1p is a 4x4 predicate$"):
        member(Mat2.identity(), GroupLabel.GAMMA_1P, 3)


def test_member_rejects_congruence_violations():
    p = 5
    # symplectic but fails the p-divisibility at entry (2,1)
    bad = j1_embed(Mat2.of(1, 0, 1, 1))  # entry (3,1) = 1 is fine
    assert member(bad, GroupLabel.GAMMA_1P, p)
    bad2 = Mat4(
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
    )
    # symplectic (lower unipotent block) but (2,1) = 1 not divisible by p
    assert symplectic_check(bad2, J)
    assert not member(bad2, GroupLabel.GAMMA_1P, p)


def test_gamma0_accepts_rational_slot():
    p = 3
    from fractions import Fraction

    m = j2_embed(Mat2.of(0, -1, 1, 0), p)  # entry (4,2) = 1/3
    assert m.rows[3][1] == Fraction(1, 3)
    assert member(m, GroupLabel.GAMMA0_1P, p)
    assert not member(m, GroupLabel.GAMMA_1P, p)  # not even integral


def test_gamma_p2_examples():
    p = 3
    assert member(generator("L1", p), GroupLabel.GAMMA_P2, p)
    assert member(generator("L3", p), GroupLabel.GAMMA_P2, p)
    assert not member(generator("L4", p), GroupLabel.GAMMA_P2, p)


# --- embeddings ------------------------------------------------------------


def test_j1_maps_t_to_m0():
    for p in (3, 13):
        assert j1_embed(Mat2.of(1, 1, 0, 1)) == generator("M0", p)


def test_j1_identity():
    assert j1_embed(Mat2.identity()) == I4


def test_j1_maps_u_to_l5():
    assert j1_embed(Mat2.of(1, 0, 1, 1)) == generator("L5", 3)


def test_j1_requires_det_one():
    with pytest.raises(NotUnimodular):
        j1_embed(Mat2.of(1, 0, 0, 2))


def test_j2_maps_p_shear_to_l4():
    p = 3
    l4 = j2_embed(Mat2.of(1, 0, p, 1), p)
    assert l4 == generator("L4", p)
    assert l4.rows[3][1] == 1


def test_j2_identity():
    assert j2_embed(Mat2.identity(), 5) == I4


def test_j2_upper_shear_lands_in_level_p2():
    p = 3
    m = j2_embed(Mat2.of(1, p, 0, 1), p)
    assert m.rows[1][3] == 3 * p
    assert member(m, GroupLabel.GAMMA_P2, p)


def test_j1_j2_homomorphism_laws():
    rng = random.Random(40)
    p = 5
    t, u = Mat2.of(1, 1, 0, 1), Mat2.of(1, 0, 1, 1)

    def rand_sl2():
        acc = Mat2.identity()
        for _ in range(rng.randint(1, 6)):
            acc = acc * (t if rng.random() < 0.5 else u) ** rng.choice(
                [-2, -1, 1, 2]
            )
        return acc

    for _ in range(200):
        a, b = rand_sl2(), rand_sl2()
        assert j1_embed(a) * j1_embed(b) == j1_embed(a * b)
        assert j2_embed(a, p) * j2_embed(b, p) == j2_embed(a * b, p)
        assert tilde_j2(a) * tilde_j2(b) == tilde_j2(a * b)


# --- R-conjugation ---------------------------------------------------------


def test_r_conjugate_generators():
    p = 3
    assert r_conjugate(generator("M2", p), p) == generator("Mt2", p)
    assert r_conjugate(I4, p) == I4
    assert r_conjugate(generator("M1", p), p) == generator("Mt1", p)


def test_r_conjugate_inverse_direction():
    p = 7
    m = generator("Mt3", p)
    assert r_conjugate(m, p, inverse=True) == generator("M3", p)
    assert r_conjugate(r_conjugate(m, p), p, inverse=True) == m


def test_r_conjugation_equivalence():
    p = 5
    for i, m in enumerate(gamma1p_corpus(p, 60, 4000)):
        tilde = r_conjugate(m, p)
        assert member(tilde, GroupLabel.GAMMA_TILDE_1P, p), i
        assert r_conjugate(tilde, p, inverse=True) == m
    # non-members of gamma_1p whose conjugates must fail the tilde test
    probe = j2_embed(Mat2.of(0, -1, 1, 0), p)
    assert not member(probe, GroupLabel.GAMMA_1P, p)
    # r-conjugate of a gamma0 element may not even be in Sp(Lambda,Z)
    assert not member(r_conjugate(probe, p), GroupLabel.GAMMA_TILDE_1P, p)


# --- closure ---------------------------------------------------------------


@pytest.mark.parametrize(
    "label",
    [
        GroupLabel.GAMMA_1P,
        GroupLabel.GAMMA_TILDE_1P,
        GroupLabel.GAMMA_P2,
        GroupLabel.SP_LAMBDA_Z,
    ],
)
def test_group_closure(label):
    p = 3
    mats = [
        sample(SampleSpec(label, p, 500 + i, i % 8)) for i in range(12)
    ]
    for a, b in itertools.combinations(mats, 2):
        assert member(a * b, label, p)
    for a in mats[:6]:
        assert member(a.inv(), label, p)


def test_gamma0_closure():
    p = 3
    elems = [
        generator("M0", p),
        generator("M4", p),
        j2_embed(Mat2.of(0, -1, 1, 0), p),
        j2_embed(Mat2.of(1, 1, 0, 1), p),
        j1_embed(Mat2.of(0, -1, 1, 0)),
    ]
    for a in elems:
        assert member(a, GroupLabel.GAMMA0_1P, p)
        assert member(a.inv(), GroupLabel.GAMMA0_1P, p)
    for a, b in itertools.product(elems, repeat=2):
        assert member(a * b, GroupLabel.GAMMA0_1P, p)


# --- vector classes --------------------------------------------------------


def test_vector_class_examples():
    assert vector_class((1, 0, 0, 0), 3) is VectorClass.SHORT
    for p in (3, 5, 11):
        assert vector_class((0, 1, 0, 0), p) is VectorClass.LONG
    assert vector_class((0, 0, 1, 1), 7) is VectorClass.SHORT


def test_vector_class_zero_vector():
    with pytest.raises(ZeroVector):
        vector_class((0, 0, 0, 0), 3)
    with pytest.raises(ZeroVector, match="cannot witness the zero vector"):
        short_witness((0, 0, 0, 0), 3)


@pytest.mark.parametrize("v", [
    (Fraction(3, 2), 0, 1, 0),
    (Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 5)),
])
@pytest.mark.parametrize("fn", [vector_class, short_witness])
def test_non_integer_vector_is_refused(fn, v):
    # int() would truncate these to a short and to the zero vector
    with pytest.raises(DomainError, match="non-integer"):
        fn(v, 3)


def test_integral_fraction_entries_are_accepted():
    v = (Fraction(2), Fraction(0), Fraction(1), Fraction(0))
    assert vector_class(v, 3) is VectorClass.SHORT
    w = short_witness(v, 3)
    assert all(type(x) is int for x in w)


def test_short_witness_brute_force_cross_check():
    # the gcd criterion agrees with an explicit search for w in a box
    p = 7
    v = (0, 0, 1, 1)
    found = None
    rng = range(-2, 3)
    for w in itertools.product(rng, rng, rng, rng):
        if -v[2] * w[0] - p * v[3] * w[1] + v[0] * w[2] + p * v[1] * w[3] == 1:
            found = w
            break
    assert found is not None


def test_short_witness_constructive():
    p = 5
    rng = random.Random(9)
    for _ in range(200):
        v = tuple(rng.randint(-20, 20) for _ in range(4))
        if v == (0, 0, 0, 0):
            continue
        cls = vector_class(v, p)
        if cls is VectorClass.SHORT:
            w = short_witness(v, p)  # checks v Lambda w^T = 1 internally
            pairing = -v[2] * w[0] - p * v[3] * w[1] + v[0] * w[2] + p * v[1] * w[3]
            assert pairing == 1
        else:
            with pytest.raises(ValueError):
                short_witness(v, p)


def test_shortness_invariant_under_sp_lambda():
    p = 3
    rng = random.Random(12)
    for i in range(200):
        g = sample(SampleSpec(GroupLabel.SP_LAMBDA_Z, p, 7000 + i, i % 10))
        v = tuple(rng.randint(-9, 9) for _ in range(4))
        if v == (0, 0, 0, 0):
            v = (1, 0, 0, 0)
        moved = tuple(
            int(sum(v[k] * g.rows[k][j] for k in range(4))) for j in range(4)
        )
        assert vector_class(v, p) is vector_class(moved, p)


def test_row_dichotomy_for_tilde_members():
    p = 5
    for i in range(200):
        k = sample(SampleSpec(GroupLabel.GAMMA_TILDE_1P, p, 8000 + i, i % 14))
        row1 = tuple(int(x) for x in k.rows[0])
        row2 = tuple(int(x) for x in k.rows[1])
        assert vector_class(row1, p) is VectorClass.SHORT
        assert vector_class(row2, p) is VectorClass.LONG


def test_prime_shear_iff_j2_in_level_p2():
    # q in gamma1prime_p2 exactly when j2(q) is trivial mod p^2
    p = 3
    for i in range(100):
        q = sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, 9000 + i, i % 6))
        lhs = member(q, GroupLabel.GAMMA1PRIME_P2, p)
        rhs = member(j2_embed(q, p), GroupLabel.GAMMA_P2, p)
        assert lhs == rhs
    for i in range(50):
        q = sample(SampleSpec(GroupLabel.GAMMA1PRIME_P2, p, 9500 + i, i % 6))
        assert member(j2_embed(q, p), GroupLabel.GAMMA_P2, p)


def test_group_label_serialisation():
    assert GroupLabel.GAMMA_TILDE_1P.value == "gamma_tilde_1p"
    assert GroupLabel("sp_lambda_z") is GroupLabel.SP_LAMBDA_Z


# --- differential: pairing test and congruences first vs full product -------

FOUR_BY_FOUR = [g for g in GroupLabel if g not in TWO_BY_TWO_LABELS]
PRIMES = st.sampled_from((3, 5, 7))
DIFF = settings(max_examples=60, deadline=None)


def _pools(p):
    """Letters at the prime p, pooled so that words over one pool stay in
    gamma_1p, gamma0_1p (plain j2 images with their c/p slot),
    gamma_tilde_1p and gamma_p2 respectively."""
    plain = [generator(n, p) for n in ("M0", "M1", "M2", "M3", "M4", "L2", "L4", "L5")]
    gamma_1p = plain + [j1_embed(T), j1_embed(U), j2_embed(generator("P", p), p)]
    return [
        gamma_1p,
        gamma_1p + [j2_embed(T, p), j2_embed(U, p)],
        [generator(f"Mt{i}", p) for i in range(1, 5)]
        + [tilde_j2(generator("P", p)), j1_embed(T)],
        [generator("L1", p), generator("L3", p)] + [g ** (p * p) for g in plain],
    ]


def _outside(p):
    """Elements each outside some of the groups: off a congruence
    pattern, off both forms, or off J alone."""
    return [
        j2_embed(T, p),
        Mat4([[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
        tilde_j2(T),
        generator("M0", p),
        Mat4([[1, p * p, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        Mat4.diagonal(1, 1, 1, p),
    ]


@st.composite
def products(draw, wide=False):
    """A word over one pool at a drawn p, then maybe a factor from
    :func:`_outside`.  With ``wide``, one more letter of the pool (each
    is unipotent) is spliced in at a power past 2^4096, so some entry
    passes 4,096 bits."""
    p = draw(PRIMES)
    letters = draw(st.sampled_from(_pools(p)))
    m = I4
    for _ in range(draw(st.integers(0, 6))):
        m = m * letters[draw(st.integers(0, len(letters) - 1))] ** draw(
            st.integers(-3, 3)
        )
    if wide:
        e = draw(st.sampled_from((1, -1))) * 2**4100 + draw(st.integers(-3, 3))
        big = letters[draw(st.integers(0, len(letters) - 1))] ** e
        m = big * m if draw(st.booleans()) else m * big
    if draw(st.booleans()):
        m = m * draw(st.sampled_from(_outside(p)))
    return m, p


def _agree(m, p):
    for form in (J, lam_form(p)):
        assert symplectic_check(m, form) == reference_symplectic_check(m, form)
    for label in FOUR_BY_FOUR:
        assert member(m, label, p) == reference_member(m, label, p), label


@DIFF
@given(st.lists(st.integers(-4, 4), min_size=16, max_size=16), PRIMES)
def test_pairing_matches_full_product_on_integer_matrices(entries, p):
    _agree(Mat4([entries[4 * i:4 * i + 4] for i in range(4)]), p)


@DIFF
@given(products())
def test_pairing_matches_full_product_on_generator_products(case):
    _agree(*case)


# a denominator c * p**e: 1, 2, p, p^2 or 2p; two of them can give others
DENOMINATORS = st.sampled_from(((1, 0), (2, 0), (1, 1), (1, 2), (2, 1)))


@DIFF
@given(products(), st.lists(st.tuples(st.integers(0, 15), st.integers(1, 4), DENOMINATORS),
                            min_size=1, max_size=2))
def test_pairing_matches_full_product_with_a_one_over_p_entry(case, additions):
    m, p = case
    rows = [list(r) for r in m.rows]
    for slot, k, (c, e) in additions:
        rows[slot // 4][slot % 4] += Fraction(k, c * p ** e)
    _agree(Mat4(rows), p)


@st.composite
def wide_products(draw):
    """``products(wide=True)``, then maybe one entry moved by +-1/d for
    d in {1, p, p^2, 2}: the entries pass 4,096 bits, and the pair's
    denominator is 1, 2, p, p^2 or 2p."""
    m, p = draw(products(wide=True))
    if draw(st.booleans()):
        slot = draw(st.integers(0, 15))
        rows = [list(r) for r in m.rows]
        rows[slot // 4][slot % 4] += Fraction(draw(st.sampled_from((1, -1))),
                                              draw(st.sampled_from((1, p, p * p, 2))))
        m = Mat4(rows)
    return m, p


@DIFF
@given(wide_products())
def test_member_matches_the_reference_past_4096_bits(case):
    m, p = case
    assert m.entry_bits() > 4096
    _agree(m, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma0_slot_takes_exactly_the_denominators_one_and_p(p):
    # 1 + x E(4,2) is symplectic for every rational x
    for x in (1, Fraction(1, p), Fraction(2, p), Fraction(1, p * p), Fraction(1, 2),
              Fraction(1, 2 * p)):
        m = Mat4([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, x, 0, 1]])
        assert symplectic_check(m, J)
        verdict = member(m, GroupLabel.GAMMA0_1P, p)
        assert verdict == reference_member(m, GroupLabel.GAMMA0_1P, p)
        assert verdict == (Fraction(x).denominator in (1, p))


# --- differential: R-conjugation vs the entrywise Fraction version ----------

RATIONAL = st.fractions(-50, 50, max_denominator=12)


def _same_conjugates(m, p):
    for inverse in (False, True):
        out = r_conjugate(m, p, inverse)
        assert out == reference_r_conjugate(m, p, inverse)
        assert fraction_entries(out)


@DIFF
@given(st.lists(RATIONAL, min_size=16, max_size=16), PRIMES)
def test_r_conjugate_matches_the_fraction_version_on_rationals(entries, p):
    _same_conjugates(Mat4([entries[4 * i:4 * i + 4] for i in range(4)]), p)


@DIFF
@given(products(), st.integers(-4, 4))
def test_r_conjugate_matches_the_fraction_version_with_a_one_over_p_slot(case, k):
    # the pools include gamma0_1p; k/p more in its (1/p)Z slot keeps it there
    m, p = case
    rows = [list(r) for r in m.rows]
    rows[3][1] += Fraction(k, p)
    _same_conjugates(Mat4(rows), p)


def test_r_conjugate_rows_keep_integers_where_p_divides():
    p = 5
    for m in gamma1p_corpus(p, 20, 4100):
        tilde = r_conjugate(m, p)
        assert m.scaled()[0] == tilde.scaled()[0] == 1
        assert r_conjugate(tilde, p, inverse=True) == m
    # the plain j2 image of a payload with p not dividing c: d = p, and
    # the one entry off the integers is c/p at (4,2)
    plain = j2_embed(Mat2.of(1, 0, 1, 1), p)
    d, e = plain.scaled()
    assert d == p
    slots = [divmod(k, 4) for k, x in enumerate(e) if x % p]
    assert slots == [(3, 1)]
    assert plain.rows[3][1] == Fraction(1, p)


def test_differential_cases_reach_every_verdict():
    # the products above do land in each group, and outside it
    seen = {label: set() for label in FOUR_BY_FOUR}
    for p in (3, 5, 7):
        for x in sum(_pools(p), []) + _outside(p):
            for label in FOUR_BY_FOUR:
                seen[label].add(member(x, label, p))
    assert all(v == {True, False} for v in seen.values())


# --- differential: the 2x2 rows of the pattern table vs the docstring ------

TWO_BY_TWO = [g for g in GroupLabel if g in TWO_BY_TWO_LABELS]


def _outside2(p):
    """2x2 factors each outside some of the three groups."""
    return [T, U, Mat2.of(1, 0, p, 1), Mat2.of(1, 0, p * p, 1), Mat2.of(1, p, 0, 1),
            Mat2.of(1 + p, p, p, 1), Mat2.of(2, 0, 0, 1), Mat2.of(-1, 0, 0, -1)]


def _agree2(q, p):
    for label in TWO_BY_TWO:
        assert member(q, label, p) == reference_member(q, label, p), label


@DIFF
@given(st.lists(st.integers(-30, 30), min_size=4, max_size=4), PRIMES)
def test_two_by_two_predicates_match_the_docstring_on_integer_matrices(entries, p):
    _agree2(Mat2.of(*entries), p)


@DIFF
@given(PRIMES, st.sampled_from(TWO_BY_TWO), st.integers(0, 10**6), st.integers(0, 8),
       st.integers(-1, 7))
def test_two_by_two_predicates_match_the_docstring_on_samples(p, label, seed, length, k):
    q = sample(SampleSpec(label, p, seed, length))
    if k >= 0:
        q = q * _outside2(p)[k]
    _agree2(q, p)


@DIFF
@given(PRIMES, st.sampled_from(TWO_BY_TWO), st.integers(0, 10**6), st.integers(0, 8),
       st.integers(-1, 7), st.sampled_from((1, -1)))
def test_two_by_two_predicates_match_the_docstring_past_4096_bits(p, label, seed, length, k, sign):
    # T^(p 2^4100) lies in gamma1prime_p2, so q keeps each group it lies in
    q = sample(SampleSpec(label, p, seed, length)) * T ** (sign * p * 2**4100)
    if k >= 0:
        q = q * _outside2(p)[k]
    assert max(abs(x) for row in q.rows for x in row).bit_length() > 4096
    _agree2(q, p)


def test_two_by_two_cases_reach_every_verdict():
    seen = {label: set() for label in TWO_BY_TWO}
    for p in (3, 5, 7):
        pool = [sample(SampleSpec(g, p, 1, 4)) for g in TWO_BY_TWO] + _outside2(p)
        for q in pool:
            for label in TWO_BY_TWO:
                seen[label].add(member(q, label, p))
    assert all(v == {True, False} for v in seen.values())


def test_form_must_be_antisymmetric():
    with pytest.raises(ValueError):
        SymplecticForm(I4)
    with pytest.raises(ValueError):
        SymplecticForm(Mat4(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
        ))


def test_form_must_have_a_diagonal_f():
    # antisymmetric, but with a (0, 1) term that the pairings would not read
    with pytest.raises(ValueError, match="F diagonal"):
        SymplecticForm(Mat4(
            [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        ))


def test_rational_form_scales_to_integers():
    half = SymplecticForm(Mat4(
        [[0, 0, Fraction(1, 2), 0], [0, 0, 0, Fraction(1, 2)],
         [Fraction(-1, 2), 0, 0, 0], [0, Fraction(-1, 2), 0, 0]]
    ))
    for m in (generator("M2", 5), j2_embed(U, 5), Mat4.diagonal(2, 1, 1, 1)):
        assert symplectic_check(m, half) == reference_symplectic_check(m, half)


@pytest.mark.parametrize("label", [
    GroupLabel.SP4Z_J, GroupLabel.SP_LAMBDA_Z, GroupLabel.GAMMA_1P,
    GroupLabel.GAMMA_TILDE_1P, GroupLabel.GAMMA_P2,
])
def test_integral_predicates_reject_rational_input(label):
    for slot in range(16):
        rows = [list(r) for r in I4.rows]
        rows[slot // 4][slot % 4] += Fraction(1, 3)
        assert member(Mat4(rows), label, 3) is False


# --- primes ------------------------------------------------------------------


def test_strong_pseudoprime_to_bases_up_to_37_is_not_prime():
    n = 318665857834031151167461  # OEIS A014233(12)
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    with pytest.raises(BadPrime):
        require_odd_prime(n)


def test_primes_at_the_proof_bound_are_refused():
    n = 3317044064679887385961981  # OEIS A014233(13): passes every base to 41
    assert is_prime(n)  # a probable prime only: the test is not proven here
    with pytest.raises(BadPrime, match="3317044064679887385961981"):
        require_odd_prime(n)
    with pytest.raises(BadPrime):
        member(I4, GroupLabel.GAMMA_1P, n)
    assert require_odd_prime(2**61 - 1) == 2**61 - 1  # a Mersenne prime below it
