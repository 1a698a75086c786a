import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from support import evaluate, fraction_entries, mat4_det, reference_power, reference_product, tilde_j2

from sp4cert.certificates import expand_j1, expand_j2, normal_closure_witness
from sp4cert.decompose import GeneratorWord, decompose, reduce_first_row
from sp4cert.errors import BothZero, NotUnimodular, ParseError, SingularMatrix
from sp4cert.generators import GENERATOR_NAMES, generator
from sp4cert.groups import GroupLabel, j1_embed, j2_embed, member, r_conjugate
from sp4cert.matrices import (
    Mat2,
    Mat4,
    ext_gcd,
    mat2_from_lists,
    mat2_to_lists,
    mat4_from_lists,
    mat4_to_lists,
    _int_to_str,
    _ratio_from_str,
    _ratio_to_str,
)
from sp4cert.sampling import SampleSpec, sample
from sp4cert.sl2 import S, T, U, sl2_decompose

I4 = Mat4.identity()


def rand_int_mat(rng, bound=9):
    return Mat4(
        [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
    )


def test_identity_product():
    assert I4 * I4 == I4


def test_product_matches_commutator_block():
    # M4^-1 M0 M4 M0^-1 at p=3 must be the identity outside the
    # upper-right block ((0,3),(3,9))
    p = 3
    m0, m4 = generator("M0", p), generator("M4", p)
    x = m4.inv() * m0 * m4 * m0.inv()
    expected = Mat4(
        [[1, 0, 0, 3], [0, 1, 3, 9], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert x == expected


def test_associativity_seeded():
    rng = random.Random(101)
    for _ in range(50):
        a, b, c = (rand_int_mat(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_inverse_identity():
    assert I4.inv() == I4


def test_inverse_of_translation():
    # M0 = 1 + E(1,3) is unipotent; its inverse must satisfy M0*inv = 1
    m0 = generator("M0", 3)
    inv = m0.inv()
    assert m0 * inv == I4
    assert inv == Mat4(
        [[1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def test_duplicated_row_matrix_is_singular():
    # the degenerate shear variant whose rows 1 and 4 coincide
    bad = Mat4(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0]]
    )
    assert mat4_det(bad) == 0
    with pytest.raises(SingularMatrix):
        bad.inv()


def test_inverse_exact_on_group_samples():
    for i in range(20):
        m = sample(SampleSpec(GroupLabel.GAMMA_1P, 5, 900 + i, i))
        assert m * m.inv() == I4
        assert m.inv() * m == I4
    # determinant -1 case
    flip = Mat4.diagonal(1, 1, 1, -1)
    assert mat4_det(flip) == -1
    assert flip * flip.inv() == I4


def test_det_multiplicative_seeded():
    rng = random.Random(77)
    for _ in range(30):
        a, b = rand_int_mat(rng, 5), rand_int_mat(rng, 5)
        assert mat4_det(a * b) == mat4_det(a) * mat4_det(b)


def test_rational_entries_stay_reduced():
    m = Mat4(
        [
            [Fraction(2, 4), 1, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, Fraction(-6, 9), 1],
        ]
    )
    prod = m * m
    for row in prod.rows:
        for x in row:
            assert x.denominator > 0
            import math

            assert math.gcd(abs(x.numerator), x.denominator) == 1


def test_ext_gcd_examples():
    g, x, y = ext_gcd(-2, 9)
    assert g == 1 and -2 * x + 9 * y == 1
    assert ext_gcd(1, 0) == (1, 1, 0)
    g, x, y = ext_gcd(6, 4)
    assert g == 2 and 6 * x + 4 * y == 2


def test_ext_gcd_both_zero():
    with pytest.raises(BothZero):
        ext_gcd(0, 0)


def test_ext_gcd_thousand_random_pairs():
    rng = random.Random(5)
    for _ in range(1000):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        if a == 0 and b == 0:
            b = 1
        g, x, y = ext_gcd(a, b)
        assert g > 0 and a % g == 0 and b % g == 0
        assert a * x + b * y == g


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_ext_gcd_contract_hypothesis(a, b):
    if a == 0 and b == 0:
        return
    g, x, y = ext_gcd(a, b)
    assert g > 0
    assert a * x + b * y == g


def test_mat2_arithmetic():
    t = Mat2.of(1, 1, 0, 1)
    u = Mat2.of(1, 0, 1, 1)
    assert t * u == Mat2.of(2, 1, 1, 1)
    assert (t * u).det() == 1
    assert t ** -3 == Mat2.of(1, -3, 0, 1)
    assert t.inv() * t == Mat2.identity()


@pytest.mark.parametrize("bad", [1.5, "7", Fraction(3, 2), Fraction(2), Decimal(1)])
def test_mat2_refuses_a_non_integer_entry(bad):
    # a type error, not a silent conversion: int() reads 1.5 and 3/2 as 1, "7" as 7
    with pytest.raises(TypeError, match=type(bad).__name__):
        Mat2.of(bad, 0, 0, 1)
    with pytest.raises(TypeError, match=type(bad).__name__):
        Mat2.of(1, 0, 0, bad)
    with pytest.raises(TypeError, match=type(bad).__name__):  # the constructor checks too
        Mat2(((1, 0), (bad, 1)))


def test_float_rows_reach_no_predicate_or_decomposition():
    # built directly, these rows were a gamma1_of_p member and a determinant-1.5 refusal
    with pytest.raises(TypeError, match="float"):
        member(Mat2(((1.0, 0), (3.0, 1))), GroupLabel.GAMMA1_OF_P, 3)
    with pytest.raises(TypeError, match="float"):
        sl2_decompose(Mat2(((2.5, 1), (1, 1))))


def test_mat2_takes_int_and_bool_entries():
    for m in (Mat2.of(True, 0, 3, False), Mat2(((True, 0), (3, False)))):
        assert m.rows == ((1, 0), (3, 0)) and type(m.rows[0][0]) is int


def test_mat2_inverse_errors():
    with pytest.raises(SingularMatrix):
        Mat2.of(1, 1, 1, 1).inv()
    with pytest.raises(NotUnimodular):
        Mat2.of(2, 0, 0, 1).inv()


def test_mat2_inverse_at_determinant_minus_one():
    for m, inverse in ((Mat2.of(0, 1, 1, 0), Mat2.of(0, 1, 1, 0)),
                       (Mat2.of(2, 1, 1, 0), Mat2.of(0, 1, 1, -2))):
        assert m.det() == -1
        assert m.inv() == inverse
        assert (m * inverse).is_identity() and (inverse * m).is_identity()


def test_scalar_strings_round_trip():
    for text in ("0", "7", "-7", "1/2", "-3/7", "123456789012345678901234567890"):
        assert _ratio_to_str(*_ratio_from_str(text)) == text


@pytest.mark.parametrize(
    "bad", ["", "a", "+3", "01", "1/0", "2/4", "1/-3", "--2", "1.5", " 1",
            "-0", "-0/1", "0/1", "0/5", "5/1", "-5/1", "-00"]
)
def test_scalar_strings_rejected(bad):
    with pytest.raises(ParseError):
        _ratio_from_str(bad)


def test_mat4_interchange_round_trip():
    m = generator("Lambda", 7) * Mat4.diagonal(1, Fraction(1, 7), 1, 1)
    lists = mat4_to_lists(m)
    assert mat4_from_lists(lists) == m
    # bit-exact: re-serialising gives identical strings
    assert mat4_to_lists(mat4_from_lists(lists)) == lists


def test_mat2_interchange_round_trip():
    m = Mat2.of(12, -5, 7, -3)
    lists = mat2_to_lists(m)
    assert mat2_from_lists(lists) == m


def test_mat2_interchange_rejects_fractions():
    with pytest.raises(ParseError):
        mat2_from_lists([["1/2", "0"], ["0", "1"]])


def test_mat4_interchange_rejects_bad_shape():
    with pytest.raises(ParseError):
        mat4_from_lists([["1", "0", "0"], ["0", "1", "0"]])


# --- powers ----------------------------------------------------------------


def _repeated(m, e):
    """m ** e by e-fold multiplication, independent of __pow__."""
    base = m if e >= 0 else m.inv()
    acc = type(m).identity()
    for _ in range(abs(e)):
        acc = acc * base
    return acc


def _nilpotent_part(m):
    """N = m - 1 as a list of rows, for Mat2 and Mat4 alike."""
    return [
        [x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m.rows)
    ]


def _squares_to_zero(m) -> bool:
    n = _nilpotent_part(m)
    size = len(n)
    return all(
        sum(n[i][k] * n[k][j] for k in range(size)) == 0
        for i in range(size)
        for j in range(size)
    )


def _unipotent_letters(p):
    named = {name: generator(name, p) for name in GENERATOR_NAMES}
    named.update({"T": T, "U": U})
    return {name: m for name, m in named.items() if _squares_to_zero(m)}


def test_unipotent_letters_are_the_table_minus_forms():
    assert sorted(_unipotent_letters(5)) == sorted(
        set(GENERATOR_NAMES) - {"R", "J", "Lambda"} | {"T", "U"}
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closed_form_powers_match_repeated_products(p):
    for name, m in _unipotent_letters(p).items():
        for sign, step in ((1, m), (-1, m.inv())):
            acc = type(m).identity()
            for e in range(51):
                assert m ** (sign * e) == acc, (name, sign * e)
                acc = acc * step


@pytest.mark.parametrize("e", [10**6, -(10**6)])
def test_unipotent_powers_at_large_exponents(e):
    for name, m in _unipotent_letters(7).items():
        expected = [
            [(i == j) + e * x for j, x in enumerate(row)]
            for i, row in enumerate(_nilpotent_part(m))
        ]
        power = m ** e
        assert [list(row) for row in power.rows] == expected, name
        assert power == (m ** 1000) ** (e // 1000), name


GENERAL_BASES = {
    "j1(S)": j1_embed(S),
    "M0*M1": generator("M0", 5) * generator("M1", 5),
    "M3*M4": generator("M3", 5) * generator("M4", 5),
    "S": S,
    "TU": T * U,
}


@pytest.mark.parametrize("name", sorted(GENERAL_BASES))
def test_general_bases_keep_binary_powering(name):
    m = GENERAL_BASES[name]
    assert not _squares_to_zero(m)
    for e in range(-12, 13):
        assert m ** e == _repeated(m, e) == reference_power(m, e), e


def test_general_power_values():
    one = Mat4.identity()
    j1s = j1_embed(S)
    assert j1s ** 4 == one
    assert j1s ** -1 == j1s ** 3 == j1s.inv()
    assert j1s ** 2 != one
    assert S ** -6 == Mat2.of(-1, 0, 0, -1)


def test_general_power_of_non_unimodular_mat2():
    d = Mat2.of(2, 0, 0, 1)
    assert d ** 0 == Mat2.identity()
    assert d ** 3 == Mat2.of(8, 0, 0, 1)
    with pytest.raises(NotUnimodular):
        d ** -1


# --- powers against the full-product definition -----------------------------

DIFF = settings(max_examples=80, deadline=None)


def _outcome(fn):
    """A value, or the type of the library error it raised."""
    try:
        return fn()
    except (NotUnimodular, SingularMatrix) as exc:
        return type(exc)


def _one_plus_outer(size, u, v):
    rows = [[(i == j) + u[i] * v[j] for j in range(size)] for i in range(size)]
    return Mat2.of(*rows[0], *rows[1]) if size == 2 else Mat4(rows)


@st.composite
def rank_one(draw, near_miss: bool):
    """``(1 + u v^T, v . u)`` with ``v`` the projection of a random vector
    off ``u``, so ``v . u = 0``; a near miss adds 1 at a slot where u is
    nonzero.  Mat2 takes integers, Mat4 fractions too."""
    size = draw(st.sampled_from((2, 4)))
    entry = st.integers(-6, 6) if size == 2 else st.fractions(-6, 6, max_denominator=5)
    u = draw(st.lists(entry, min_size=size, max_size=size))
    w = draw(st.lists(entry, min_size=size, max_size=size))
    uu, wu = sum(x * x for x in u), sum(x * y for x, y in zip(w, u))
    v = [x * uu - y * wu for x, y in zip(w, u)]
    if near_miss:
        slots = [i for i, x in enumerate(u) if x]
        if not slots:
            slots = [0]
            u[0] = 1
        v[draw(st.sampled_from(slots))] += 1
    m = _one_plus_outer(size, u, v)
    return m, sum(x * y for x, y in zip(v, u))


@DIFF
@given(rank_one(near_miss=False), st.sampled_from((0, 1, -1, 2, -3, 10**6, -(10**6))))
def test_power_of_dense_rank_one_nilpotent_matches_reference(case, n):
    m, dot = case
    assert dot == 0
    assert m ** n == reference_power(m, n)


@DIFF
@given(rank_one(near_miss=True), st.integers(-5, 5))
def test_power_of_near_miss_matches_reference(case, n):
    m, dot = case
    assert dot != 0
    assert _outcome(lambda: m ** n) == _outcome(lambda: reference_power(m, n))


# --- the one 4x4 product against the triple sum -----------------------------

ENTRIES = {
    "int": st.one_of(st.sampled_from((0, 1, -1)), st.integers(-(10**30), 10**30)),
    "fraction": st.fractions(-50, 50, max_denominator=12),
}
ENTRIES["mixed"] = st.one_of(ENTRIES["int"], ENTRIES["fraction"])


@st.composite
def rows4(draw):
    """``(kind, rows)``: 4 rows of 4 int, Fraction or mixed entries, with
    possibly one row and one column set to zero."""
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    rows = [[draw(ENTRIES[kind]) for _ in range(4)] for _ in range(4)]
    zero = Fraction(0) if kind == "fraction" else 0
    i, j = draw(st.none() | st.integers(0, 3)), draw(st.none() | st.integers(0, 3))
    for r in range(4):
        for c in range(4):
            if r == i or c == j:
                rows[r][c] = zero
    return kind, tuple(map(tuple, rows))


@DIFF
@given(rows4(), rows4())
def test_mul_rows_matches_the_triple_sum(left, right):
    # the one general product, Mat4.__mul__, written out on the flat pairs
    (kind_a, a), (kind_b, b) = left, right
    out = reference_product(a, b)
    product = Mat4(a) * Mat4(b)
    assert product.rows == out
    d, e = product.scaled()
    assert type(e) is tuple and len(e) == 16 and math.gcd(d, *e) == 1
    if kind_a == kind_b == "int":
        # integer rows never turn into Fraction entries
        assert d == 1 and all(type(x) is int for x in e)
    assert product == Mat4(out) and fraction_entries(product)


@st.composite
def unimodular_blocks(draw):
    """``(a, b, c, d)`` with ``a d - b c = 1``: a product of wide shears."""
    acc = Mat2.identity()
    for _ in range(draw(st.integers(0, 4))):
        x = draw(st.integers(-(2**70), 2**70))
        acc = acc * (Mat2.of(1, x, 0, 1) if draw(st.booleans()) else Mat2.of(1, 0, x, 1))
    (a, b), (c, d) = acc.rows
    return a, b, c, d


@DIFF
@given(rows4(), unimodular_blocks())
def test_times_j_block_matches_the_triple_sum(rows, block):
    # the written-out j1 block on columns (1,3) and j2 block on (2,4); the
    # block is invertible over Z, so d is kept and no gcd is taken
    _, e = rows
    a, b, c, d = block
    m = Mat4(e)
    for which, (i, j) in ((1, (0, 2)), (2, (1, 3))):
        dense = [[int(r == s) for s in range(4)] for r in range(4)]
        dense[i][i], dense[i][j], dense[j][i], dense[j][j] = a, b, c, d
        out = m.times_j_block(which, a, b, c, d)
        assert out == Mat4(reference_product(e, dense))
        assert out.scaled()[0] == m.scaled()[0]


def test_identity_is_one_shared_constant():
    assert Mat4.identity() is Mat4.identity()
    assert Mat4.identity() == Mat4(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert all(type(x) is Fraction for row in Mat4.identity().rows for x in row)


# --- integers past the int/str conversion limit -----------------------------


def _horner(digits: str) -> int:
    n = 0
    for ch in digits:
        n = 10 * n + ord(ch) - ord("0")
    return n


def test_integers_past_the_digit_limit_are_written():
    rng = random.Random(5001)
    digits = "9" + "".join(rng.choice("0123456789") for _ in range(4999)) + "7"
    n = _horner(digits)
    assert _ratio_to_str(n, 1) == digits and _ratio_to_str(-n, 1) == "-" + digits
    assert _ratio_to_str(n, 10**5000) == f"{digits}/1{'0' * 5000}"
    assert mat2_to_lists(Mat2.of(n, 1, -n, 1)) == [[digits, "1"], ["-" + digits, "1"]]
    m4 = Mat4([[1, 0, -n, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert mat4_to_lists(m4)[0][2] == "-" + digits


def test_entries_past_the_digit_limit_are_a_parse_error():
    digits = "7" * 5001
    for text in (digits, "-" + digits, f"1/{digits}"):
        with pytest.raises(ParseError, match="too long"):
            _ratio_from_str(text)
    with pytest.raises(ParseError, match=r"at \(1,0\)"):
        mat2_from_lists([["1", "0"], [digits, "1"]])


@pytest.mark.parametrize("digits", [599, 600, 601, 1199, 1200, 1201, 4301, 12345])
def test_integer_strings_at_chunk_boundaries(digits):
    n = 10 ** (digits - 1) + 7 * 10 ** (digits // 2) + 3
    text = _int_to_str(n)
    assert len(text) == digits
    assert _horner(text) == n


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=60), min_size=16, max_size=16))
def test_scaled_and_entry_bits_read_the_entries(entries):
    m = Mat4([entries[4 * i:4 * i + 4] for i in range(4)])
    d, e = m.scaled()
    assert d == math.lcm(*(x.denominator for x in entries)) > 0
    assert [Fraction(x, d) for x in e] == entries
    assert all(type(x) is int for x in e)
    assert m.scaled() == (d, e)
    widest = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in entries)
    assert m.entry_bits() == widest
    assert Mat2.of(1, -2, 3, 4).scaled() == (1, (1, -2, 3, 4))


def test_every_returned_mat4_has_fraction_entries():
    # Mat4 promises Fraction entries whatever built it: integer letter
    # rows, the parser, the samplers, the certificate builders
    p = 5
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 71, 9))
    kt = r_conjugate(k, p)
    word, tilde_word = decompose(k, p, tilde=False), decompose(kt, p)
    a = Mat2.of(2, 1, 1, 1)
    returned = [
        I4, Mat4.diagonal(1, 2, 3, 4), Mat4([[7] * 4] * 4),
        k * k, k.inv(), k ** 3, k ** -2,
        mat4_from_lists(mat4_to_lists(k)), j1_embed(a), j2_embed(a, p),
        tilde_j2(a), kt, r_conjugate(kt, p, inverse=True),
        word.replay(), tilde_word.replay(), reduce_first_row(kt, p)[1],
        *(generator(name, p) for name in GENERATOR_NAMES if name != "P"),
        *(GeneratorWord(p, w.tilde, (x,)).replay() for w in (word, tilde_word) for x in w.letters),
        *(sample(SampleSpec(g, p, 72, 8)) for g in (
            GroupLabel.GAMMA_1P, GroupLabel.GAMMA_TILDE_1P, GroupLabel.GAMMA_P2,
            GroupLabel.SP_LAMBDA_Z,
        )),
        *evaluate(expand_j1(a, p)),
        *evaluate(expand_j2(Mat2.of(1 + p, p, -p, 1 - p), p)),
        *evaluate(normal_closure_witness(k, p)),
    ]
    for m in returned:
        assert fraction_entries(m), m
