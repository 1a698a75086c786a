"""``Mat4`` as a reduced pair ``(d, e)`` against the ``Fraction`` reference.

``tests/support.ReferenceMat4`` is the matrix as first written: 16
``Fraction`` entries, the triple-sum product and Gauss-Jordan for every
inverse.  Each test here builds the same matrix both ways and compares
values, errors, pairs, bit counts and interchange strings, on rational
matrices with d = 1, d = p and other denominators and on group elements.
The interchange readers are held the same way against
``support.reference_read_matrix``, which reads one entry at a time:
equal rows, or byte-identical ``ParseError`` texts.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from support import ReferenceMat4, mat4_det, reference_read_matrix

from sp4cert import matrices
from sp4cert.certificates import Certificate, parse, serialize
from sp4cert.errors import NotUnimodular, ParseError, SingularMatrix
from sp4cert.generators import GENERATOR_NAMES, generator
from sp4cert.groups import GroupLabel, j1_embed, j2_embed, symplectic_check, SymplecticForm
from sp4cert.matrices import (
    Mat2,
    Mat4,
    mat2_from_lists,
    mat4_from_lists,
    mat4_to_lists,
)
from sp4cert.sampling import SampleSpec, sample

DIFF = settings(max_examples=60, deadline=None)
PRIMES = (3, 5, 7)
I4 = Mat4.identity()


def _outcome(fn):
    """A value as its reference twin, or the type of the error raised."""
    try:
        value = fn()
    except (NotUnimodular, SingularMatrix) as exc:
        return type(exc)
    return value if isinstance(value, ReferenceMat4) else ReferenceMat4.of(value)


@st.composite
def rational(draw):
    """A 4x4 matrix ``e / d`` with d = 1, an odd prime p, or another
    denominator; numerators that share factors with d are common, so the
    stored pair is often smaller than the drawn one."""
    d = draw(st.sampled_from(("one", "p", "other")))
    if d == "one":
        d = 1
    elif d == "p":
        d = draw(st.sampled_from(PRIMES))
    else:
        d = draw(st.integers(2, 60))
    entry = st.one_of(
        st.sampled_from((0, 1, -1, d, -d)),
        st.integers(-60, 60).map(lambda x: x * d // 3),
        st.integers(-(10**20), 10**20),
    )
    rows = [[Fraction(draw(entry), d) for _ in range(4)] for _ in range(4)]
    return Mat4(rows)


@st.composite
def group_element(draw):
    """A sampled member of a 4x4 group, or a plain j2 image with d = p."""
    p = draw(st.sampled_from(PRIMES))
    seed, length = draw(st.integers(0, 10**6)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("gamma_1p", "gamma_tilde_1p", "gamma_p2", "sp_lambda_z", "j2")))
    if kind == "j2":
        return j2_embed(sample(SampleSpec(GroupLabel.SL2Z, p, seed, length)), p)
    return sample(SampleSpec(GroupLabel(kind), p, seed, length))


MATRICES = st.one_of(rational(), group_element())


@st.composite
def raw_pair(draw):
    """A pair ``(d, e)`` with d = 1, an odd prime p or another
    denominator, and 16 flat integer entries e that often share a
    factor with d."""
    d = draw(st.one_of(st.just(1), st.sampled_from(PRIMES), st.integers(2, 60)))
    k = draw(st.one_of(st.just(d), st.integers(1, 30)))
    entry = st.one_of(st.integers(-60, 60).map(lambda x: x * k), st.integers(-(10**20), 10**20))
    return d, tuple(draw(entry) for _ in range(16))


@DIFF
@given(MATRICES, raw_pair())
def test_from_pair_inverts_scaled_and_reduces_like_the_reference(m, pair):
    assert Mat4.from_pair(*m.scaled()) == m
    d, e = pair
    built = Mat4.from_pair(d, e)
    assert ReferenceMat4.of(built) == ReferenceMat4.of([[Fraction(x, d) for x in e[k:k + 4]]
                                                        for k in (0, 4, 8, 12)])
    d2, e2 = built.scaled()
    assert d2 > 0 and math.gcd(d2, *e2) == 1


@DIFF
@given(MATRICES, MATRICES)
def test_product_matches_the_reference(a, b):
    assert ReferenceMat4.of(a * b) == ReferenceMat4.of(a) * ReferenceMat4.of(b)


@DIFF
@given(MATRICES)
def test_inverse_matches_the_reference(m):
    assert _outcome(m.inv) == _outcome(ReferenceMat4.of(m).inv)


@DIFF
@given(MATRICES, st.integers(-4, 4))
def test_general_powers_match_the_reference(m, n):
    assert _outcome(lambda: m ** n) == _outcome(lambda: ReferenceMat4.of(m) ** n)


@st.composite
def unipotent(draw):
    """A named unipotent generator, or a rational ``1 + u v^T`` with
    ``v . u = 0``, so ``N N = 0``."""
    if draw(st.booleans()):
        p = draw(st.sampled_from(PRIMES))
        name = draw(st.sampled_from(sorted(set(GENERATOR_NAMES) - {"P", "R", "J", "Lambda"})))
        return generator(name, p)
    entry = st.fractions(-6, 6, max_denominator=draw(st.sampled_from((1, 3, 7, 12))))
    u = draw(st.lists(entry, min_size=4, max_size=4))
    w = draw(st.lists(entry, min_size=4, max_size=4))
    uu, wu = sum(x * x for x in u), sum(x * y for x, y in zip(w, u))
    v = [x * uu - y * wu for x, y in zip(w, u)]
    return Mat4([[(i == j) + u[i] * v[j] for j in range(4)] for i in range(4)])


@DIFF
@given(unipotent(), st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70)))
def test_unipotent_powers_match_the_reference(m, n):
    assert ReferenceMat4.of(m ** n) == ReferenceMat4.of(m) ** n


@DIFF
@given(MATRICES)
def test_pair_bits_and_strings_match_the_reference(m):
    ref = ReferenceMat4.of(m)
    assert m.scaled() == ref.scaled()
    d, e = m.scaled()
    assert d > 0 and math.gcd(d, *e) == 1
    assert m.entry_bits() == ref.entry_bits()
    lists = mat4_to_lists(m)
    assert json.dumps(lists) == json.dumps(ref.to_lists())
    assert mat4_from_lists(lists) == m
    assert ReferenceMat4.from_lists(lists) == ref


@DIFF
@given(MATRICES, st.integers(2, 10**6))
def test_one_matrix_one_pair(m, k):
    """Rows scaled by k and divided back, a product with a scalar matrix
    and its inverse, and the interchange strings all give one pair."""
    scaled = Mat4([[Fraction(x * k, k) for x in row] for row in m.rows])
    through_k = m * Mat4.diagonal(k, k, k, k) * Mat4.diagonal(*[Fraction(1, k)] * 4)
    d, e = m.scaled()
    from_ints = Mat4([e[k:k + 4] for k in (0, 4, 8, 12)]) * Mat4.diagonal(*[Fraction(1, d)] * 4)
    for other in (scaled, through_k, from_ints, mat4_from_lists(mat4_to_lists(m))):
        assert other == m and hash(other) == hash(m)
        assert other.scaled() == m.scaled()
    assert len({m, scaled, through_k, from_ints}) == 1


def test_equal_matrices_from_int_and_fraction_rows():
    rows = [[2, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [7, 0, 0, 1]]
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    flat = tuple(sum(rows, []))
    assert Mat4(rows) == Mat4(as_fractions) == Mat4.from_pair(1, flat)
    assert Mat4(rows).scaled() == (1, flat)
    assert Mat4.diagonal(Fraction(3, 6), 1, 1, 1).scaled() == (2, (1, 0, 0, 0, 0, 2, 0, 0,
                                                                 0, 0, 2, 0, 0, 0, 0, 2))


def test_entry_bits_with_d_p_and_entries_sharing_p():
    # d = 7 with entries 7, 14, 49 and 1: the reduced entries are 1, 2,
    # 7 and 1/7, so the widest reduced numerator or denominator is 7
    p = 7
    m = Mat4([[Fraction(p), Fraction(2 * p, p), 0, 0], [0, 1, 0, 0],
              [0, 0, Fraction(p * p, p), 0], [0, Fraction(1, p), 0, 1]])
    assert m.scaled()[0] == p
    assert m.entry_bits() == ReferenceMat4.of(m).entry_bits() == 3
    zero = Mat4([[0] * 4] * 4)
    assert zero.entry_bits() == ReferenceMat4.of(zero).entry_bits() == 1


def test_entry_bits_at_d_2():
    # the pair is (2, e) with e_01 = 14: the entry itself is 7, 3 bits
    m = Mat4([[Fraction(1, 2), 7, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert m.scaled()[0] == 2 and m.scaled()[1][1] == 14
    assert m.entry_bits() == ReferenceMat4.of(m).entry_bits() == 3


# --- the stored layout: one flat row-major tuple of 16 ints ---------------


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("e", [
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # 4 nested rows
    (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0),
    (),
])
def test_from_pair_refuses_a_nested_or_wrong_length_e(d, e):
    with pytest.raises(ValueError, match=f"16 flat entries, not {len(e)}"):
        Mat4.from_pair(d, e)


@pytest.mark.parametrize("d", [-1, 0])
@pytest.mark.parametrize("e", [(1,) + (0,) * 15, (0,) * 16])
def test_from_pair_refuses_a_denominator_below_one(d, e):
    # from_pair(-1, e) would be the matrix of from_pair(1, -e) with another
    # pair, so unequal to it; from_pair(0, e) would divide by zero
    with pytest.raises(ValueError, match=f"^Mat4.from_pair needs a denominator d > 0, not {d}$"):
        Mat4.from_pair(d, e)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 0]] * 3,
    [[1, 0, 0, 0]] * 5,
    [[1, 0, 0, 0]] * 3 + [[1, 0, 0]],
    [[1, 0, 0, 0]] * 3 + [[1, 0, 0, 0, 0]],
])
def test_rows_of_another_shape_are_refused(rows):
    with pytest.raises(ValueError, match="^Mat4 needs 4 rows of 4 entries$"):
        Mat4(rows)


@DIFF
@given(st.sampled_from((1, 2, *PRIMES)),
       st.lists(st.integers(-(10**20), 10**20), min_size=16, max_size=16))
def test_pair_and_rows_round_trip_on_one_flat_tuple(d, entries):
    m = Mat4([[Fraction(x, d) for x in entries[k:k + 4]] for k in (0, 4, 8, 12)])
    assert Mat4.from_pair(*m.scaled()) == m and Mat4(m.rows) == m
    d2, e = m.scaled()
    assert type(e) is tuple and len(e) == 16 and all(type(x) is int for x in e)
    # bench/workloads._sample_text and bench/spans._entry_bits read these rows
    rows = m.rows
    assert type(rows) is tuple and len(rows) == 4
    assert all(len(row) == 4 and all(type(x) is Fraction for x in row) for row in rows)
    assert [x for row in rows for x in row] == [Fraction(x, d2) for x in e]


@pytest.mark.parametrize("d", [1, 2, 7])
def test_entry_bits_of_the_zero_matrix_is_one(d):
    zero = Mat4.from_pair(d, (0,) * 16)
    assert zero.scaled() == (1, (0,) * 16) and zero.entry_bits() == 1


# --- the inverse: d adj(e) / det(e), one path for every matrix ------------


def _inverse_matches_the_reference(m: Mat4) -> Mat4:
    inverse = m.inv()
    assert ReferenceMat4.of(inverse) == ReferenceMat4.of(m).inv()
    assert m * inverse == I4 and inverse * m == I4
    d, e = inverse.scaled()
    assert d > 0 and math.gcd(d, *e) == 1
    return inverse


def test_symplectic_inverses_match_the_reference():
    p = 5
    elements = [
        *(sample(SampleSpec(GroupLabel.GAMMA_1P, p, s, 6)) for s in range(5)),
        *(generator(name, p) for name in ("M0", "M1", "L5", "J")),
        j1_embed(Mat2.of(0, -1, 1, 0)),
    ]
    with_p = j2_embed(Mat2.of(2, 1, 1, 1), p)
    assert with_p.scaled()[0] == p
    for g in [*elements, with_p]:
        assert symplectic_check(g, SymplecticForm.standard())
        assert _inverse_matches_the_reference(g) == g.symplectic_inv()
    assert {g.scaled()[0] for g in elements} == {1}


def test_symplectic_inverse_needs_its_precondition():
    # off J the signed block transpose is not the inverse: for diag(2,1,1,1)
    # it is diag(1,1,2,1), and for a Lambda element it misses too
    m = Mat4.diagonal(2, 1, 1, 1)
    assert m.symplectic_inv() == Mat4.diagonal(1, 1, 2, 1) != m.inv()
    tilde = sample(SampleSpec(GroupLabel.GAMMA_TILDE_1P, 7, 5, 6))
    assert tilde * tilde.symplectic_inv() != I4


def test_inverse_at_d_2_with_a_positive_determinant():
    # e = d m has det 8 > 0 and d = 2, so the adjugate is scaled by d = 2
    m = Mat4([[Fraction(1, 2), 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    d, e = m.scaled()
    assert d == 2 and mat4_det(Mat4.from_pair(1, e)) == 8
    inverse = _inverse_matches_the_reference(m)
    assert inverse == Mat4([[2, -2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_det_2_diagonal_inverse_matches_the_reference():
    m = Mat4.diagonal(2, 1, 1, 1)
    assert _inverse_matches_the_reference(m) == Mat4.diagonal(Fraction(1, 2), 1, 1, 1)


def test_lambda_symplectic_inverse_matches_the_reference():
    m = sample(SampleSpec(GroupLabel.GAMMA_TILDE_1P, 7, 5, 6))
    assert not symplectic_check(m, SymplecticForm.standard())
    _inverse_matches_the_reference(m)


@settings(max_examples=40, deadline=None)
@given(rational())
def test_rational_inverse_matches_the_reference(m):
    outcome = _outcome(m.inv)
    assert outcome == _outcome(ReferenceMat4.of(m).inv)
    if outcome is not SingularMatrix:
        _inverse_matches_the_reference(m)


def test_negative_determinant_inverse_matches_the_reference():
    third = Fraction(1, 3)
    cases = {
        Mat4.diagonal(-1, 1, 1, 1): Mat4.diagonal(-1, 1, 1, 1),
        Mat4.diagonal(Fraction(-2, 3), 1, 1, 1): Mat4.diagonal(Fraction(-3, 2), 1, 1, 1),
        Mat4([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, third, 0], [0, 0, 1, 1]]): None,
    }
    for m, expected in cases.items():
        assert mat4_det(m) < 0
        inverse = _inverse_matches_the_reference(m)
        assert expected is None or inverse == expected


def test_singular_matrix_still_raises():
    # criterion 9: rank 3, with a rational row
    bad = Mat4([[1, 0, 0, 0], [0, 1, 0, 0], [Fraction(1, 3), Fraction(2, 3), 0, 0], [0, 0, 0, 1]])
    for invert in (bad.inv, ReferenceMat4.of(bad).inv):
        with pytest.raises(SingularMatrix) as exc:
            invert()
        assert str(exc.value) == "4x4 determinant is zero"


def test_rows_refuse_inexact_entries():
    for bad in ("1", 0.5, Decimal("0.1")):
        rows = [[int(i == j) for j in range(4)] for i in range(4)]
        rows[2][1] = bad
        with pytest.raises(TypeError, match=type(bad).__name__):
            Mat4(rows)
        with pytest.raises(TypeError):
            Mat4.diagonal(1, 1, bad, 1)


# --- the parse: (num, den) integers, located errors only on failure ----------


def test_parse_builds_no_fraction(monkeypatch):
    k = j2_embed(Mat2.of(1, 0, 1, 1), 7)
    lists, lists2 = mat4_to_lists(k), [["12", "-5"], ["7", "-3"]]
    monkeypatch.setattr(Fraction, "__new__", lambda *a, **kw: pytest.fail("Fraction built"))
    m, m2 = mat4_from_lists(lists), mat2_from_lists(lists2)
    again = mat4_to_lists(m)
    monkeypatch.undo()
    assert m == k and again == lists
    assert m2 == Mat2.of(12, -5, 7, -3)


# the messages, byte for byte, with {where} the location of the entry
BAD_ENTRIES = {
    "x": "bad scalar 'x' {where}",
    "-0": "bad scalar '-0' {where}",
    "2/4": "scalar '2/4' is not canonical {where}",
    "5/1": "scalar '5/1' is not canonical {where}",
    7: "entry {where} must be a string",
    None: "entry {where} must be a string",
    "9" * 5001: "entry too long to read {where}: ",
}


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("bad", list(BAD_ENTRIES) + ["1/2"])
def test_parse_errors_name_the_entry(bad, n):
    reader = mat2_from_lists if n == 2 else mat4_from_lists
    for i in range(n):
        for j in range(n):
            obj = [["1" if r == c else "0" for c in range(n)] for r in range(n)]
            obj[i][j] = bad
            if bad == "1/2" and n == 4:
                assert reader(obj).rows[i][j] == Fraction(1, 2)
                continue
            where = f"at ({i},{j})"
            expected = "entry {where} must be an integer" if bad == "1/2" else BAD_ENTRIES[bad]
            with pytest.raises(ParseError) as exc:
                reader(obj)
            assert str(exc.value).startswith(expected.format(where=where))
            if not expected.endswith(": "):
                assert str(exc.value) == expected.format(where=where)


def test_rows_that_parse_format_no_location(monkeypatch):
    # a fraction takes the per-entry reader; rows that parse pass no location
    seen = []
    read = matrices._ratio_from_str

    def spy(s, where="", integral=False):
        seen.append(where)
        return read(s, where, integral)

    monkeypatch.setattr(matrices, "_ratio_from_str", spy)
    obj = [["1/2", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "3"]]
    assert matrices._read_rows(obj, 4) == (2, (1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 6))
    assert seen == [""] * 16


# --- one reader against the reference: the one-match path and the fallback ---

GOLDEN = Path(__file__).resolve().parent / "golden"


def _count_entry_reads(monkeypatch) -> list[str]:
    """Record each call of the per-entry reader; returns the record."""
    seen = []
    read = matrices._ratio_from_str

    def spy(s, where="", integral=False):
        seen.append(s)
        return read(s, where, integral)

    monkeypatch.setattr(matrices, "_ratio_from_str", spy)
    return seen


def test_golden_witnesses_read_integer_matrices_in_one_match(monkeypatch):
    # three golden conjugators hold a fraction; only their entries are read one by one
    texts = [path.read_text() for path in sorted(GOLDEN.glob("witness_*.json"))]
    assert len(texts) == 12
    fractions = []
    for text in texts:
        obj = json.loads(text)
        mats = [obj["target"]] + [node["value"] for node in obj["nodes"] if "value" in node]
        fractions += [x for m in mats if any("/" in x for row in m for x in row)
                      for row in m for x in row]
    assert len(fractions) == 3 * 16
    seen = _count_entry_reads(monkeypatch)
    certs = [parse(text) for text in texts]
    assert seen == fractions
    assert [serialize(cert) for cert in certs] == [text.rstrip("\n") for text in texts]


def test_a_fraction_entry_still_takes_the_entry_reader(monkeypatch):
    cert = parse((GOLDEN / "witness_p5_len3.json").read_text())
    target = Mat4.diagonal(Fraction(1, 5), 1, 1, 5)
    text = serialize(Certificate(cert.p, cert.nodes, cert.root, target))
    assert '"1/5"' in text
    seen = _count_entry_reads(monkeypatch)
    again = parse(text)
    assert seen == ["1/5"] + ["0"] * 4 + ["1"] + ["0"] * 4 + ["1"] + ["0"] * 4 + ["5"]
    assert again == Certificate(cert.p, cert.nodes, cert.root, target)


def _read_like_the_reference(obj, n: int) -> None:
    reader = mat2_from_lists if n == 2 else mat4_from_lists
    try:
        got = "rows", reader(obj).rows
    except ParseError as exc:
        got = "error", str(exc)
    assert got == reference_read_matrix(obj, n)


TOO_LONG = "9" * 4301
HOSTILE_ENTRIES = [
    "-0", "007", "+1", " 1", "1 ", "1\n", "1_000", "\u0661", "1\u0661", "3/1\u0660",
    "5/1", "2/4", "0/5", "-0/3", "1/0", "1/-2", "", "-", "1.0", "1e3",
    "1,2", "3;4", ",", ";", "1/2,3",
    7, True, None, 1.0, ["1"], TOO_LONG, "-" + TOO_LONG, "1/" + TOO_LONG, "1" * 4300,
]


@st.composite
def entry_matrices(draw):
    """``(obj, n)``: an n x n interchange matrix of canonical integers,
    with up to three entries made fractions or hostile, then maybe one
    hostile row, then maybe a hostile shape."""
    n = draw(st.sampled_from((2, 4)))
    index = st.integers(0, n - 1)
    ints = st.one_of(st.integers(-9, 9), st.integers(-(10**40), 10**40)).map(str)
    entries = st.one_of(
        st.fractions(max_denominator=10**9).map(str), st.sampled_from(HOSTILE_ENTRIES)
    )
    obj = [[draw(ints) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        obj[draw(index)][draw(index)] = draw(entries)
    if draw(st.integers(0, 4)) == 0:
        i = draw(index)
        obj[i] = draw(st.sampled_from((
            "".join(map(str, range(n))), obj[i][:-1], obj[i] + ["0"], [], None, tuple(obj[i]),
        )))
    if draw(st.integers(0, 9)) == 0:
        obj = draw(st.sampled_from((obj[:-1], obj + [obj[0]], "", None, {"0": obj})))
    return obj, n


@settings(max_examples=400, deadline=None)
@given(entry_matrices())
def test_matrix_reader_matches_the_reference(case):
    _read_like_the_reference(*case)


def _identity_lists(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("bad", HOSTILE_ENTRIES)
def test_each_hostile_entry_reads_like_the_reference(bad, n):
    for i, j in ((0, 0), (n - 1, 1), (1, n - 1)):
        obj = _identity_lists(n)
        obj[i][j] = bad
        _read_like_the_reference(obj, n)


@pytest.mark.parametrize("n", [2, 4])
def test_each_hostile_row_reads_like_the_reference(n):
    digits = "".join(map(str, range(1, n + 1)))
    rows = [digits, ",".join(digits), ["1"] * (n - 1), ["1"] * (n + 1), [], None,
            ["1,0"] + ["0"] * (n - 1), ["0"] * (n - 1) + ["1;0"], ["1,0", "0;1"] + ["0"] * (n - 2)]
    for row in rows:
        for i in range(n):
            obj = _identity_lists(n)
            obj[i] = row
            _read_like_the_reference(obj, n)
        _read_like_the_reference([row] * n, n)
    for obj in ([], _identity_lists(n)[:-1], _identity_lists(n) + [["0"] * n],
                ";".join(",".join(r) for r in _identity_lists(n)), None):
        _read_like_the_reference(obj, n)


@pytest.mark.parametrize("m", [
    generator("M2", 7),
    Mat4([[Fraction(1, 3), 0, 0, 0], [0, 3, 0, 0], [0, 0, Fraction(-5, 6), 2], [0, 0, 0, 1]]),
])
def test_repr_is_the_pair_and_evaluates_back(m):
    d, e = m.scaled()
    assert repr(m) == f"Mat4.from_pair({d!r}, {e!r})"
    assert eval(repr(m), {"Mat4": Mat4}) == m


# --- the 4x4 one-pass reader: exact error texts, and the entry path's pair ---

def _too_long_text() -> str:
    """What ``int`` says of a 4,301-digit string under the default limit."""
    try:
        int(TOO_LONG)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("a 4,301-digit string read as an int")


HOSTILE_ROWS_4X4 = [  # (row index, the row put there, the exact ParseError text)
    (1, "0,1,0,0", "row 1 must be a list of 4 entries"),
    (2, ("0", "0", "1", "0"), "row 2 must be a list of 4 entries"),
    (0, ["1", "0", "0"], "row 0 must be a list of 4 entries"),
    (3, ["0", "0", "0", "1", "0"], "row 3 must be a list of 4 entries"),
]
HOSTILE_ENTRIES_4X4 = [  # (cell, the entry put there, the exact ParseError text)
    ((1, 2), 7, "entry at (1,2) must be a string"),
    ((2, 0), 1.0, "entry at (2,0) must be a string"),
    ((3, 3), None, "entry at (3,3) must be a string"),
    ((0, 1), "1\n", "bad scalar '1\\n' at (0,1)"),
    ((1, 1), "\u0661", "bad scalar '\u0661' at (1,1)"),
    ((2, 3), "-0", "bad scalar '-0' at (2,3)"),
    ((3, 0), "05", "bad scalar '05' at (3,0)"),
    ((0, 3), "2/4", "scalar '2/4' is not canonical at (0,3)"),
    ((1, 0), TOO_LONG, None),  # the text ends in what int() says: _too_long_text
]


@pytest.mark.parametrize("i, row, text", HOSTILE_ROWS_4X4)
def test_each_hostile_4x4_row_keeps_its_exact_error(i, row, text):
    obj = _identity_lists(4)
    obj[i] = row
    with pytest.raises(ParseError) as exc:
        mat4_from_lists(obj)
    assert str(exc.value) == text


@pytest.mark.parametrize("obj", [_identity_lists(4)[:3], _identity_lists(4) + [["0"] * 4], None])
def test_a_4x4_literal_of_another_shape_keeps_its_exact_error(obj):
    with pytest.raises(ParseError) as exc:
        mat4_from_lists(obj)
    assert str(exc.value) == "matrix must be a list of 4 rows"


@pytest.mark.parametrize("cell, bad, text", HOSTILE_ENTRIES_4X4)
def test_each_hostile_4x4_entry_keeps_its_exact_error(cell, bad, text):
    (i, j), obj = cell, _identity_lists(4)
    obj[i][j] = bad
    with pytest.raises(ParseError) as exc:
        mat4_from_lists(obj)
    assert str(exc.value) == (text or f"entry too long to read at ({i},{j}): {_too_long_text()}")


def _entry_by_entry(obj) -> tuple[int, tuple[int, ...]]:
    """The pair of the reader's entry-by-entry path, called directly."""
    return matrices._scale([matrices._ratio_from_str(x) for row in obj for x in row])


class _Row(list):
    """A list subclass: the one-pass reader takes only exact lists."""


@pytest.mark.parametrize("m", [
    I4, generator("M1", 7) * generator("L5", 7) * generator("M3", 7),
    Mat4([[-(10**40), 0, 3, 0], [0, 1, 0, 0], [0, 0, 1, 0], [7, 0, 0, 10**39 + 1]]),
])
def test_an_integer_literal_reads_the_pair_of_the_entry_path(m, monkeypatch):
    obj = mat4_to_lists(m)
    pair = _entry_by_entry(obj)
    assert pair == (1, m.scaled()[1]) and type(pair[1]) is tuple
    assert matrices._read_rows([_Row(row) for row in obj], 4) == pair  # the entry path
    seen = _count_entry_reads(monkeypatch)
    assert matrices._read_rows(obj, 4) == pair and seen == []  # the one pass
    assert mat4_from_lists(obj) == m


def test_a_fraction_literal_reads_the_pair_of_the_entry_path():
    obj = _identity_lists(4)
    obj[1][2], obj[3][3] = "-1/6", "5/4"
    assert matrices._read_rows(obj, 4) == _entry_by_entry(obj) == (
        12, (12, 0, 0, 0, 0, 12, -2, 0, 0, 0, 12, 0, 0, 0, 0, 15))
