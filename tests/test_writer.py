"""The certificate writer against the standard library's encoder.

``serialize`` writes its text directly; ``support.reference_certificate_text``
is ``json.dumps(obj, indent=1)`` of the certificate's JSON object, which
is how the text was first written.  Every certificate here must give
the same bytes both ways and read back equal, unless a node fits no
template of the writer, which must then raise."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from support import certificate_to_json_obj, reference_certificate_text

from sp4cert.certificates import (
    CONJ,
    INV,
    MUL,
    SEED_M0,
    SEED_P2,
    Certificate,
    CertNode,
    build_generator_certs,
    expand_j1,
    expand_j2,
    normal_closure_witness,
    parse,
    serialize,
)
import sp4cert.certificates as certificates
import sp4cert.matrices as matrices
from sp4cert.cli import main
from sp4cert.decompose import J1, GeneratorWord, Named
from sp4cert.errors import ParseError
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, j1_embed
from sp4cert.matrices import Mat2, Mat4, mat4_from_lists, mat4_to_lists
from sp4cert.sampling import SampleSpec, sample

GOLDEN = Path(__file__).resolve().parent / "golden"


def _same_both_ways(cert: Certificate) -> str:
    text = serialize(cert)
    assert text == reference_certificate_text(cert)
    return text


def _writes_and_reads_back(cert: Certificate) -> None:
    assert parse(_same_both_ways(cert)) == cert


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(0, 2**32), st.integers(0, 20))
def test_witnesses_write_as_the_reference(p, seed, length):
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, seed, length))
    _writes_and_reads_back(normal_closure_witness(k, p))


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("witness_*.json")), ids=lambda p: p.name)
def test_golden_witnesses_write_as_the_reference(path):
    # three of them hold a fraction conjugator: -1/3, -1/5 or -6/7
    text = path.read_text()
    cert = parse(text)
    assert _same_both_ways(cert) == text.rstrip("\n")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_generator_and_embedding_certificates_write_as_the_reference(p):
    certs = list(build_generator_certs(p).values())
    certs.append(expand_j1(Mat2.of(2, 1, 1, 1), p))
    certs.append(expand_j1(Mat2.of(-7, 3, 2, -1), p))
    certs.append(expand_j2(Mat2.of(1 + p, p, -p, 1 - p), p))
    certs.append(expand_j2(Mat2.of(1, 0, p, 1), p))
    for cert in certs:
        _writes_and_reads_back(cert)


def _seed(entry) -> Mat4:
    return Mat4([[1, 0, 0, 0], [0, 1, 0, entry], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_hand_built_certificates_write_as_the_reference():
    target = Mat4([[1, 0, 0, -3], [0, 1, -3, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    conj = j1_embed(Mat2.of(-1, 0, 0, -1)) * Mat4.diagonal(-1, -1, -1, -1)
    cases = [
        Certificate(3, (CertNode(SEED_M0),), 0, generator("M0", 3)),
        Certificate(3, (CertNode(SEED_P2, value=_seed(-9)),), 0, _seed(-9)),
        Certificate(
            5,
            (CertNode(SEED_M0), CertNode(INV, (0,)), CertNode(CONJ, (1,), conj),
             CertNode(MUL, (2, 0)), CertNode(SEED_P2, value=_seed(-25)), CertNode(MUL, (3, 4))),
            5,
            target,
        ),
        Certificate(3, (CertNode(SEED_M0),), 0, Mat4.diagonal(Fraction(-1, 3), 1, 1, -3)),
    ]
    for cert in cases:
        _writes_and_reads_back(cert)


@pytest.mark.parametrize("sign, digits", [(1, 4_401), (-1, 4_401), (-1, 9_001)])
def test_entries_past_the_digit_limit_write_as_the_reference(sign, digits):
    # _int_to_str writes them in pieces; the reader refuses them, as before
    entry = sign * (10 ** (digits - 1) + 7)
    cert = Certificate(3, (CertNode(SEED_P2, value=_seed(entry)),), 0, _seed(entry))
    text = _same_both_ways(cert)
    assert max(map(len, re.findall("[0-9]+", text))) == digits
    with pytest.raises(ParseError, match="too long"):
        parse(text)


def test_certify_generators_writes_the_reference_payload(tmp_path, capsys):
    out = tmp_path / "generators.json"
    assert main(["certify-generators", "--p", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    certs = build_generator_certs(3)
    payload = {name: certificate_to_json_obj(cert) for name, cert in certs.items()}
    assert out.read_text() == json.dumps(payload, indent=1) + "\n"


# --- the entry writer: str at C speed, _int_to_str only past the limit ------


@pytest.fixture
def no_pieces(monkeypatch):
    """``matrices._int_to_str`` raising: an entry below the int/str
    limit must never reach it."""
    def refuse(n):
        raise AssertionError(f"_int_to_str called on a {len(str(n))}-digit entry")

    monkeypatch.setattr(matrices, "_int_to_str", refuse)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("witness_*.json")), ids=lambda p: p.name)
def test_golden_witnesses_write_with_no_call_per_entry(no_pieces, path):
    text = path.read_text()
    assert serialize(parse(text)) == text.rstrip("\n")


@pytest.mark.parametrize("p", [3, 7])
def test_golden_generator_certificates_write_with_no_call_per_entry(no_pieces, tmp_path, capsys, p):
    out = tmp_path / "generators.json"
    assert main(["certify-generators", "--p", str(p), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == (GOLDEN / f"generators_p{p}.json").read_text()


def test_a_matrix_over_two_writes_each_entry_in_lowest_terms():
    # a common denominator of 2 must not take the integer path
    m = Mat4.diagonal(Fraction(1, 2), Fraction(-3, 2), 1, 2)
    lists = [["1/2", "0", "0", "0"], ["0", "-3/2", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "2"]]
    assert m.scaled()[0] == 2
    assert mat4_to_lists(m) == lists and mat4_from_lists(lists) == m


def _long_entry_texts() -> tuple[str, str]:
    """A certificate with 641- and 1,300-digit entries, one of them over
    3, and a word whose j1 payload has a 700-digit entry, as text."""
    n641, n1300 = 10 ** 640 + 3, -(10 ** 1299 + 10)
    big = Mat4([[1, n641, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -n641, 1]])
    frac = Mat4.diagonal(Fraction(n1300, 3), 1, 1, 1)
    cert = Certificate(3, (CertNode(SEED_P2, value=big), CertNode(CONJ, (0,), frac)), 1, frac)
    payload = Mat2.of(1, 10 ** 699 + 7, 0, 1)
    word = GeneratorWord(5, False, (Named("M1", 2), J1(payload), Named("M3", -1)))
    return serialize(cert), json.dumps(word.to_json_obj(), indent=1)


def test_entries_past_a_lowered_digit_limit_write_as_at_the_default():
    # 640 is the smallest limit the interpreter accepts; _DIGITS stays below it
    expected = _long_entry_texts()
    assert {641, 700, 1300} <= set(map(len, re.findall("[0-9]+", "".join(expected))))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _long_entry_texts() == expected
    finally:
        sys.set_int_max_str_digits(old)


# --- one % over one flat tuple: ints as they are stored, a per-node fit ----


def test_a_long_integral_literal_after_others_writes_as_the_reference():
    # the flat tuple is half built, with stored ints and fraction strings,
    # when the long literal's %s raises; the whole text is written again
    long = 10 ** 4_400 + 1
    half = Mat4.diagonal(Fraction(1, 2), Fraction(-3, 2), 1, 2)
    third = Mat4.diagonal(Fraction(-1, 3), 1, 1, -3)
    nodes = (CertNode(SEED_P2, value=_seed(-9)), CertNode(CONJ, (0,), half), CertNode(CONJ, (1,), third),
             CertNode(MUL, (2, 0)), CertNode(SEED_P2, value=_seed(-long)), CertNode(MUL, (3, 4)))
    for target in (_seed(9), _seed(long), third):
        text = _same_both_ways(Certificate(3, nodes, 5, target))
        assert max(map(len, re.findall("[0-9]+", text))) == 4_401
        assert '"-3/2"' in text and '"-1/3"' in text


@pytest.fixture
def entry_writer_calls(monkeypatch):
    """The matrices that ``serialize`` hands to ``entry_strings``."""
    seen = []

    def spy(m):
        seen.append(m)
        return matrices.entry_strings(m)

    monkeypatch.setattr(certificates, "entry_strings", spy)
    return seen


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("witness_*.json")), ids=lambda p: p.name)
def test_only_fraction_literals_reach_the_entry_writer(entry_writer_calls, path):
    text = path.read_text()
    cert = parse(text)
    assert serialize(cert) == text.rstrip("\n")
    literals = [node.value for node in cert.nodes if node.value is not None] + [cert.target]
    assert entry_writer_calls == [m for m in literals if m.scaled()[0] != 1]


def test_two_misfits_that_cancel_in_the_flat_tuple_raise():
    # the mul's 16 extra entries fill the conj's 16 missing ones: written
    # flat with no fit check, every field between them would shift
    conj = j1_embed(Mat2.of(0, -1, 1, 0))
    nodes = (CertNode(SEED_M0), CertNode(MUL, (0, 0), conj), CertNode(CONJ, (1,)))
    cert = Certificate(3, nodes, 2, conj)
    assert '"value"' in reference_certificate_text(cert)  # the nodes hold what the encoder writes
    with pytest.raises(TypeError, match="^node 1: op mul with 2 args and a value fits no template$"):
        serialize(cert)


@pytest.mark.parametrize("node, text", [
    (CertNode(MUL, (0, 0), _seed(3)), "op mul with 2 args and a value"),
    (CertNode(CONJ, (0,)), "op conj with 1 args and no value"),
    (CertNode(SEED_P2), "op seed_p2 with 0 args and no value"),
    (CertNode(SEED_M0, value=_seed(3)), "op seed_m0 with 0 args and a value"),
    (CertNode(MUL, (0,)), "op mul with 1 args and no value"),
    (CertNode(INV, (0, 0)), "op inv with 2 args and no value"),
    (CertNode(CONJ, (0, 0), _seed(3)), "op conj with 2 args and a value"),
])
def test_a_single_misfit_node_raises(node, text):
    cert = Certificate(3, (CertNode(SEED_M0), node, CertNode(INV, (1,))), 2, _seed(3))
    with pytest.raises(TypeError, match=f"^node 1: {text} fits no template$"):
        serialize(cert)
