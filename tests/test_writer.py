"""The certificate writer against the standard library's encoder.

``serialize`` writes its text directly; ``support.reference_certificate_text``
is ``json.dumps(obj, indent=1)`` of the certificate's JSON object, which
is how the text was first written.  Every certificate here must give
the same bytes both ways and read back equal."""

from __future__ import annotations

import json
import re
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
from sp4cert.cli import main
from sp4cert.errors import ParseError
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, j1_embed
from sp4cert.matrices import Mat2, Mat4
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
