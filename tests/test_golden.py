"""Golden corpus: serialised outputs pinned byte for byte.

``tests/golden/`` holds, for each p in {3, 5, 7},

* ``words_p<p>.json`` -- the word JSON of ``decompose(k, p, tilde=False)``
  for gamma_1p samples of word lengths 0..20 at one fixed seed;
* ``witness_p<p>_len<n>.json`` -- the serialised
  ``normal_closure_witness`` of three short samples, and of the
  shortest sample whose word has a named exponent past p^2/2, so that
  ``CertBuilder.power`` splits it into a small power and one seed;
* ``verify_p<p>.txt`` -- the ``sp4cert verify`` output and exit code for
  each of those witness files, for ``VERIFY_TAMPERS`` ``random_tamper``
  draws of each (one seeded generator per p), and for one malformed
  file, which exits 2.

A change that is meant to keep behaviour must leave every file as it
is.  A change that alters words or certificates on purpose regenerates
the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest
from support import random_tamper

from sp4cert.certificates import normal_closure_witness, parse, serialize
from sp4cert.cli import main
from sp4cert.decompose import Named, decompose
from sp4cert.groups import GroupLabel
from sp4cert.sampling import SampleSpec, sample

GOLDEN = Path(__file__).resolve().parent / "golden"
PRIMES = (3, 5, 7)
WORD_SEED = {3: 3003, 5: 5005, 7: 7007}
WORD_LENGTHS = range(21)
WITNESS_SEED = 3  # its words use named, j1 and j2 letters
WITNESS_LENGTHS = (1, 2, 3)
SPLIT_LENGTH = {3: 7, 5: 8, 7: 8}  # the first with a named exponent past p^2/2
VERIFY_SEED = 1919
VERIFY_TAMPERS = 3


def _sample(p: int, seed: int, length: int):
    return sample(SampleSpec(GroupLabel.GAMMA_1P, p, seed, length))


def words_text(p: int) -> str:
    words = [
        decompose(_sample(p, WORD_SEED[p], n), p, tilde=False).to_json_obj()
        for n in WORD_LENGTHS
    ]
    return json.dumps(words, indent=1) + "\n"


def witness_text(p: int, length: int) -> str:
    return serialize(normal_closure_witness(_sample(p, WITNESS_SEED, length), p)) + "\n"


def _verify_run(name: str, cert_text: str) -> str:
    """``sp4cert verify --cert -`` on ``cert_text``: a header naming the
    case, then what the command writes to stdout and stderr, then its
    exit code."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(sys, "stdin", io.StringIO(cert_text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(["verify", "--cert", "-"])
    return f"== {name}\n{out.getvalue()}{err.getvalue()}exit {code}\n"


def verify_text(p: int) -> str:
    """The verify transcript of the golden witnesses of p, their tampers
    and one malformed file (a forward reference)."""
    paths = sorted(GOLDEN.glob(f"witness_p{p}_*.json"))
    witnesses = {path.name: path.read_text() for path in paths}
    runs = [_verify_run(name, text) for name, text in witnesses.items()]
    rng = random.Random(VERIFY_SEED + p)
    for name, text in witnesses.items():
        cert = parse(text)
        for i in range(VERIFY_TAMPERS):
            runs.append(_verify_run(f"{name} tamper {i}", serialize(random_tamper(cert, rng))))
    identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    malformed = {"p": p, "nodes": [{"id": 0, "op": "inv", "args": [0]}], "root": 0, "target": identity}
    runs.append(_verify_run("malformed", json.dumps(malformed)))
    return "".join(runs)


def corpus() -> dict[str, Callable[[], str]]:
    """File name -> function producing its expected text; each verify
    transcript comes after the witness files it reads."""
    out = {f"words_p{p}.json": (lambda p=p: words_text(p)) for p in PRIMES}
    for p in PRIMES:
        for n in (*WITNESS_LENGTHS, SPLIT_LENGTH[p]):
            out[f"witness_p{p}_len{n}.json"] = lambda p=p, n=n: witness_text(p, n)
    for p in PRIMES:
        out[f"verify_p{p}.txt"] = lambda p=p: verify_text(p)
    return out


@pytest.mark.parametrize("name", sorted(corpus()))
def test_matches_golden_corpus(name):
    expected = (GOLDEN / name).read_bytes()
    assert corpus()[name]().encode("utf-8") == expected


@pytest.mark.parametrize("p", PRIMES)
def test_split_length_is_the_first_with_a_large_named_exponent(p):
    def largest(n: int) -> int:
        word = decompose(_sample(p, WITNESS_SEED, n), p, tilde=False)
        return max((abs(x.exp) for x in word.letters if isinstance(x, Named)), default=0)

    assert largest(SPLIT_LENGTH[p]) > p * p // 2
    assert all(largest(n) <= p * p // 2 for n in range(SPLIT_LENGTH[p]))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in corpus().items():
        (GOLDEN / name).write_bytes(make().encode("utf-8"))
        print(f"wrote {GOLDEN / name}")
