"""Golden corpus: serialised outputs pinned byte for byte.

``tests/golden/`` holds, for each p in {3, 5, 7},

* ``words_p<p>.json`` -- the word JSON of ``decompose(k, p, tilde=False)``
  for gamma_1p samples of word lengths 0..20 at one fixed seed;
* ``witness_p<p>_len<n>.json`` -- the serialised
  ``normal_closure_witness`` of three short samples, and of the
  shortest sample whose word has a named exponent past p^2/2, so that
  ``CertBuilder.power`` splits it into a small power and one seed.

A change that is meant to keep behaviour must leave every file as it
is.  A change that alters words or certificates on purpose regenerates
the corpus with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

import pytest

from sp4cert.certificates import normal_closure_witness, serialize
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


def corpus() -> dict[str, Callable[[], str]]:
    """File name -> function producing its expected text."""
    out = {f"words_p{p}.json": (lambda p=p: words_text(p)) for p in PRIMES}
    for p in PRIMES:
        for n in (*WITNESS_LENGTHS, SPLIT_LENGTH[p]):
            out[f"witness_p{p}_len{n}.json"] = lambda p=p, n=n: witness_text(p, n)
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
