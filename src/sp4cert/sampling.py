"""Deterministic seeded sampling of group elements.

Samples are random words over group-specific alphabets, built with
``random.Random`` (the stdlib Mersenne Twister, whose sequence for a
given seed is stable across platforms and Python versions).  A spec
therefore identifies its sample exactly, and every failure report can
quote the spec that reproduces it.

No uniformity is claimed -- downstream algorithms are replay-verified,
so input coverage is a test-quality concern, not a soundness one.  What
*is* guaranteed: the sampler revalidates its output against the group
predicate and refuses to return anything that fails it.

Alphabets, one row per entry of the dispatch table ``_SAMPLERS``:

=================  ======================================================
gamma_1p           M1..M4, j1(random SL2 word), j2(random gamma1_of_p)
gamma_tilde_1p     R-conjugate of a gamma_1p sample
gamma_p2           symplectic elementaries congruent to 1 mod p^2
sp_lambda_z        Mt1..Mt4, tilde j1/j2 of random SL2 words
sl2z               T and U with exponents in [-3, 3]
gamma1_of_p        ((1,p),(0,1)), ((1,0),(p,1)) and SL2-conjugates
gamma1prime_p2     ((1,p),(0,1)) and ((1,0),(p^3,1))
=================  ======================================================

The gamma_1p and sp_lambda_z samples are drawn as a
:class:`~sp4cert.decompose.GeneratorWord` and the sl2z samples as an
:class:`~sp4cert.sl2.Sl2Word`, and multiplied out by that word's own
``replay``, the same product the decomposition oracle uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decompose import ALPHABET, J1, J2, GeneratorWord, Letter, Named
from .errors import ShapeAssertionFailed, UnknownName
from .groups import GroupLabel, member, r_conjugate, require_odd_prime
from .matrices import Mat2, Mat4
from .sl2 import Sl2Word


@dataclass(frozen=True)
class SampleSpec:
    group: GroupLabel
    p: int
    seed: int
    word_length: int

    def describe(self) -> str:
        return (
            f"group={GroupLabel(self.group).value} p={self.p} "
            f"seed={self.seed} word_length={self.word_length}"
        )


def _nonzero_exp(rng: random.Random, bound: int = 3) -> int:
    e = rng.randint(1, bound)
    return e if rng.random() < 0.5 else -e


def _sample_sl2(rng: random.Random, length: int) -> Mat2:
    return Sl2Word(
        tuple(("T" if rng.random() < 0.5 else "U", _nonzero_exp(rng)) for _ in range(length))
    ).replay()


def _sample_gamma1_of_p(rng: random.Random, p: int, length: int) -> Mat2:
    acc = Mat2.identity()
    for _ in range(length):
        up = rng.random() < 0.5
        e = _nonzero_exp(rng, 2)
        g = Mat2.of(1, e * p, 0, 1) if up else Mat2.of(1, 0, e * p, 1)
        if rng.random() < 0.5:
            w = _sample_sl2(rng, rng.randint(1, 2))
            g = w * g * w.inv()
        acc = acc * g
    return acc


def _sample_gamma1prime_p2(rng: random.Random, p: int, length: int) -> Mat2:
    acc = Mat2.identity()
    for _ in range(length):
        up = rng.random() < 0.5
        e = _nonzero_exp(rng, 2)
        acc = acc * (Mat2.of(1, e * p, 0, 1) if up else Mat2.of(1, 0, e * p**3, 1))
    return acc


def _sample_word(rng: random.Random, p: int, length: int, tilde: bool) -> Mat4:
    """Replay of a random word over M1..M4, j1 of SL(2,Z) words and j2 of
    gamma1_of_p words; with ``tilde``, over Mt1..Mt4, j1 and tilde j2 of
    SL(2,Z) words."""
    letters: list[Letter] = []
    for _ in range(length):
        pick = rng.randrange(6)
        if pick < 4:
            letters.append(Named(ALPHABET[tilde][pick], _nonzero_exp(rng, 2)))
        elif pick == 4:
            letters.append(J1(_sample_sl2(rng, rng.randint(1, 3))))
        elif tilde:
            letters.append(J2(_sample_sl2(rng, rng.randint(1, 2))))
        else:
            letters.append(J2(_sample_gamma1_of_p(rng, p, rng.randint(1, 2))))
    return GeneratorWord(p, tilde, tuple(letters)).replay()


def _sym2(rng: random.Random, scale: int) -> tuple[int, int, int]:
    return (
        scale * rng.randint(-2, 2),
        scale * rng.randint(-2, 2),
        scale * rng.randint(-2, 2),
    )


def _sample_gamma_p2(rng: random.Random, p: int, length: int) -> Mat4:
    """Products of symplectic elementaries congruent to 1 mod p^2:
    ((1,B),(0,1)) and ((1,0),(C,1)) with B, C symmetric multiples of
    p^2, and block-diagonal ((A,0),(0,(A^T)^-1)) with A a unipotent
    shear by a multiple of p^2."""
    p2 = p * p
    acc = Mat4.identity()
    for _ in range(length):
        pick = rng.randrange(3)
        if pick == 0:
            b11, b12, b22 = _sym2(rng, p2)
            m = Mat4([[1, 0, b11, b12], [0, 1, b12, b22], [0, 0, 1, 0], [0, 0, 0, 1]])
        elif pick == 1:
            c11, c12, c22 = _sym2(rng, p2)
            m = Mat4([[1, 0, 0, 0], [0, 1, 0, 0], [c11, c12, 1, 0], [c12, c22, 0, 1]])
        else:
            k = p2 * rng.randint(-2, 2)
            if rng.random() < 0.5:
                m = Mat4([[1, k, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -k, 1]])
            else:
                m = Mat4([[1, 0, 0, 0], [k, 1, 0, 0], [0, 0, 1, -k], [0, 0, 0, 1]])
        acc = acc * m
    return acc


# one sampler per label, (rng, p, word_length) -> matrix, in the order
# of the module table
_SAMPLERS = {
    GroupLabel.GAMMA_1P: lambda rng, p, n: _sample_word(rng, p, n, tilde=False),
    GroupLabel.GAMMA_TILDE_1P: lambda rng, p, n: r_conjugate(
        _sample_word(rng, p, n, tilde=False), p
    ),
    GroupLabel.GAMMA_P2: _sample_gamma_p2,
    GroupLabel.SP_LAMBDA_Z: lambda rng, p, n: _sample_word(rng, p, n, tilde=True),
    GroupLabel.SL2Z: lambda rng, p, n: _sample_sl2(rng, n),
    GroupLabel.GAMMA1_OF_P: _sample_gamma1_of_p,
    GroupLabel.GAMMA1PRIME_P2: _sample_gamma1prime_p2,
}


def sample(spec: SampleSpec) -> Mat2 | Mat4:
    """Deterministic member of the requested group; identical specs
    yield identical matrices.  The result is revalidated before return;
    a predicate failure is a sampler bug and raises."""
    label = GroupLabel(spec.group)
    p = require_odd_prime(spec.p)
    sampler = _SAMPLERS.get(label)
    if sampler is None:
        raise UnknownName(f"no sampler for {label.value}")
    result = sampler(random.Random(spec.seed), p, spec.word_length)
    if not member(result, label, p):
        raise ShapeAssertionFailed(f"sampler output fails its own predicate: {spec.describe()}")
    return result
