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

Alphabets:

=================  ======================================================
gamma_1p           M1..M4, j1(random SL2 word), j2(random gamma1_of_p)
gamma_tilde_1p     R-conjugate of a gamma_1p sample
gamma_p2           symplectic elementaries congruent to 1 mod p^2
sp_lambda_z        Mt1..Mt4, tilde j1/j2 of random SL2 words
sl2z               T and U with exponents in [-3, 3]
gamma1_of_p        ((1,p),(0,1)), ((1,0),(p,1)) and SL2-conjugates
gamma1prime_p2     ((1,p),(0,1)) and ((1,0),(p^3,1))
=================  ======================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InternalPredicateFailure, UnknownName
from .generators import generator
from .groups import (
    GroupLabel,
    j1_embed,
    j2_embed,
    member,
    r_conjugate,
    require_odd_prime,
)
from .matrices import Mat2, Mat4
from .sl2 import T, U


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
    acc = Mat2.identity()
    for _ in range(length):
        acc = acc * (T if rng.random() < 0.5 else U) ** _nonzero_exp(rng)
    return acc


def _sample_gamma1_of_p(rng: random.Random, p: int, length: int) -> Mat2:
    shear_up = Mat2.of(1, p, 0, 1)
    shear_down = Mat2.of(1, 0, p, 1)
    acc = Mat2.identity()
    for _ in range(length):
        g = (shear_up if rng.random() < 0.5 else shear_down) ** _nonzero_exp(rng, 2)
        if rng.random() < 0.5:
            w = _sample_sl2(rng, rng.randint(1, 2))
            g = w * g * w.inv()
        acc = acc * g
    return acc


def _sample_gamma1prime_p2(rng: random.Random, p: int, length: int) -> Mat2:
    a = Mat2.of(1, p, 0, 1)
    b = Mat2.of(1, 0, p**3, 1)
    acc = Mat2.identity()
    for _ in range(length):
        acc = acc * (a if rng.random() < 0.5 else b) ** _nonzero_exp(rng, 2)
    return acc


def _sample_gamma_1p(rng: random.Random, p: int, length: int) -> Mat4:
    acc = Mat4.identity()
    for _ in range(length):
        pick = rng.randrange(6)
        if pick < 4:
            acc = acc * generator(f"M{pick + 1}", p) ** _nonzero_exp(rng, 2)
        elif pick == 4:
            acc = acc * j1_embed(_sample_sl2(rng, rng.randint(1, 3)))
        else:
            acc = acc * j2_embed(
                _sample_gamma1_of_p(rng, p, rng.randint(1, 2)), p
            )
    return acc


def _sample_sp_lambda(rng: random.Random, p: int, length: int) -> Mat4:
    acc = Mat4.identity()
    for _ in range(length):
        pick = rng.randrange(6)
        if pick < 4:
            acc = acc * generator(f"Mt{pick + 1}", p) ** _nonzero_exp(rng, 2)
        elif pick == 4:
            acc = acc * j1_embed(_sample_sl2(rng, rng.randint(1, 3)))
        else:
            acc = acc * j2_embed(_sample_sl2(rng, rng.randint(1, 2)), p, tilde=True)
    return acc


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
            m = Mat4.from_rows(
                [[1, 0, b11, b12], [0, 1, b12, b22], [0, 0, 1, 0], [0, 0, 0, 1]]
            )
        elif pick == 1:
            c11, c12, c22 = _sym2(rng, p2)
            m = Mat4.from_rows(
                [[1, 0, 0, 0], [0, 1, 0, 0], [c11, c12, 1, 0], [c12, c22, 0, 1]]
            )
        else:
            k = p2 * rng.randint(-2, 2)
            if rng.random() < 0.5:
                m = Mat4.from_rows(
                    [[1, k, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -k, 1]]
                )
            else:
                m = Mat4.from_rows(
                    [[1, 0, 0, 0], [k, 1, 0, 0], [0, 0, 1, -k], [0, 0, 0, 1]]
                )
        acc = acc * m
    return acc


def sample(spec: SampleSpec) -> Mat2 | Mat4:
    """Deterministic member of the requested group; identical specs
    yield identical matrices.  The result is revalidated before return;
    a predicate failure is a sampler bug and raises."""
    label = GroupLabel(spec.group)
    p = require_odd_prime(spec.p)
    rng = random.Random(spec.seed)
    n = spec.word_length

    if label is GroupLabel.SL2Z:
        result: Mat2 | Mat4 = _sample_sl2(rng, n)
    elif label is GroupLabel.GAMMA1_OF_P:
        result = _sample_gamma1_of_p(rng, p, n)
    elif label is GroupLabel.GAMMA1PRIME_P2:
        result = _sample_gamma1prime_p2(rng, p, n)
    elif label is GroupLabel.GAMMA_1P:
        result = _sample_gamma_1p(rng, p, n)
    elif label is GroupLabel.GAMMA_TILDE_1P:
        result = r_conjugate(_sample_gamma_1p(rng, p, n), p)
    elif label is GroupLabel.SP_LAMBDA_Z:
        result = _sample_sp_lambda(rng, p, n)
    elif label is GroupLabel.GAMMA_P2:
        result = _sample_gamma_p2(rng, p, n)
    else:
        raise UnknownName(f"no sampler for {label.value}")

    if not member(result, label, p):
        raise InternalPredicateFailure(
            f"sampler output fails its own predicate: {spec.describe()}"
        )
    return result
