"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and budget, and prints a single PASS/FAIL line (visible with
``pytest -s`` or on failure).  Budgets are wall-clock seconds.

 1. identity suite exact for p in {3,5,7,11,13,17,19}, < 5 s total
 2. generator certificates verify for the same p set, with seed and
    conjugator discipline machine-checked, < 10 s total
 3. 500 seeded decompositions per p in {3,5,7} (word length <= 20),
    exact replay, zero failures, < 60 s per p
 4. 100 seeded end-to-end witnesses per p in {3,5,7}, all accepted,
    < 5 min per p
 5. predicate coherence on >= 200 random instances per law
 6. SL(2,Z) machinery replays on 500 random inputs per operation;
    case-chain depth never exceeds 3
 7. 100 random single-node tampers of passing certificates rejected
 8. numeric boundary checks at tol 1e-10 for c in {0.5, 1, 2, 3},
    1000 samples; disc radius equals exp(-2 pi c) within 1e-10
 9. the singular variant of the corner generator is rejected by
    inversion, and the corrected matrix conjugates onto its tilde form
"""

from __future__ import annotations

import math
import random
import time

import pytest

from support import corpus, random_tamper, tilde_j2

from sp4cert.certificates import (
    CONJ,
    SEED_M0,
    SEED_P2,
    build_generator_certs,
    cert_verify,
    normal_closure_witness,
    verify_identities,
)
from sp4cert.decompose import decompose
from sp4cert.errors import SingularMatrix
from sp4cert.generators import generator
from sp4cert.groups import (
    GroupLabel,
    VectorClass,
    j1_embed,
    j2_embed,
    member,
    r_conjugate,
    vector_class,
)
from sp4cert.matrices import Mat2, Mat4
from sp4cert.sampling import SampleSpec, sample
from sp4cert.siegel import section4_check
from sp4cert.sl2 import (
    ConjugateBy,
    MultiplyLeftPrime,
    gamma1p_generate,
    normal_closure_decompose,
    sl2_decompose,
)

PRIMES_FULL = (3, 5, 7, 11, 13, 17, 19)
PRIMES_SMALL = (3, 5, 7)


def report(number: int, name: str, ok: bool, elapsed: float, extra: str = ""):
    tail = f"  {extra}" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s){tail}")
    assert ok


def test_criterion_1_identities():
    t0 = time.perf_counter()
    ok = True
    for p in PRIMES_FULL:
        rep = verify_identities(p)
        ok = ok and rep.passed and len(rep.checks) == 6
    elapsed = time.perf_counter() - t0
    report(1, "identity-suite", ok and elapsed < 5.0, elapsed,
           f"p in {PRIMES_FULL}")


def test_criterion_2_generator_certificates():
    t0 = time.perf_counter()
    ok = True
    for p in PRIMES_FULL:
        table = build_generator_certs(p)
        for name, cert in table.items():
            rep = cert_verify(cert)
            ok = ok and rep.passed and cert.target == generator(name, p)
            for node in cert.nodes:
                if node.op == SEED_P2:
                    ok = ok and member(node.value, GroupLabel.GAMMA_P2, p)
                elif node.op == CONJ:
                    ok = ok and member(node.value, GroupLabel.GAMMA0_1P, p)
                elif node.op != SEED_M0:
                    ok = ok and bool(node.args)
    elapsed = time.perf_counter() - t0
    report(2, "generator-certificates", ok and elapsed < 10.0, elapsed,
           f"p in {PRIMES_FULL}")


@pytest.mark.parametrize("p", PRIMES_SMALL)
def test_criterion_3_decomposition_replay(p):
    t0 = time.perf_counter()
    failures = 0
    for i, k in enumerate(corpus(GroupLabel.GAMMA_1P, p, 500, 10_000, max_len=20)):
        word = decompose(k, p, tilde=False)
        if word.replay() != k:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(3, f"decomposition-replay-p{p}",
           failures == 0 and elapsed < 60.0, elapsed,
           f"500 elements, {failures} failures")


@pytest.mark.parametrize("p", PRIMES_SMALL)
def test_criterion_4_end_to_end_witness(p):
    t0 = time.perf_counter()
    failures = 0
    for i, k in enumerate(corpus(GroupLabel.GAMMA_1P, p, 100, 40_000, max_len=20)):
        cert = normal_closure_witness(k, p)
        rep = cert_verify(cert)
        if not (rep.passed and cert.target == k):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(4, f"end-to-end-witness-p{p}",
           failures == 0 and elapsed < 300.0, elapsed,
           f"100 elements, {failures} failures")


def test_criterion_5_predicate_coherence():
    t0 = time.perf_counter()
    p = 5
    ok = True

    # R-conjugation equivalence on 200 members
    for k in corpus(GroupLabel.GAMMA_1P, p, 200, 60_000, max_len=12):
        tilde = r_conjugate(k, p)
        ok = ok and member(tilde, GroupLabel.GAMMA_TILDE_1P, p)
        ok = ok and r_conjugate(tilde, p, inverse=True) == k

    # homomorphism laws on 200 random pairs
    rng = random.Random(61_000)
    t2, u2 = Mat2.of(1, 1, 0, 1), Mat2.of(1, 0, 1, 1)

    def rand_sl2():
        acc = Mat2.identity()
        for _ in range(rng.randint(1, 6)):
            acc = acc * (t2 if rng.random() < 0.5 else u2) ** rng.choice(
                [-2, -1, 1, 2])
        return acc

    for _ in range(200):
        a, b = rand_sl2(), rand_sl2()
        ok = ok and j1_embed(a) * j1_embed(b) == j1_embed(a * b)
        ok = ok and j2_embed(a, p) * j2_embed(b, p) == j2_embed(a * b, p)
        ok = ok and tilde_j2(a) * tilde_j2(b) == tilde_j2(a * b)

    # shortness invariance under 200 right multiplications
    for i, g in enumerate(corpus(GroupLabel.SP_LAMBDA_Z, p, 200, 62_000, max_len=10)):
        v = tuple(rng.randint(-9, 9) for _ in range(4))
        if v == (0, 0, 0, 0):
            v = (0, 1, 0, 0)
        moved = tuple(int(sum(v[k] * g.rows[k][j] for k in range(4))) for j in range(4))
        ok = ok and vector_class(v, p) is vector_class(moved, p)

    # first-row-short / second-row-long dichotomy on 200 members
    for k in corpus(GroupLabel.GAMMA_TILDE_1P, p, 200, 63_000, max_len=14):
        row1 = tuple(int(x) for x in k.rows[0])
        row2 = tuple(int(x) for x in k.rows[1])
        ok = ok and vector_class(row1, p) is VectorClass.SHORT
        ok = ok and vector_class(row2, p) is VectorClass.LONG

    elapsed = time.perf_counter() - t0
    report(5, "predicate-coherence", ok, elapsed, "4 laws x 200 instances")


def test_criterion_6_sl2_suite():
    t0 = time.perf_counter()
    ok = True
    p = 5
    for i in range(500):
        a = sample(SampleSpec(GroupLabel.SL2Z, p, 70_000 + i, i % 31))
        ok = ok and sl2_decompose(a).replay() == a
    for i in range(500):
        a = sample(SampleSpec(GroupLabel.SL2Z, p, 71_000 + i, i % 17))
        ok = ok and normal_closure_decompose(a).replay() == a
    max_depth = 0
    for i in range(500):
        q = sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, 72_000 + i, i % 9))
        steps = gamma1p_generate(q, p)
        ok = ok and steps.replay() == q
        max_depth = max(max_depth, len(steps.cases_applied))
        for step in steps.steps:
            if isinstance(step, MultiplyLeftPrime):
                ok = ok and member(step.element, GroupLabel.GAMMA1PRIME_P2, p)
            elif isinstance(step, ConjugateBy):
                ok = ok and step.conjugator.det() == 1
    ok = ok and max_depth <= 3
    elapsed = time.perf_counter() - t0
    report(6, "sl2-suite", ok, elapsed,
           f"3 x 500 replays, max case depth {max_depth}")


def test_criterion_7_mutation_soundness():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    p = 3
    base = [
        build_generator_certs(p)["M1"],
        build_generator_certs(p)["M4"],
        normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 80_001, 8)), p),
        normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 80_002, 14)), p),
    ]
    for cert in base:
        assert cert_verify(cert).passed
    rejected = 0
    for i in range(100):
        cert = base[i % len(base)]
        tampered = random_tamper(cert, rng)
        if not cert_verify(tampered).passed:
            rejected += 1
    elapsed = time.perf_counter() - t0
    report(7, "mutation-soundness", rejected == 100, elapsed,
           f"{rejected}/100 tampers rejected")


def test_criterion_8_numeric_boundary():
    t0 = time.perf_counter()
    ok = True
    for c in (0.5, 1.0, 2.0, 3.0):
        rep = section4_check(c, samples=1000, tol=1e-10)
        ok = ok and rep.passed
        ok = ok and abs(rep.disc_radius - math.exp(-2 * math.pi * c)) < 1e-10
    elapsed = time.perf_counter() - t0
    report(8, "numeric-boundary", ok, elapsed, "c in {0.5, 1, 2, 3}")


def test_criterion_9_erratum_detection():
    t0 = time.perf_counter()
    singular_variant = Mat4(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0]]
    )
    flagged = False
    try:
        singular_variant.inv()
    except SingularMatrix:
        flagged = True
    ok = flagged
    for p in PRIMES_FULL:
        ok = ok and r_conjugate(generator("M1", p), p) == generator("Mt1", p)
    elapsed = time.perf_counter() - t0
    report(9, "erratum-detection", ok, elapsed,
           "row-4 unit corner forced by invertibility and conjugation")
