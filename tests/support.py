"""Shared helpers for the test suite: deterministic corpora and the
certificate tamper engine used by the mutation-soundness checks."""

from __future__ import annotations

import random

from sp4cert.certificates import CONJ, SEED_M0, SEED_P2, Certificate, CertNode, evaluate
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, SymplecticForm
from sp4cert.matrices import Mat4
from sp4cert.sampling import SampleSpec, sample


def corpus(group: GroupLabel, p: int, count: int, seed: int, max_len: int = 20):
    """Deterministic list of group members with word lengths 0..max_len."""
    out = []
    for i in range(count):
        spec = SampleSpec(group=group, p=p, seed=seed + i, word_length=i % (max_len + 1))
        out.append(sample(spec))
    return out


def reference_symplectic_check(m: Mat4, form: SymplecticForm) -> bool:
    """The symplectic test as the full product ``m f m^T == f``."""
    f = form.matrix
    return m * f * m.transpose() == f


def reference_power(m, n: int):
    """``m ** n`` as first written: ``N N = 0`` tested by one full
    product of ``N = m - 1``, ``1 + n N`` built entry by entry, else
    binary powering of ``m`` or ``m.inv()``."""
    cls = type(m)
    one = cls.identity()
    nil = cls(
        tuple(tuple(x - i for x, i in zip(r, e)) for r, e in zip(m.rows, one.rows))
    )
    if not any(x for row in (nil * nil).rows for x in row):
        return cls(
            tuple(tuple(i + n * x for x, i in zip(r, e)) for r, e in zip(nil.rows, one.rows))
        )
    base = m if n >= 0 else m.inv()
    n = abs(n)
    acc = one
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


def _divisible(x, n: int) -> bool:
    return x.denominator == 1 and x.numerator % n == 0


def reference_member(m: Mat4, label: GroupLabel, p: int) -> bool:
    """The 4x4 predicates as first written: the full-product symplectic
    test, then the congruence pattern read off ``m - 1`` (or ``m``)."""
    j = SymplecticForm.standard()
    lam = SymplecticForm.polarised(p)
    if label is GroupLabel.SP4Z_J:
        return m.is_integral() and reference_symplectic_check(m, j)
    if label is GroupLabel.SP_LAMBDA_Z:
        return m.is_integral() and reference_symplectic_check(m, lam)
    if label is GroupLabel.GAMMA0_1P:
        if not reference_symplectic_check(m, j):
            return False
        for r in range(4):
            for c in range(4):
                x = m[r][c]
                if (r, c) == (3, 1):
                    if (p * x).denominator != 1:
                        return False
                elif (r, c) in ((0, 3), (1, 0), (1, 2), (1, 3), (2, 3)):
                    if not _divisible(x, p):
                        return False
                elif x.denominator != 1:
                    return False
        return True
    if not m.is_integral():
        return False
    if label is GroupLabel.GAMMA_TILDE_1P:
        if not reference_symplectic_check(m, lam):
            return False
        r2 = tuple(x.numerator % p for x in m[1])
        r4 = tuple(x.numerator % p for x in m[3])
        return r2 == (0, 1 % p, 0, 0) and r4 == (0, 0, 0, 1 % p)
    if not reference_symplectic_check(m, j):
        return False
    d = m - Mat4.identity()
    if label is GroupLabel.GAMMA_P2:
        return all(_divisible(d[r][c], p * p) for r in range(4) for c in range(4))
    moduli = ((1, 1, 1, p), (p, p, p, p * p), (1, 1, 1, p), (1, 1, 1, p))
    return all(_divisible(d[r][c], moduli[r][c]) for r in range(4) for c in range(4))


_E12 = Mat4.from_rows(
    [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
)
_DET2 = Mat4.diagonal(2, 1, 1, 1)


def random_tamper(cert: Certificate, rng: random.Random) -> Certificate:
    """Replace one node so the certificate must be rejected.

    Seed and conjugator tampers break a side condition outright
    (a non-level-p^2 seed, a +1 in a forbidden residue slot, or a
    determinant-2 factor killing symplecticity).  Argument redirects on
    mul/inv nodes are accepted only when the tampered root evaluates to
    something other than the target, so the replay check must fire.
    """
    nodes = list(cert.nodes)
    for _ in range(200):
        i = rng.randrange(len(nodes))
        node = nodes[i]
        if node.op == SEED_M0:
            new = CertNode(SEED_P2, (), generator("M0", cert.p))
        elif node.op == SEED_P2:
            new = CertNode(SEED_P2, (), node.value + _E12)
        elif node.op == CONJ:
            new = CertNode(CONJ, node.args, node.value * _DET2)
        else:
            if i == 0:
                continue
            slot = rng.randrange(len(node.args))
            replacement = rng.randrange(i)
            if replacement == node.args[slot]:
                continue
            args = list(node.args)
            args[slot] = replacement
            new = CertNode(node.op, tuple(args))
            candidate = Certificate(
                cert.p, tuple(nodes[:i] + [new] + nodes[i + 1:]), cert.root, cert.target
            )
            values = evaluate(candidate)
            if values[cert.root] == cert.target:
                continue  # redirect happened to preserve the value; retry
            return candidate
        return Certificate(
            cert.p, tuple(nodes[:i] + [new] + nodes[i + 1:]), cert.root, cert.target
        )
    raise AssertionError("no tamperable node found")
