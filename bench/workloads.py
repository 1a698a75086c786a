"""The four benchmark workloads: input set-up, one operation, output check.

Every operation starts from interchange JSON text and ends in text or a
verdict, as it would through the command line.  A workload's set-up
turns a seed into one *round*: a fixed-size list of cases.  A run
repeats whole rounds, so every run attempts the same operations in the
same proportions whatever its seed or length.

Calls into the program go through module attributes (``sp.dec.decompose``
and so on) at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import oracle

PRIMES = (3, 5, 7)
MAX_LEN = 20  # word lengths cycle 0..MAX_LEN, as in acceptance criteria 3 and 4


def program_modules() -> SimpleNamespace:
    """The program's modules.  ``sp4cert.decompose`` is shadowed by the
    function of that name, so the module comes from ``sys.modules``."""
    import sp4cert  # imports every submodule

    return SimpleNamespace(
        pkg=sp4cert,
        matrices=sys.modules["sp4cert.matrices"],
        groups=sys.modules["sp4cert.groups"],
        dec=sys.modules["sp4cert.decompose"],
        certificates=sys.modules["sp4cert.certificates"],
        sampling=sys.modules["sp4cert.sampling"],
    )


@dataclass
class Case:
    p: int
    text: str  # the interchange JSON the operation reads
    letters: int  # letters of the word the input was built from
    expected: bool | None = None  # verdict known by construction
    group: str = ""
    timed: bool = True  # False only for the >4,300-digit member slice
    nodes: int = 0  # certificate nodes, for verify


def _sample_text(sp, p: int, seed: int, length: int, draws: int) -> str:
    """A gamma_1p sample as interchange text.  With ``draws > 1`` the
    seed draws that many candidates and keeps the one of median total
    entry bit-length, which narrows the cost spread between seeds."""
    specs = [
        sp.sampling.SampleSpec(sp.groups.GroupLabel.GAMMA_1P, p, seed * draws + j, length)
        for j in range(draws)
    ]
    mats = [sp.sampling.sample(s) for s in specs]
    if draws > 1:
        mats.sort(key=lambda m: sum(abs(x.numerator).bit_length() for r in m.rows for x in r))
    return json.dumps(sp.matrices.mat4_to_lists(mats[draws // 2]))


def _corpus(sp, seed: int, count: int, lengths, draws: int) -> list[Case]:
    """``count`` gamma_1p cases: p in blocks of ``len(lengths)``, lengths cycling."""
    cases = []
    for i in range(count):
        p = PRIMES[(i // len(lengths)) % len(PRIMES)]
        length = lengths[i % len(lengths)]
        text = _sample_text(sp, p, seed * 1_000_003 + i, length, draws)
        cases.append(Case(p=p, text=text, letters=length))
    return cases


def _slp_nodes(letters: int) -> int:
    """Nodes of the product tree an input was built from: one leaf per
    letter, one mul per join, and one identity leaf for the empty word."""
    return max(1, 2 * letters - 1)


# ---------------------------------------------------------------------------
# decompose: parse -> decompose(k, p, tilde=False) -> word JSON
# ---------------------------------------------------------------------------


class Decompose:
    name = "decompose"

    def setup(self, sp, seed: int) -> list[Case]:
        return _corpus(sp, seed, 4 * len(PRIMES) * (MAX_LEN + 1), range(MAX_LEN + 1), 1)

    def op(self, sp, case: Case) -> str:
        k = sp.matrices.mat4_from_lists(json.loads(case.text))
        word = sp.dec.decompose(k, case.p, tilde=False)
        return json.dumps(word.to_json_obj())

    def check(self, case: Case, out: str) -> tuple[int, int]:
        return oracle.check_word(out, case.text, case.p), _slp_nodes(case.letters)


# ---------------------------------------------------------------------------
# witness: parse -> normal_closure_witness -> serialize
# ---------------------------------------------------------------------------


class Witness:
    name = "witness"

    def setup(self, sp, seed: int) -> list[Case]:
        return _corpus(sp, seed, 3 * len(PRIMES) * (MAX_LEN + 1), range(MAX_LEN + 1), 3)

    def op(self, sp, case: Case) -> str:
        k = sp.matrices.mat4_from_lists(json.loads(case.text))
        return sp.certificates.serialize(sp.certificates.normal_closure_witness(k, case.p))

    def check(self, case: Case, out: str) -> tuple[int, int]:
        return case.letters, oracle.check_certificate(out, case.text, case.p)


# ---------------------------------------------------------------------------
# verify: parse -> cert_verify, on genuine certificates and certain tampers
# ---------------------------------------------------------------------------

TAMPERS = ("seed", "conj", "target")
CORPUS_SEED = 0  # the verify certificates and their tampers do not depend on --seed


def tamper(cert_text: str, kind: str, p: int, rng: random.Random) -> str | None:
    """One-node change whose rejection is certain by construction, or
    None when the certificate has no node of that kind.

    * ``seed``: a seed_m0 becomes a seed_p2 holding M0, a seed off
      level p^2;
    * ``conj``: a conjugator is multiplied by diag(2,1,1,1), so it is no
      longer symplectic;
    * ``target``: the target is multiplied by M0, so the root cannot
      equal it.
    """
    obj = json.loads(cert_text)
    m0 = oracle.named("M0", p)
    if kind == "target":
        obj["target"] = oracle.mat_to_lists(oracle.mul(oracle.mat_from_lists(obj["target"]), m0))
        return json.dumps(obj, indent=1)
    op = "seed_m0" if kind == "seed" else "conj"
    picks = [node for node in obj["nodes"] if node["op"] == op]
    if not picks:
        return None
    node = rng.choice(picks)
    if kind == "seed":
        node["op"] = "seed_p2"
        node["value"] = oracle.mat_to_lists(m0)
    else:
        diag = oracle.mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        node["value"] = oracle.mat_to_lists(oracle.mul(oracle.mat_from_lists(node["value"]), diag))
    return json.dumps(obj, indent=1)


class Verify:
    """Verification time follows node count, which is heavy-tailed, and
    where a ``conj`` tamper sits decides how far ``cert_verify`` replays
    its off-group values.  So the certificates and their tampers are one
    fixed corpus, built from ``CORPUS_SEED``; ``--seed`` sets the order
    in which a round verifies them.  Short words (3..8) keep set-up
    affordable."""

    name = "verify"
    LENGTHS = tuple(range(3, 9))
    COUNT = 4 * len(PRIMES) * len(LENGTHS)

    def setup(self, sp, seed: int) -> list[Case]:
        rng = random.Random(CORPUS_SEED)
        cases = []
        for i, base in enumerate(_corpus(sp, CORPUS_SEED, self.COUNT, self.LENGTHS, 1)):
            k = sp.matrices.mat4_from_lists(json.loads(base.text))
            text = sp.certificates.serialize(sp.certificates.normal_closure_witness(k, base.p))
            nodes = len(json.loads(text)["nodes"])
            cases.append(Case(base.p, text, base.letters, True, nodes=nodes))
            kind = TAMPERS[i % len(TAMPERS)]
            bad = tamper(text, kind, base.p, rng) or tamper(text, "target", base.p, rng)
            cases.append(Case(base.p, bad, base.letters, False, nodes=nodes))
        random.Random(seed).shuffle(cases)
        return cases

    def op(self, sp, case: Case) -> bool:
        return sp.certificates.cert_verify(sp.certificates.parse(case.text)).passed

    def check(self, case: Case, out: bool) -> tuple[int, int]:
        verdict, why = oracle.cert_verdict(case.text, case.p)
        if verdict != case.expected:
            raise oracle.OracleError(f"oracle verdict {verdict} ({why}) != construction")
        if out != case.expected:
            raise oracle.OracleError(f"cert_verify said {out}, expected {case.expected}")
        return case.letters, case.nodes


# ---------------------------------------------------------------------------
# member: parse -> member, for four groups, members and non-members
# ---------------------------------------------------------------------------

GROUPS = ("gamma_1p", "gamma0_1p", "gamma_tilde_1p", "gamma_p2")
TARGET_BITS = (32, 256, 1024, 4096)  # all well under 4,300 digits
SLICE_BITS = 20_000  # > 4,300 decimal digits (14,284 bits): past the int/str limit
SLICE_SEED = 4300  # the slice does not depend on --seed
SLICE_P = 7


def _sl2_word(rng: random.Random, n: int) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for _ in range(n):
        e = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.5:  # right-multiply by T^e
            b, d = b + e * a, d + e * c
        else:  # right-multiply by U^e
            a, c = a + e * b, c + e * d
    return a, b, c, d


def _gamma1_of_p(rng: random.Random, p: int) -> tuple[int, int, int, int]:
    """A random product of ((1,p),(0,1))^e and ((1,0),(p,1))^e."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 3)):
        e = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            b, d = b + e * p * a, d + e * p * c
        else:
            a, c = a + e * p * b, c + e * p * d
    return a, b, c, d


def _letter(rng: random.Random, group: str, p: int):
    """A random generator of ``group`` (tilde members are built in plain
    coordinates and conjugated by R at the end)."""
    if group == "gamma_p2":
        s = p * p * rng.choice((-2, -1, 1, 2))
        t = p * p * rng.choice((-2, -1, 0, 1, 2))
        shapes = (
            [[1, 0, s, t], [0, 1, t, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [s, t, 1, 0], [t, 0, 0, 1]],
            [[1, s, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -s, 1]],
            [[1, 0, 0, 0], [s, 1, 0, 0], [0, 0, 1, -s], [0, 0, 0, 1]],
        )
        return oracle.mat(rng.choice(shapes))
    pick = rng.randrange(7 if group == "gamma0_1p" else 6)
    if pick < 4:
        return oracle.named_power(f"M{pick + 1}", p, rng.choice((-3, -2, -1, 1, 2, 3)))
    if pick == 4:
        return oracle.j1(*_sl2_word(rng, rng.randint(1, 3)))
    if pick == 5:
        return oracle.j2(*_gamma1_of_p(rng, p), p)
    return oracle.j2(*_sl2_word(rng, rng.randint(1, 2)), p)  # the c/p slot


# a fixed element outside each group: a member times it is a non-member
OUTSIDE = {
    "gamma_1p": lambda p: oracle.j2(1, 1, 0, 1, p),  # (2,4) entry p, not in p^2 Z
    "gamma0_1p": lambda p: oracle.unit([(2, 1, -1), (3, 4, 1)]),  # (2,1) entry not in pZ
    "gamma_tilde_1p": lambda p: oracle.mat(
        [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    ),  # row 2 is not (0,1,0,0) mod p
    "gamma_p2": lambda p: oracle.named("M0", p),  # not 1 mod p^2
}


def build_member(rng: random.Random, group: str, p: int, bits: int):
    """A product of ``group`` generators whose largest entry has close to
    ``bits`` bits: a random word of about ``bits / 2^k`` bits, then ``k``
    rounds of squaring plus one letter, each of which doubles the size.
    Returns the matrix and its letter count."""
    k = max(0, math.ceil(math.log2(bits / 96)))
    g, letters = oracle.IDENTITY, 0
    while oracle.max_entry_bits(g) < math.ceil(bits / 2 ** k):
        g, letters = oracle.mul(g, _letter(rng, group, p)), letters + 1
    for _ in range(k):
        g, letters = oracle.mul(oracle.mul(g, g), _letter(rng, group, p)), 2 * letters + 1
    if group == "gamma_tilde_1p":
        g = oracle.r_conjugate(g, p)
    return g, letters


def _member_case(rng, group: str, p: int, bits: int, is_member: bool, timed: bool) -> Case:
    g, letters = build_member(rng, group, p, bits)
    if not is_member:
        g, letters = oracle.mul(g, OUTSIDE[group](p)), letters + 1
    text = json.dumps(oracle.mat_to_lists(g))
    return Case(p, text, letters, is_member, group=group, timed=timed)


class Member:
    name = "member"

    def setup(self, sp, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = [
            _member_case(rng, group, p, bits, is_member, True)
            for p in PRIMES
            for group in GROUPS
            for bits in TARGET_BITS
            for is_member in (True, False)
        ]
        fixed = random.Random(SLICE_SEED)
        cases += [
            _member_case(fixed, group, SLICE_P, SLICE_BITS, is_member, False)
            for group in GROUPS
            for is_member in (True, False)
        ]
        return cases

    def op(self, sp, case: Case) -> bool:
        k = sp.matrices.mat4_from_lists(json.loads(case.text))
        return sp.groups.member(k, sp.groups.GroupLabel(case.group), case.p)

    def check(self, case: Case, out: bool) -> tuple[int, int]:
        if out != case.expected:
            raise oracle.OracleError(
                f"member({case.group}, p={case.p}) said {out}, group law says {case.expected}"
            )
        return case.letters, _slp_nodes(case.letters)


WORKLOADS = {w.name: w for w in (Decompose(), Witness(), Verify(), Member())}
