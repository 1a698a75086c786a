"""Straight-line-program certificates over the seeds {M0} + level p^2.

A :class:`Certificate` is a DAG whose leaves are either the single
translation M0 or literal matrices congruent to the identity mod p^2,
and whose internal nodes are

    mul(a, b)  ->  value(a) * value(b)
    inv(a)     ->  value(a)^-1
    conj(a, g) ->  g * value(a) * g^-1,   g a literal in gamma0_1p

so a passing certificate witnesses that its target lies in the normal
closure of {M0} + gamma_p2 inside gamma0_1p; :func:`_node_value` is the
one place these meanings are written.  A node is a :class:`CertNode`,
the immutable named tuple ``(op, args, value)``, built, as a literal's
:class:`CheckResult` is, by ``_new = tuple.__new__``: a ``NamedTuple``'s
constructor is a Python function at twice the cost, so do not fold
these calls back into ``CertNode(...)``.  ``_SHAPE`` gives each op its
arity and, for a seed or conjugator, the check kind and the group its
literal must lie in (gamma_p2, gamma0_1p); :func:`cert_verify` reads it
and tests each (literal, group) pair once.  A :class:`Certificate` is
plain data, trusted in nothing; builders hand out their live nodes (a
liveness pass, then a renumbering pass unless all are live).  A PASS of
:func:`cert_verify` is sound by five premises, each pinned by a test:

1. the structure is checked, in one walk, before any verdict
   (test_a_certificate_holds_only_mat4_literals, its last case);
2. literals are exact members, tested before any product
   (test_bad_seed_reported, test_bad_conjugator_reported);
3. mul, inv and conj by a gamma0_1p literal stay in the normal closure
   (test_cert_verify_agrees_with_the_oracle, an independent replay);
4. both groups preserve J, as M0 does, so :meth:`Mat4.symplectic_inv`
   inverts every value replay forms: each literal is checked first
   (test_target_tamper_replays_with_exact_transpose_inverses);
5. the root equals the target (test_tampered_target_fails_with_replay_locus).

Builders, which form no value and test no literal: what they hand out
is unchecked data until :func:`cert_verify` replays it, and each
command that prints PASS runs it on the text it wrote and read back.

* :func:`build_generator_certs` -- certificates for M2, L2, L4, M3, M4
  and M1, following the product identities of the core chain (below).
  Conjugators (M4^-1, M1, M3, L5^-1, j1-images) are stored as literal
  matrices; they are legal conjugators by predicate even where the
  chain has not yet derived them from seeds.
* :func:`expand_j1` -- any j1(SL(2,Z)) element from the seed M0 alone:
  the j1 image of the :func:`sp4cert.sl2.conjugates_of_t` list of the payload.
* :func:`expand_j2` -- any j2(gamma1_of_p) element from M0 and
  j2(gamma1prime_p2) seeds, through the three-case step list of
  :func:`sp4cert.sl2.gamma1p_generate`; P-powers reuse the embedded L4
  chain.
* :func:`normal_closure_witness` -- full pipeline: decompose a
  gamma_1p element k into a generator word, take each letter's small
  twin, then splice one seed and the small word's pieces (below).

Every gamma_p2 element is a leaf at no cost, and the witness and
:meth:`CertBuilder.power` use that.  A witness replaces each letter of
k's plain word by its ``small(p)`` twin, congruent to it mod p^2 and
with small entries (``sp4cert.decompose``): a named exponent becomes its
symmetric residue mod p^2, a j1 payload with an entry past p^4 a lift
of its class mod p^2, a j2 payload with an entry past p^6 a lift of its
class mod p^3.  The small word r then lies in gamma_1p and r = k mod
p^2, so s = k r^-1 is integral, preserves J and is 1 mod p^2: it lies
in gamma_p2, and the witness is ``seed_p2(s)`` times r's pieces.  s is
formed from k by the column operations of r's inverted letters, with no
dense product, and is left out when no letter changed (s = 1).  So a
witness's node count depends on p, not on k, and its widest literal, s,
is about as wide as k.

:meth:`CertBuilder.power` takes each power of a node whose value the
caller names: M0, L2, L3, L4 or a named letter's M_i, each an integral
``1 + N`` with ``N N = 0``.  An exponent ``e = r + q p^2`` past
``p^2/2`` (``|r| <= p^2/2``) becomes ``a^r`` times the seed
``S = 1 + q p^2 N``, which :func:`sp4cert.generators.times_power` writes
from the generator's entries.  S is a power of a symplectic matrix,
hence symplectic, and ``S - 1 = p^2 qN`` with qN integral, so S lies in
gamma_p2 and the split needs no membership test.  Such a power adds at
most ``2 bit_length(p^2 // 2) + 3`` nodes, however large e is.  A
witness's named letters no longer reach the split, as their small
exponents are at most p^2/2; the M0 powers of a j1 chain and the L4
powers of a j2 chain, and the core's L2 and L3 powers, still may.

The core chain (M2, L2, L4, M3, M4, L5 and M1 from the seeds) is the
one place the six product identities that generate M1..M4 from M0 and
level-p^2 elements are written.  :func:`_checked_core` builds it in a
fresh builder and runs :func:`cert_verify` on each named node's
certificate against its generator.  The template (nodes, memo and named
ids), which raises at the first failed name, is kept for the last
``_CORE_TEMPLATES`` primes.  Each builder that needs it (a witness, a j2
certificate, the generator table) starts from :func:`_core_builder`,
copies of its node list and memo, so the core's nodes come first and
the liveness pass of :meth:`CertBuilder.certificate` drops those a root
does not reach; :func:`verify_identities` reports from the same verdicts
whether each identity lands on its generator.  Identity
``m4-from-l5-commutator`` requires the *positive* power of L1: the
exact computation gives

    L5^-1 M2^-1 L5 M2      =  M4 L1^-1,

so multiplying by L1 (not L1^-1) on the right yields M4; the -1
variant leaves the product at M4 L1^-2, so it holds exactly when that
identity does and needs no check of its own.  L4 = j2(P) and L5 from
the seeds are checked, not reported: each failure raises
:class:`ShapeAssertionFailed`, also under ``python -O``.

Serialisation (:func:`serialize`) is one direct writer of what
``json.dumps(obj, indent=1)`` makes of ``{"p", "nodes", "root",
"target"}``, each node ``{"id", "op", "args"}`` plus ``"value"`` for a
seed or conjugator: one-space indents, ``,`` at line ends, ``": "``
after keys, ``"args": []`` when empty.  The text is one ``%`` of the
op templates built at import, joined, over one flat tuple: p, each
node's id, args and literal entries, root, the target's entries.  An
integral matrix gives its stored ints, which ``%s`` writes as ``str``
does, in C; a fraction gives its :func:`sp4cert.matrices.entry_strings`.
If ``%`` refuses an entry past the int/str limit, the text is written
again with ``entry_strings`` for every matrix.  A node that does not
fit its op's template (arity, a value or none) raises
:class:`TypeError`: two misfits could cancel in the flat tuple and
shift every field between them.  Entries hold only digits, ``-`` and
``/``, and ops are the names of ``_SHAPE``, so nothing is escaped.
Nested one level deeper (``certify-generators``), the text gains one
space after each newline; :func:`parse` reads it back.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .decompose import J1, Named, decompose
from .errors import MalformedDag, ParseError, ShapeAssertionFailed
from .generators import generator, times_power
from .groups import GroupLabel, j1_embed, j2_embed, member, r_conjugate, require_odd_prime
from .matrices import (
    Mat2,
    Mat4,
    entry_strings,
    ext_gcd,
    json_int,
    load_json,
    mat4_from_lists,
    repeated_squaring,
)
from .sl2 import (
    ConjugateBy,
    MultiplyLeftP,
    S,
    U,
    conjugates_of_t,
    gamma1p_generate,
    sl2_decompose,
)

SEED_M0 = "seed_m0"
SEED_P2 = "seed_p2"
MUL = "mul"
INV = "inv"
CONJ = "conj"
_new = tuple.__new__  # _new(CertNode, (op, args, value)): see the module docstring

_SHAPE = {  # op -> (arity, literal): (check kind, group) for the matrix of a seed or conjugator
    SEED_M0: (0, None), SEED_P2: (0, ("seed", GroupLabel.GAMMA_P2)), MUL: (2, None), INV: (1, None),
    CONJ: (1, ("conjugator", GroupLabel.GAMMA0_1P)),
}


class CertNode(NamedTuple):
    """One node: an immutable named tuple, so equal nodes are equal keys."""

    op: str
    args: tuple[int, ...] = ()
    value: Mat4 | None = None  # seed matrix or conjugator


@dataclass(frozen=True)
class Certificate:
    """A DAG of :class:`CertNode`: plain data, checked by :func:`cert_verify`."""

    p: int
    nodes: tuple[CertNode, ...]
    root: int
    target: Mat4

    @property
    def node_count(self) -> int:
        return len(self.nodes)


class CheckResult(NamedTuple):
    kind: str  # "seed" | "conjugator" | "resource" | "replay"
    node: int | None
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks: tuple[CheckResult, ...]
    node_count: int
    failure_locus: str = ""

    def lines(self) -> list[str]:
        out = [f"certificate with {self.node_count} nodes"]
        for c in self.checks:
            if not c.ok:
                where = f" node {c.node}" if c.node is not None else ""
                out.append(f"  FAIL {c.kind}{where}: {c.detail}")
        counts = Counter(c.kind for c in self.checks)
        out.append("  checks: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        out.append("PASS" if self.passed else f"FAIL ({self.failure_locus})")
        return out


def _node_value(node: CertNode, values: list[Mat4], m0: Mat4) -> Mat4:
    """The value of ``node`` given the values of the nodes before it.
    Precondition: every literal has passed its ``_SHAPE`` check, so every
    value preserves J and :meth:`Mat4.symplectic_inv` inverts it."""
    if node.op == MUL:  # the most common op
        return values[node.args[0]] * values[node.args[1]]
    if node.op == SEED_P2:
        return node.value
    if node.op == INV:
        return values[node.args[0]].symplectic_inv()
    if node.op == SEED_M0:
        return m0
    g = node.value  # CONJ
    return g * values[node.args[0]] * g.symplectic_inv()


# replay refuses a mul or conj value with an entry wider than
# _BUDGET_SCALE * L + _BUDGET_SLACK bits, L the widest Mat4.entry_bits()
# (reduced numerator or denominator) among the certificate's literals
# (seeds, conjugators and target); every operand is then within budget,
# so each product's cost is bounded by the size of the file
_BUDGET_SCALE = 4
_BUDGET_SLACK = 64


def _bit_budget(target: Mat4, literals: Iterable[Mat4]) -> int:
    return _BUDGET_SCALE * max(m.entry_bits() for m in (target, *literals)) + _BUDGET_SLACK


def cert_verify(cert: Certificate) -> VerificationReport:
    """Check the structure of ``cert``, then every seed and conjugator,
    then replay the DAG exactly.

    One walk over the nodes checks the structure and collects the
    literals; a malformed DAG raises :class:`MalformedDag` before ``p``
    is checked or any literal tested.  Mathematical failures (bad seed,
    bad conjugator, replay mismatch) are reported, not thrown.  The
    first failed seed or conjugator check ends verification before any
    product is formed, and is the last check in the report.  A mul or
    conj value over the bit budget ends replay as a failed ``resource``
    check at that node.
    """
    n = len(cert.nodes)
    if n == 0:
        raise MalformedDag("certificate has no nodes")
    for name, x in (("p", cert.p), ("root", cert.root)):
        if type(x) is not int:  # exactly int, as for args: serialize writes str(x)
            raise MalformedDag(f"{name} {x!r} is not an int")
    if not 0 <= cert.root < n:
        raise MalformedDag(f"root {cert.root} out of range")
    if not isinstance(cert.target, Mat4):
        raise MalformedDag(f"target is a {type(cert.target).__name__}, not a Mat4")
    literals: list[tuple[int, str, GroupLabel, Mat4]] = []  # (node, check kind, group, matrix)
    for i, (op, args, value) in enumerate(cert.nodes):
        shape = _SHAPE.get(op) if isinstance(op, str) else None
        if shape is None:
            raise MalformedDag(f"node {i}: unknown op {op!r}")
        arity, literal = shape
        if len(args) != arity:
            raise MalformedDag(f"node {i}: op {op} wants {arity} args")
        for a in args:
            if type(a) is not int:
                raise MalformedDag(f"node {i}: args {args} not all ints")
            if not 0 <= a < i:
                raise MalformedDag(f"node {i}: args {args} not all earlier")
        if (literal is None) != (value is None):
            raise MalformedDag(f"node {i}: op {op} value mismatch")
        if value is not None:
            if not isinstance(value, Mat4):
                raise MalformedDag(f"node {i}: value is a {type(value).__name__}, not a Mat4")
            literals.append((i, *literal, value))

    p = require_odd_prime(cert.p)
    checks: list[CheckResult] = []
    verdicts: dict[tuple[Mat4, GroupLabel], bool] = {}  # each (literal, group) pair is tested once
    for i, kind, label, value in literals:
        good = verdicts.get((value, label))
        if good is None:
            good = verdicts[value, label] = member(value, label, p)
        checks.append(_new(CheckResult, (kind, i, good, "" if good else f"{kind} not in {label.value}")))
        if not good:
            return VerificationReport(False, tuple(checks), n, f"{kind} node {i}")

    budget = _bit_budget(cert.target, [value for *_, value in literals])
    m0 = generator("M0", p)
    values: list[Mat4] = []
    for i, node in enumerate(cert.nodes):
        value = _node_value(node, values, m0)
        if node.op in (MUL, CONJ) and value.entry_bits() > budget:
            detail = f"value wider than the {budget}-bit budget"
            checks.append(CheckResult("resource", i, False, detail))
            return VerificationReport(False, tuple(checks), n, f"resource node {i}")
        values.append(value)

    replay_ok = values[cert.root] == cert.target
    detail = "" if replay_ok else "root value differs from target"
    checks.append(CheckResult("replay", cert.root, replay_ok, detail))
    locus = "" if replay_ok else f"replay mismatch at root {cert.root}"
    return VerificationReport(replay_ok, tuple(checks), n, locus)


class CertBuilder:
    """Hash-consing builder: structurally equal nodes are shared, so
    repeated sub-chains (the L4 chain in particular) appear once.  It
    forms no value and tests no literal; only :func:`cert_verify`
    checks what it builds."""

    def __init__(self, p: int):
        self.p = require_odd_prime(p)
        self.nodes: list[CertNode] = []
        self._memo: dict[CertNode, int] = {}

    def _intern(self, node: CertNode) -> int:
        idx = self._memo.setdefault(node, len(self.nodes))
        if idx == len(self.nodes):
            self.nodes.append(node)
        return idx

    def seed_m0(self) -> int:
        return self._intern(_new(CertNode, (SEED_M0, (), None)))

    def seed_p2(self, m: Mat4) -> int:
        return self._intern(_new(CertNode, (SEED_P2, (), m)))

    def mul(self, a: int, b: int) -> int:
        return self._intern(_new(CertNode, (MUL, (a, b), None)))

    def inv(self, a: int) -> int:
        return self._intern(_new(CertNode, (INV, (a,), None)))

    def conj(self, a: int, g: Mat4) -> int:
        return self._intern(_new(CertNode, (CONJ, (a,), g)))

    def identity(self) -> int:
        return self.seed_p2(Mat4.identity())

    def power(self, a: int, e: int, name: str) -> int:
        """Node for the e-th power of node ``a``, whose value is the
        generator ``name`` (``"M0"``, ``"L2"``, ``"L3"``, ``"L4"`` or a
        named letter's), ``1 + N`` with ``N N = 0``.

        When ``|e| > p^2/2``, write ``e = r + q p^2`` with ``|r| <= p^2/2``:
        then ``a^e = a^r S`` with ``S = 1 + q p^2 N``, which
        :func:`sp4cert.generators.times_power` writes and which enters as
        one gamma_p2 seed (module docstring); only ``a^r`` is built.  Any
        ``|e| <= p^2/2`` takes :func:`sp4cert.matrices.repeated_squaring`,
        the loop, over this builder's ``mul``, ``inv`` and ``identity``
        nodes.
        """
        p2 = self.p * self.p
        q, r = divmod(e + p2 // 2, p2)
        r -= p2 // 2
        if not q:
            return repeated_squaring(a, e, self.mul, self.inv, self.identity)
        seed = self.seed_p2(times_power(Mat4.identity(), name, self.p, q * p2))
        return seed if r == 0 else self.mul(self.power(a, r, name), seed)  # |r| <= p^2/2: no split

    def product(self, ids: Iterable[int]) -> int:
        ids = list(ids)
        return functools.reduce(self.mul, ids) if ids else self.identity()

    def certificate(self, root: int, target: Mat4) -> Certificate:
        """The sub-DAG reachable from ``root``, renumbered, with the
        caller's ``target``: a backward liveness pass, then a forward
        renumbering pass unless that is the identity."""
        live = [False] * root + [True]
        for i in range(root, -1, -1):
            if live[i]:
                for a in self.nodes[i].args:
                    live[a] = True
        if root == len(self.nodes) - 1 and all(live):  # the renumbering is the identity
            return Certificate(self.p, tuple(self.nodes), root, target)
        new_id = [0] * (root + 1)
        renumber = new_id.__getitem__
        nodes: list[CertNode] = []
        for i, (op, args, value) in enumerate(self.nodes[: root + 1]):
            if live[i]:
                new_id[i] = len(nodes)
                nodes.append(_new(CertNode, (op, tuple(map(renumber, args)), value)))
        return Certificate(self.p, tuple(nodes), len(nodes) - 1, target)


# ---------------------------------------------------------------------------
# generator chains
# ---------------------------------------------------------------------------


def _core_chain(b: CertBuilder) -> dict[str, int]:
    """Build the nodes for M2, L2, L4, M3, M4, L5 and M1 from seeds only,
    in that order, and check none of them."""
    p = b.p
    g = {name: generator(name, p) for name in ("M1", "M3", "M4", "L1", "L3", "L5")}

    n_m0 = b.seed_m0()
    n_m0_inv = b.inv(n_m0)
    n_l1 = b.seed_p2(g["L1"])

    # M2 = (M4^-1 M0 M4) M0^-1 L1^-1
    n_m2 = b.mul(
        b.mul(b.conj(n_m0, g["M4"].symplectic_inv()), n_m0_inv), b.inv(n_l1)
    )

    # L2 = (M1 M0 M1^-1)(M1^-1 M0 M1) j1((1,-2),(0,1))
    n_l2 = b.mul(
        b.mul(b.conj(n_m0, g["M1"]), b.conj(n_m0, g["M1"].symplectic_inv())),
        _j1_chain(b, Mat2.of(1, -2, 0, 1)),
    )

    # L4 = L2^lam L3^mu with -2*lam + p^2*mu = 1
    _, lam, mu = ext_gcd(-2, p * p)
    n_l3 = b.seed_p2(g["L3"])
    n_l4 = b.mul(b.power(n_l2, lam, "L2"), b.power(n_l3, mu, "L3"))

    # M3 = (L4 (M1 M0 M1^-1) M0^-1)^-1
    n_m3 = b.inv(b.mul(b.mul(n_l4, b.conj(n_m0, g["M1"])), n_m0_inv))

    # M4 = (L5^-1 M2^-1 L5 M2) L1: the commutator, then the +1 power of L1
    n_m4 = b.mul(b.mul(b.conj(b.inv(n_m2), g["L5"].symplectic_inv()), n_m2), n_l1)

    n_l5 = _j1_chain(b, U)  # L5 = j1(U)

    # M1 = ((M3 (L5 L4) M3^-1) L5^-1 L2)^-1
    n_m1 = b.inv(
        b.mul(b.mul(b.conj(b.mul(n_l5, n_l4), g["M3"]), b.inv(n_l5)), n_l2)
    )

    return {
        "M2": n_m2, "L2": n_l2, "L4": n_l4, "M3": n_m3,
        "M4": n_m4, "L5": n_l5, "M1": n_m1,
    }


_CORE_TEMPLATES = 8  # primes whose core chain is kept; p may be as large as 3.3e24


def _checked_core(p: int) -> tuple[CertBuilder, dict[str, int], dict[str, bool]]:
    """The core chain of p built in a fresh builder, its named ids, and
    whether each name's certificate, with its generator as target,
    passes :func:`cert_verify`."""
    b = CertBuilder(p)
    names = _core_chain(b)
    holds = {name: cert_verify(b.certificate(idx, generator(name, p))).passed
             for name, idx in names.items()}
    return b, names, holds


@functools.lru_cache(maxsize=_CORE_TEMPLATES)
def _core_template(p: int) -> tuple[tuple[CertNode, ...], dict[CertNode, int], dict[str, int]]:
    """The nodes, memo and named ids of the core chain of p, from
    :func:`_checked_core`; the first failed name raises, an explicit
    check that ``python -O`` keeps, and caches nothing.  Only
    :func:`_core_builder` reads it, and hands out copies."""
    b, names, holds = _checked_core(p)
    for name, ok in holds.items():
        if not ok:
            raise ShapeAssertionFailed(f"the {name} chain does not evaluate to its target at p={p}")
    return tuple(b.nodes), b._memo, names


def _core_builder(p: int) -> tuple[CertBuilder, dict[str, int]]:
    """A fresh builder whose node list and memo are copies of the core
    template's, and the ids of M2, L2, L4, M3, M4, L5 and M1 in it."""
    nodes, memo, names = _core_template(p)
    b = CertBuilder(p)
    b.nodes, b._memo = list(nodes), memo.copy()
    return b, names.copy()


def build_generator_certs(p: int) -> dict[str, Certificate]:
    """Certificates for M2, L2, L4, M3, M4, M1 over the seeds
    {M0} + gamma_p2, from the core template, whose check they passed."""
    b, core = _core_builder(p)
    return {
        name: b.certificate(core[name], generator(name, p))
        for name in ("M2", "L2", "L4", "M3", "M4", "M1")
    }


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class IdentityReport:
    p: int
    checks: tuple[IdentityCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"identity checks at p = {self.p}"]
        for c in self.checks:
            note = f"  [{c.note}]" if c.note else ""
            out.append(f"  {'pass' if c.holds else 'FAIL'}  {c.name}{note}")
        out.append("PASS" if self.passed else "FAIL")
        return out


def verify_identities(p: int) -> IdentityReport:
    """Report, identity by identity, whether its node's certificate, with
    the generator as target, passes :func:`cert_verify`, from
    :func:`_checked_core`; nothing is assumed.  L5 and L4 = j2(P) are
    checked, not reported."""
    _, _, holds = _checked_core(p)
    if not holds["L5"]:  # the M4 link conjugates by L5^-1
        raise ShapeAssertionFailed(f"the L5 chain does not evaluate to its target at p={p}")
    if generator("L4", p) != j2_embed(generator("P", p), p):
        raise ShapeAssertionFailed(f"L4 is not j2(P) at p={p}")
    _, lam, mu = ext_gcd(-2, p * p)
    identities = (  # the core node each identity builds, its name and note
        ("M2", "m2-from-m0-commutator", ""),
        ("L2", "l2-from-m1-chain", ""),
        ("L4", "l4-power-combination", f"lam={lam} mu={mu} from ext_gcd(-2, {p * p})"),
        ("M3", "m3-from-l4-chain", ""),
        ("M4", "m4-from-l5-commutator", "uses l1^+1; the l1^-1 variant equals m4*l1^-2"),
        ("M1", "m1-from-m3-chain", ""),
    )
    return IdentityReport(p, tuple(
        IdentityCheck(name, holds[key], note)
        for key, name, note in identities
    ))


_J1_S = j1_embed(S)  # the conjugator of every U-factor, built once


def _j1_chain(b: CertBuilder, a: Mat2) -> int:
    """Node for j1(a), using only the M0 seed: the j1 image of the
    :func:`sp4cert.sl2.conjugates_of_t` list of a's word, each factor
    w T^e w^-1 a power of M0, conjugated by j1(w) unless w is the
    identity; w is the identity or S, so j1(w) is ``_J1_S``."""
    n_m0 = b.seed_m0()
    parts = []
    for w, e in conjugates_of_t(sl2_decompose(a)):
        part = b.power(n_m0, e, "M0")
        parts.append(part if w.is_identity() else b.conj(part, _J1_S))
    return b.product(parts)


def expand_j1(a: Mat2, p: int) -> Certificate:
    """Certificate for j1(a) with SeedM0 as the only leaf, unchecked
    until :func:`cert_verify`."""
    b = CertBuilder(p)
    return b.certificate(_j1_chain(b, a), j1_embed(a))


def _j2_chain(b: CertBuilder, core: dict[str, int], q: Mat2) -> int:
    """Node evaluating to j2(q) for q in gamma1_of_p.

    P-powers reuse the core L4 node; gamma1prime_p2 elements enter as
    gamma_p2 seeds (their j2 images are congruent to 1 mod p^2); the
    SL(2,Z) conjugations of the step list become conj nodes with
    j2-image conjugators, which lie in gamma0_1p.
    """
    p = b.p
    steps = gamma1p_generate(q, p)
    idx: int | None = None
    for step in steps.steps:
        if isinstance(step, ConjugateBy):  # never first: case 2 leaves m != 1, so a multiply comes before it
            idx = b.conj(idx, j2_embed(step.conjugator, p))
            continue
        if isinstance(step, MultiplyLeftP):
            part = b.power(core["L4"], step.exponent, "L4")
        else:  # MultiplyLeftPrime
            part = b.seed_p2(j2_embed(step.element, p))
        idx = part if idx is None else b.mul(part, idx)
    return b.identity() if idx is None else idx


def expand_j2(q: Mat2, p: int) -> Certificate:
    """Certificate for j2(q), q in gamma1_of_p; seeds are M0 (through
    the embedded L4 chain) and j2 images of gamma1prime_p2 elements.
    It is unchecked until :func:`cert_verify`."""
    b, core = _core_builder(p)
    return b.certificate(_j2_chain(b, core, q), j2_embed(q, p))


def normal_closure_witness(k: Mat4, p: int) -> Certificate:
    """Seed-level certificate for any gamma_1p element.

    Pipeline: decompose k over {M1..M4, j1, j2}, take the ``small`` twin
    of each letter (its class mod p^2, small entries), then splice the
    small word r into a copy of the core template -- named generators as
    powers of their core nodes, j1 letters through the M0 word, j2
    letters through the level-p case split -- after one seed
    s = k r^-1, which lies in gamma_p2 (module docstring).  No seed is
    taken when every letter is its own twin, as s = 1.  ``decompose``
    raises :class:`NotInGroup` when k is not in gamma_1p.  The
    certificate, with k as target, keeps only the nodes its root reaches
    and is unchecked until :func:`cert_verify`.
    """
    letters = decompose(k, p, tilde=False).letters
    small = [letter.small(p) for letter in letters]
    b, core = _core_builder(p)
    parts: list[int] = []
    if any(x is not y for x, y in zip(small, letters)):
        s = r_conjugate(k, p)  # k r^-1 by the inverted small letters' column operations
        for letter in reversed(small):
            s = letter.inverse().times(s, p, False)
        parts.append(b.seed_p2(r_conjugate(s, p, inverse=True)))
    for letter in small:
        if isinstance(letter, J1):
            parts.append(_j1_chain(b, letter.payload))
        elif isinstance(letter, Named):
            parts.append(b.power(core[letter.name], letter.exp, letter.name))
        else:
            parts.append(_j2_chain(b, core, letter.payload))
    return b.certificate(b.product(parts), k)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def certificate_from_json_obj(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise ParseError("certificate must be a JSON object")
    for key in ("p", "nodes", "root", "target"):
        if key not in obj:
            raise ParseError(f"certificate missing field {key!r}")
    p = json_int(obj["p"], "certificate p")
    root = json_int(obj["root"], "certificate root")
    target = mat4_from_lists(obj["target"])
    raw = obj["nodes"]
    if not isinstance(raw, list):
        raise ParseError("nodes must be a list")
    nodes: list[CertNode] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"node {i} malformed")
        node_id = item.get("id")
        if type(node_id) is not int or node_id != i:
            json_int(node_id, f"node {i} id")
            raise ParseError(f"node {i} has id {node_id!r}; ids must be 0..n-1 in order")
        args = item.get("args", [])
        if not isinstance(args, list):
            raise ParseError(f"node {i}: args must be a list of ints")
        for a in args:
            if type(a) is not int:
                json_int(a, f"node {i} arg")
        value = item.get("value", ...)  # JSON has no Ellipsis: no value given
        value = None if value is ... else mat4_from_lists(value)
        nodes.append(_new(CertNode, (item.get("op"), tuple(args), value)))
    return Certificate(p, tuple(nodes), root, target)


def _matrix_layout(pad: str) -> str:
    """A ``%`` template of a matrix's 16 entry strings, its rows opening at indent ``pad``."""
    row = f'\n{pad} [\n{pad}  "' + f'",\n{pad}  "'.join(["%s"] * 4) + f'"\n{pad} ]'
    return "[" + ",".join([row] * 4) + f"\n{pad}]"


def _node_layout(op: str) -> str:
    """A ``%`` template of the id, args and entry strings of an ``op`` node."""
    arity, literal = _SHAPE[op]
    args = "[" + ",".join(["\n    %d"] * arity) + "\n   ]" if arity else "[]"
    value = ',\n   "value": ' + _matrix_layout("   ") if literal else ""
    return '  {\n   "id": %d,\n   "op": "' + op + '",\n   "args": ' + args + value + "\n  }"


# op -> (its node's template, arity, whether it holds a value), and the
# text before and after the nodes: p, then root and the target's entries
_NODE_TEXT = {op: (_node_layout(op), arity, literal is not None) for op, (arity, literal) in _SHAPE.items()}
_HEAD, _TAIL = '{\n "p": %s,\n "nodes": [\n', '\n ],\n "root": %s,\n "target": ' + _matrix_layout(" ") + "\n}"


def _text(cert: Certificate, as_is: bool) -> str:
    """The text of ``cert`` (module docstring): with ``as_is`` an
    integral matrix gives its stored ints to ``%s``, else every matrix
    gives its :func:`entry_strings`."""
    texts: list[str] = []
    flat = [cert.p]
    for i, (op, args, value) in enumerate(cert.nodes):
        text, arity, literal = _NODE_TEXT[op]
        if len(args) != arity or (value is None) == literal:  # a misfit shifts every later field
            has = "no value" if value is None else "a value"
            raise TypeError(f"node {i}: op {op} with {len(args)} args and {has} fits no template")
        texts.append(text)
        flat.append(i)
        flat += args
        if literal:
            d, e = value.scaled()
            flat += e if as_is and d == 1 else entry_strings(value)
    d, e = cert.target.scaled()
    flat += (cert.root, *(e if as_is and d == 1 else entry_strings(cert.target)))
    return (_HEAD + ",\n".join(texts) + _TAIL) % tuple(flat)


def serialize(cert: Certificate) -> str:
    """The certificate as ``json.dumps(obj, indent=1)`` lays out its
    JSON object, written directly; see the module docstring."""
    try:
        return _text(cert, True)
    except ValueError:  # an entry past the int/str digit limit: entry_strings writes it
        return _text(cert, False)


def parse(text: str | bytes) -> Certificate:
    return certificate_from_json_obj(load_json(text))
