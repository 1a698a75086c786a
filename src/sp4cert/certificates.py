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
the immutable named tuple ``(op, args, value)``.  ``_SHAPE`` gives each
op its arity and, for a seed or conjugator, the check kind and the group
its literal must lie in (gamma_p2, gamma0_1p); the structure check (run
once, when a :class:`Certificate` is built), the verifier and the
builder all read it, and one memo, :func:`_verdict`, tests each
(literal, group) pair once for either.  Verification (:func:`cert_verify`)
checks every literal first, in node order, and stops at the first
failure; only then does it replay the DAG once, exactly, and compare the
root with the target.  Nothing about a certificate is trusted; the
builders in this module only ever hand out objects that the verifier
then re-checks from scratch, each extracted from a builder's nodes by
one backward liveness pass and one forward renumbering pass.

Builders:

* :func:`build_generator_certs` -- certificates for M2, L2, L4, M3, M4
  and M1, following the product identities of
  :func:`sp4cert.generators.verify_identities`.  Conjugators (M4^-1,
  M1, M3, L5^-1, j1-images) are stored as literal matrices; they are
  legal conjugators by predicate even where the chain has not yet
  derived them from seeds.
* :func:`expand_j1` -- any j1(SL(2,Z)) element from the seed M0 alone,
  through the T/U word of the payload (U-letters conjugate by j1(S)).
* :func:`expand_j2` -- any j2(gamma1_of_p) element from M0 and
  j2(gamma1prime_p2) seeds, through the three-case step list of
  :func:`sp4cert.sl2.gamma1p_generate`; P-powers reuse the embedded L4
  chain.
* :func:`normal_closure_witness` -- full pipeline: decompose a
  gamma_1p element into a generator word, then splice the pieces.

Every gamma_p2 element is a leaf at no cost, and :meth:`CertBuilder.power`
uses that.  A unipotent base ``1 + N`` (``N N = 0``) raised to an
exponent ``e = r + q p^2`` past ``p^2/2`` (``|r| <= p^2/2``) becomes
``a^r`` times the seed ``S = 1 + q p^2 N``: S is a power of a
symplectic matrix, hence symplectic, and for integral N it is
congruent to 1 mod p^2, so it lies in gamma_p2.  The closed form is
:func:`sp4cert.matrices.unipotent_power`; each literal S is tested for
gamma_p2 once.  Such a power adds at most ``2 bit_length(p^2 // 2) + 3``
nodes, however large e is.

The core chain (M2, L2, L4, M3, M4, M1 and L5 from the seeds) depends
only on p: it is built and checked once per p, kept for the last
``_CORE_TEMPLATES`` primes, and interned into each builder that needs
it with its values known, in the node order building it there gives.

Serialisation (:func:`serialize`) is one direct writer of what
``json.dumps(obj, indent=1)`` makes of ``{"p", "nodes", "root",
"target"}``, each node ``{"id", "op", "args"}`` plus ``"value"`` for a
seed or conjugator: one-space indents, ``,`` at line ends, ``": "``
after keys, ``"args": []`` when empty, each matrix rows of entry
strings from :func:`sp4cert.matrices.mat4_to_lists`.  Entries hold only
digits, ``-`` and ``/`` and ops are the five names of ``_SHAPE``, so
nothing is escaped.  Nested one level deeper (``sp4cert
certify-generators``), the text gains one space after each newline.
Round-trips through :func:`parse` are bit-exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .decompose import J1, Named, decompose
from .errors import (
    MalformedDag,
    NotInGroup,
    NotUnimodular,
    ParseError,
    ShapeAssertionFailed,
)
from .generators import generator
from .groups import GroupLabel, j1_embed, j2_embed, member, require_odd_prime
from .matrices import (
    Mat2,
    Mat4,
    ext_gcd,
    json_int,
    load_json,
    mat4_from_lists,
    mat4_to_lists,
    unipotent_power,
)
from .sl2 import (
    ConjugateBy,
    MultiplyLeftP,
    S,
    gamma1p_generate,
    sl2_decompose,
)

SEED_M0 = "seed_m0"
SEED_P2 = "seed_p2"
MUL = "mul"
INV = "inv"
CONJ = "conj"

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
    """A DAG of :class:`CertNode`, well-formed or not built (:class:`MalformedDag`)."""

    p: int
    nodes: tuple[CertNode, ...]
    root: int
    target: Mat4

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if n == 0:
            raise MalformedDag("certificate has no nodes")
        for name, x in (("p", self.p), ("root", self.root)):
            if type(x) is not int:  # exactly int, as for args: serialize writes str(x)
                raise MalformedDag(f"{name} {x!r} is not an int")
        if not 0 <= self.root < n:
            raise MalformedDag(f"root {self.root} out of range")
        for i, (op, args, value) in enumerate(self.nodes):
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

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class CheckResult:
    kind: str  # "structure" | "seed" | "conjugator" | "resource" | "replay"
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
        counts: dict[str, int] = {}
        for c in self.checks:
            counts[c.kind] = counts.get(c.kind, 0) + 1
        out.append(
            "  checks: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        out.append("PASS" if self.passed else f"FAIL ({self.failure_locus})")
        return out


def _verdict(memo: dict[tuple[Mat4, GroupLabel], bool], m: Mat4, label: GroupLabel, p: int) -> bool:
    """Whether the literal ``m`` lies in ``label``; ``memo`` keeps each
    pair's verdict, so each is tested once."""
    key = (m, label)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = member(m, label, p)
    return verdict


def _node_value(node: CertNode, values: list[Mat4], m0: Mat4) -> Mat4:
    """The value of ``node`` given the values of the nodes before it."""
    if node.op == SEED_M0:
        return m0
    if node.op == SEED_P2:
        return node.value
    if node.op == MUL:
        return values[node.args[0]] * values[node.args[1]]
    if node.op == INV:
        return values[node.args[0]].inv()
    g = node.value  # CONJ
    return g * values[node.args[0]] * g.inv()


# replay refuses a mul or conj value with an entry wider than
# _BUDGET_SCALE * L + _BUDGET_SLACK bits, L the widest Mat4.entry_bits()
# (reduced numerator or denominator) among the certificate's literals
# (seeds, conjugators and target); every operand is then within budget,
# so each product's cost is bounded by the size of the file
_BUDGET_SCALE = 4
_BUDGET_SLACK = 64


def _bit_budget(cert: Certificate) -> int:
    literals = [cert.target, *(node.value for node in cert.nodes if node.value is not None)]
    return _BUDGET_SCALE * max(m.entry_bits() for m in literals) + _BUDGET_SLACK


def cert_verify(cert: Certificate) -> VerificationReport:
    """Check every seed and conjugator, then replay the DAG exactly.

    Structure was checked when ``cert`` was built (a malformed DAG
    raises :class:`MalformedDag` there); mathematical failures (bad
    seed, bad conjugator, replay mismatch) are reported, not thrown.
    The first failed seed or conjugator check ends verification before
    any product is formed, and is the last check in the report; once
    all have passed, every value is a group element, and each ``inv``
    and ``conj`` inverts it by the integer adjugate of :meth:`Mat4.inv`.
    A mul or conj value over the bit budget ends replay as a failed
    ``resource`` check at that node.
    """
    p = require_odd_prime(cert.p)
    checks: list[CheckResult] = []
    memo: dict[tuple[Mat4, GroupLabel], bool] = {}
    for i, node in enumerate(cert.nodes):
        if node.value is None:  # not a literal (the structure check pairs the two)
            continue
        kind, label = _SHAPE[node.op][1]
        good = _verdict(memo, node.value, label, p)
        checks.append(CheckResult(kind, i, good, "" if good else f"{kind} not in {label.value}"))
        if not good:
            return VerificationReport(False, tuple(checks), len(cert.nodes), f"{kind} node {i}")

    budget = _bit_budget(cert)
    m0 = generator("M0", p)
    values: list[Mat4] = []
    for i, node in enumerate(cert.nodes):
        value = _node_value(node, values, m0)
        if node.op in (MUL, CONJ) and value.entry_bits() > budget:
            detail = f"value wider than the {budget}-bit budget"
            checks.append(CheckResult("resource", i, False, detail))
            return VerificationReport(False, tuple(checks), len(cert.nodes), f"resource node {i}")
        values.append(value)

    replay_ok = values[cert.root] == cert.target
    detail = "" if replay_ok else "root value differs from target"
    checks.append(CheckResult("replay", cert.root, replay_ok, detail))
    locus = "" if replay_ok else f"replay mismatch at root {cert.root}"
    return VerificationReport(replay_ok, tuple(checks), len(cert.nodes), locus)


class CertBuilder:
    """Hash-consing builder: structurally equal nodes are shared, so
    repeated sub-chains (the L4 chain in particular) appear once."""

    def __init__(self, p: int):
        self.p = require_odd_prime(p)
        self.nodes: list[CertNode] = []
        self.values: list[Mat4] = []
        self._memo: dict[CertNode, int] = {}
        self._verdicts: dict[tuple[Mat4, GroupLabel], bool] = {}  # literal checks
        self._m0 = generator("M0", p)

    def _intern(self, node: CertNode, known: Mat4 | None = None) -> int:
        # equal nodes have equal values, so a hit forms no product; a
        # node copied from a core template brings its value as ``known``
        hit = self._memo.get(node)
        if hit is not None:
            return hit
        self.values.append(_node_value(node, self.values, self._m0) if known is None else known)
        self.nodes.append(node)
        idx = len(self.nodes) - 1
        self._memo[node] = idx
        return idx

    def _literal(self, op: str, args: tuple[int, ...], m: Mat4) -> int:
        """Intern an ``op`` node holding ``m``, which must lie in the op's ``_SHAPE`` group."""
        kind, label = _SHAPE[op][1]
        if not _verdict(self._verdicts, m, label, self.p):
            raise NotInGroup(f"{kind} must lie in {label.value}")
        return self._intern(CertNode(op, args, m))

    def seed_m0(self) -> int:
        return self._intern(CertNode(SEED_M0))

    def seed_p2(self, m: Mat4) -> int:
        return self._literal(SEED_P2, (), m)

    def mul(self, a: int, b: int) -> int:
        return self._intern(CertNode(MUL, (a, b)))

    def inv(self, a: int) -> int:
        return self._intern(CertNode(INV, (a,)))

    def conj(self, a: int, g: Mat4) -> int:
        return self._literal(CONJ, (a,), g)

    def identity(self) -> int:
        return self.seed_p2(Mat4.identity())

    def power(self, a: int, e: int) -> int:
        """Node for the e-th power of node ``a``.

        When a's value is ``1 + N`` with ``N N = 0`` and ``|e| > p^2/2``,
        write ``e = r + q p^2`` with ``|r| <= p^2/2``: then
        ``a^e = a^r S`` with ``S = 1 + q p^2 N``.  S is a power of a
        group element, so it is symplectic; when N is integral it is also
        congruent to 1 mod p^2, so it enters as one gamma_p2 seed and
        only ``a^r`` is built by repeated squaring.  Any other base, an
        S outside gamma_p2, and any ``|e| <= p^2/2`` take repeated
        squaring over mul/inv nodes.
        """
        p2 = self.p * self.p
        q, r = divmod(e + p2 // 2, p2)
        r -= p2 // 2
        if q:
            s = unipotent_power(self.values[a], q * p2)
            _, seed_group = _SHAPE[SEED_P2][1]
            if s is not None and _verdict(self._verdicts, s, seed_group, self.p):
                seed = self.seed_p2(s)
                return seed if r == 0 else self.mul(self._binary_power(a, r), seed)
        return self._binary_power(a, e)

    def _binary_power(self, a: int, e: int) -> int:
        """e-th power by repeated squaring over mul/inv nodes."""
        if e == 0:
            return self.identity()
        if e < 0:
            return self._binary_power(self.inv(a), -e)
        result: int | None = None
        base = a
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def product(self, ids: Iterable[int]) -> int:
        result: int | None = None
        for idx in ids:
            result = idx if result is None else self.mul(result, idx)
        return self.identity() if result is None else result

    def certificate(self, root: int) -> Certificate:
        """The sub-DAG reachable from ``root``, renumbered, with the
        value of ``root`` as target: a backward liveness pass, then a
        forward renumbering pass (see the module docstring)."""
        live = [False] * root + [True]
        for i in range(root, -1, -1):
            if live[i]:
                for a in self.nodes[i].args:
                    live[a] = True
        new_id = [0] * (root + 1)
        nodes: list[CertNode] = []
        for i, node in enumerate(self.nodes[: root + 1]):
            if live[i]:
                new_id[i] = len(nodes)
                nodes.append(CertNode(node.op, tuple([new_id[a] for a in node.args]), node.value))
        return Certificate(self.p, tuple(nodes), len(nodes) - 1, self.values[root])


# ---------------------------------------------------------------------------
# generator chains
# ---------------------------------------------------------------------------


def _require_value(b: CertBuilder, idx: int, expected: Mat4, what: str) -> None:
    """Raise :class:`ShapeAssertionFailed` unless node ``idx`` evaluates
    to ``expected``; an explicit check, so ``python -O`` keeps it."""
    if b.values[idx] != expected:
        raise ShapeAssertionFailed(f"the {what} chain does not evaluate to its target at p={b.p}")


def _core_chain(b: CertBuilder) -> dict[str, int]:
    """Build the nodes for M2, L2, L4, M3, M4, M1 (plus L5) from seeds
    only, checking each against its generator."""
    p = b.p
    g = {name: generator(name, p) for name in
         ("M0", "M1", "M2", "M3", "M4", "L1", "L2", "L3", "L4", "L5")}

    n_m0 = b.seed_m0()
    n_m0_inv = b.inv(n_m0)
    n_l1 = b.seed_p2(g["L1"])

    # M2 = (M4^-1 M0 M4) M0^-1 L1^-1
    n_m2 = b.mul(
        b.mul(b.conj(n_m0, g["M4"].inv()), n_m0_inv), b.inv(n_l1)
    )
    _require_value(b, n_m2, g["M2"], "M2")

    # L2 = (M1 M0 M1^-1)(M1^-1 M0 M1) j1((1,-2),(0,1)); the j1 image is M0^-2
    n_l2 = b.mul(
        b.mul(b.conj(n_m0, g["M1"]), b.conj(n_m0, g["M1"].inv())),
        b.mul(n_m0_inv, n_m0_inv),
    )
    _require_value(b, n_l2, g["L2"], "L2")

    # L4 = L2^lam L3^mu with -2*lam + p^2*mu = 1
    _, lam, mu = ext_gcd(-2, p * p)
    n_l3 = b.seed_p2(g["L3"])
    n_l4 = b.mul(b.power(n_l2, lam), b.power(n_l3, mu))
    _require_value(b, n_l4, g["L4"], "L4")

    # M3 = (L4 (M1 M0 M1^-1) M0^-1)^-1
    n_m3 = b.inv(b.mul(b.mul(n_l4, b.conj(n_m0, g["M1"])), n_m0_inv))
    _require_value(b, n_m3, g["M3"], "M3")

    # M4 = (L5^-1 M2^-1 L5) M2 L1
    n_m4 = b.mul(b.mul(b.conj(b.inv(n_m2), g["L5"].inv()), n_m2), n_l1)
    _require_value(b, n_m4, g["M4"], "M4")

    # L5 = j1(U) = j1(S) M0^-1 j1(S)^-1
    n_l5 = b.conj(n_m0_inv, j1_embed(S))
    _require_value(b, n_l5, g["L5"], "L5")

    # M1 = ((M3 (L5 L4) M3^-1) L5^-1 L2)^-1
    n_m1 = b.inv(
        b.mul(b.mul(b.conj(b.mul(n_l5, n_l4), g["M3"]), b.inv(n_l5)), n_l2)
    )
    _require_value(b, n_m1, g["M1"], "M1")

    return {
        "M1": n_m1, "M2": n_m2, "M3": n_m3, "M4": n_m4,
        "L2": n_l2, "L4": n_l4, "L5": n_l5,
    }


_CORE_TEMPLATES = 8  # primes whose core chain is kept; p may be as large as 3.3e24


@functools.lru_cache(maxsize=_CORE_TEMPLATES)
def _core_template(p: int) -> tuple[tuple[tuple[CertNode, Mat4], ...], tuple[tuple[str, int], ...]]:
    """The ``(node, value)`` pairs and named ids of the core chain of p,
    built and checked in a fresh builder; a failed check caches nothing."""
    b = CertBuilder(p)
    names = _core_chain(b)
    return tuple(zip(b.nodes, b.values)), tuple(names.items())


def _core_nodes(b: CertBuilder) -> dict[str, int]:
    """Nodes for M2, L2, L4, M3, M4, M1 (plus L5) in ``b``: the template
    interned in order, args renumbered through ``b``'s memo, so nodes
    first appear in the order that building the chain in ``b`` gives."""
    template, names = _core_template(b.p)
    ids: list[int] = []
    for node, value in template:
        if node.args:
            node = node._replace(args=tuple([ids[a] for a in node.args]))
        ids.append(b._intern(node, value))
    return {name: ids[i] for name, i in names}


def build_generator_certs(p: int) -> dict[str, Certificate]:
    """Certificates for M2, L2, L4, M3, M4, M1 over the seeds
    {M0} + gamma_p2; every one verifies by exact replay."""
    b = CertBuilder(p)
    nodes = _core_nodes(b)
    return {
        name: b.certificate(nodes[name])
        for name in ("M2", "L2", "L4", "M3", "M4", "M1")
    }


def _j1_chain(b: CertBuilder, a: Mat2) -> int:
    """Node evaluating to j1(a), using only the M0 seed.

    T-letters are powers of the seed; U-letters conjugate the inverse
    power by j1(S), since U = S T^-1 S^-1.
    """
    word = sl2_decompose(a)
    n_m0 = b.seed_m0()
    parts = []
    for name, exp in word.letters:
        if name == "T":
            parts.append(b.power(n_m0, exp))
        else:
            parts.append(b.conj(b.power(n_m0, -exp), j1_embed(S)))
    idx = b.product(parts)
    _require_value(b, idx, j1_embed(a), "j1")
    return idx


def expand_j1(a: Mat2, p: int) -> Certificate:
    """Certificate for j1(a) with SeedM0 as the only leaf."""
    if a.det() != 1:
        raise NotUnimodular("expand_j1 needs determinant 1")
    b = CertBuilder(p)
    return b.certificate(_j1_chain(b, a))


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
        if isinstance(step, ConjugateBy):
            idx = b.conj(b.identity() if idx is None else idx, j2_embed(step.conjugator, p))
            continue
        if isinstance(step, MultiplyLeftP):
            part = b.power(core["L4"], step.exponent)
        else:  # MultiplyLeftPrime
            part = b.seed_p2(j2_embed(step.element, p))
        idx = part if idx is None else b.mul(part, idx)
    if idx is None:
        idx = b.identity()
    _require_value(b, idx, j2_embed(q, p), "j2")
    return idx


def expand_j2(q: Mat2, p: int) -> Certificate:
    """Certificate for j2(q), q in gamma1_of_p; seeds are M0 (through
    the embedded L4 chain) and j2 images of gamma1prime_p2 elements."""
    if not member(q, GroupLabel.GAMMA1_OF_P, p):
        raise NotInGroup(f"not in gamma1_of_p at p={p}")
    b = CertBuilder(p)
    core = _core_nodes(b)
    return b.certificate(_j2_chain(b, core, q))


def normal_closure_witness(k: Mat4, p: int) -> Certificate:
    """Seed-level certificate for any gamma_1p element.

    Pipeline: decompose k over {M1..M4, j1, j2}, then splice each
    letter -- named generators through their chains, j1 letters through
    the M0 word, j2 letters through the level-p case split.
    ``decompose`` raises :class:`NotInGroup` when k is not in gamma_1p.
    """
    word = decompose(k, p, tilde=False)
    b = CertBuilder(p)
    core: dict[str, int] | None = None
    parts: list[int] = []
    for letter in word.letters:
        if isinstance(letter, J1):
            parts.append(_j1_chain(b, letter.payload))
            continue
        if core is None:
            core = _core_nodes(b)
        if isinstance(letter, Named):
            parts.append(b.power(core[letter.name], letter.exp))
        else:
            parts.append(_j2_chain(b, core, letter.payload))
    root = b.product(parts)
    _require_value(b, root, k, "witness")
    return b.certificate(root)


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
        nodes.append(CertNode(item.get("op"), tuple(args), value))
    try:
        return Certificate(p=p, nodes=tuple(nodes), root=root, target=target)
    except MalformedDag as exc:
        raise ParseError(str(exc)) from exc


def _matrix_text(m: Mat4, pad: str) -> str:
    """``m`` as a JSON list of rows laid out with one-space indents,
    opening on a line indented by ``pad``."""
    row_open, entry_sep = f"\n{pad} [\n{pad}  \"", f"\",\n{pad}  \""
    rows = [row_open + entry_sep.join(row) + f"\"\n{pad} ]" for row in mat4_to_lists(m)]
    return "[" + ",".join(rows) + f"\n{pad}]"


def serialize(cert: Certificate) -> str:
    """The certificate as ``json.dumps(obj, indent=1)`` lays out its
    JSON object, written directly; see the module docstring."""
    nodes = []
    for i, (op, args, value) in enumerate(cert.nodes):
        arg_text = "[\n    " + ",\n    ".join(map(str, args)) + "\n   ]" if args else "[]"
        text = f'  {{\n   "id": {i},\n   "op": "{op}",\n   "args": {arg_text}'
        if value is not None:
            text += ',\n   "value": ' + _matrix_text(value, "   ")
        nodes.append(text + "\n  }")
    return (
        f'{{\n "p": {cert.p},\n "nodes": [\n' + ",\n".join(nodes)
        + f'\n ],\n "root": {cert.root},\n "target": {_matrix_text(cert.target, " ")}\n}}'
    )


def parse(text: str | bytes) -> Certificate:
    return certificate_from_json_obj(load_json(text))
