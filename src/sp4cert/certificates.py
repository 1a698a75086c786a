"""Straight-line-program certificates over the seeds {M0} + level p^2.

A :class:`Certificate` is a DAG whose leaves are either the single
translation M0 or literal matrices congruent to the identity mod p^2,
and whose internal nodes are

    mul(a, b)  ->  value(a) * value(b)
    inv(a)     ->  value(a)^-1
    conj(a, g) ->  g * value(a) * g^-1,   g a literal in gamma0_1p

so a passing certificate witnesses that its target lies in the normal
closure of {M0} + gamma_p2 inside gamma0_1p; :func:`_node_value` is the
one place these meanings are written.  Verification (:func:`cert_verify`)
checks every seed (in gamma_p2) and conjugator (in gamma0_1p) first, in
node order, and stops at the first failure; only then does it replay
the DAG once, exactly, and compare the root with the target.  Nothing
about a certificate is trusted; the builders in this module only ever
hand out objects that the verifier then re-checks from scratch.

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

Serialisation is JSON with matrices in the interchange string format;
round-trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

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
from .matrices import Mat2, Mat4, ext_gcd, json_int, mat4_from_lists, mat4_to_lists
from .sl2 import (
    ConjugateBy,
    MultiplyLeftP,
    MultiplyLeftPrime,
    S,
    gamma1p_generate,
    sl2_decompose,
)

SEED_M0 = "seed_m0"
SEED_P2 = "seed_p2"
MUL = "mul"
INV = "inv"
CONJ = "conj"

_ARITY = {SEED_M0: 0, SEED_P2: 0, MUL: 2, INV: 1, CONJ: 1}


@dataclass(frozen=True)
class CertNode:
    op: str
    args: tuple[int, ...] = ()
    value: Mat4 | None = None  # seed matrix or conjugator


@dataclass(frozen=True)
class Certificate:
    p: int
    nodes: tuple[CertNode, ...]
    root: int
    target: Mat4

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class CheckResult:
    kind: str  # "structure" | "seed" | "conjugator" | "replay"
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


def _validate_structure(cert: Certificate) -> None:
    n = len(cert.nodes)
    if n == 0:
        raise MalformedDag("certificate has no nodes")
    if not 0 <= cert.root < n:
        raise MalformedDag(f"root {cert.root} out of range")
    for i, node in enumerate(cert.nodes):
        arity = _ARITY.get(node.op) if isinstance(node.op, str) else None
        if arity is None:
            raise MalformedDag(f"node {i}: unknown op {node.op!r}")
        if len(node.args) != arity:
            raise MalformedDag(f"node {i}: op {node.op} wants {arity} args")
        if any(not 0 <= a < i for a in node.args):
            raise MalformedDag(f"node {i}: args {node.args} not all earlier")
        needs_value = node.op in (SEED_P2, CONJ)
        if needs_value != (node.value is not None):
            raise MalformedDag(f"node {i}: op {node.op} value mismatch")


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


def evaluate(cert: Certificate) -> list[Mat4]:
    """The value of every node, in order; no side condition is checked."""
    m0 = generator("M0", cert.p)
    values: list[Mat4] = []
    for node in cert.nodes:
        values.append(_node_value(node, values, m0))
    return values


def cert_verify(cert: Certificate) -> VerificationReport:
    """Check every seed and conjugator, then replay the DAG exactly.

    Raises :class:`MalformedDag` for structural problems; mathematical
    failures (bad seed, bad conjugator, replay mismatch) are reported,
    not thrown.  The first failed seed or conjugator check ends
    verification before any product is formed, and is the last check in
    the report; once all have passed, every value is a group element.
    """
    _validate_structure(cert)
    p = require_odd_prime(cert.p)
    checks: list[CheckResult] = []
    membership_cache: dict[tuple[Mat4, GroupLabel], bool] = {}
    for i, node in enumerate(cert.nodes):
        if node.op == SEED_P2:
            kind, label, detail = "seed", GroupLabel.GAMMA_P2, "seed not in gamma_p2"
        elif node.op == CONJ:
            kind, label = "conjugator", GroupLabel.GAMMA0_1P
            detail = "conjugator not in gamma0_1p"
        else:
            continue
        key = (node.value, label)
        if key not in membership_cache:
            membership_cache[key] = member(node.value, label, p)
        good = membership_cache[key]
        checks.append(CheckResult(kind, i, good, "" if good else detail))
        if not good:
            return VerificationReport(False, tuple(checks), len(cert.nodes), f"{kind} node {i}")

    replay_ok = evaluate(cert)[cert.root] == cert.target
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
        self._memo: dict[tuple, int] = {}
        self._m0 = generator("M0", p)

    def _intern(self, node: CertNode) -> int:
        # evaluated before the memo lookup, so a hit still pays its product;
        # looking up first waits on the benchmark's round memory (ROADMAP)
        value = _node_value(node, self.values, self._m0)
        key = (node.op, node.args, node.value)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.nodes.append(node)
        self.values.append(value)
        idx = len(self.nodes) - 1
        self._memo[key] = idx
        return idx

    def seed_m0(self) -> int:
        return self._intern(CertNode(SEED_M0))

    def seed_p2(self, m: Mat4) -> int:
        if not member(m, GroupLabel.GAMMA_P2, self.p):
            raise NotInGroup("seed must lie in gamma_p2")
        return self._intern(CertNode(SEED_P2, value=m))

    def mul(self, a: int, b: int) -> int:
        return self._intern(CertNode(MUL, (a, b)))

    def inv(self, a: int) -> int:
        return self._intern(CertNode(INV, (a,)))

    def conj(self, a: int, g: Mat4) -> int:
        if not member(g, GroupLabel.GAMMA0_1P, self.p):
            raise NotInGroup("conjugator must lie in gamma0_1p")
        return self._intern(CertNode(CONJ, (a,), value=g))

    def identity(self) -> int:
        return self.seed_p2(Mat4.identity())

    def power(self, a: int, e: int) -> int:
        """e-th power by repeated squaring over mul/inv nodes."""
        if e == 0:
            return self.identity()
        if e < 0:
            return self.power(self.inv(a), -e)
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

    def certificate(self, root: int, target: Mat4 | None = None) -> Certificate:
        """Extract the sub-DAG reachable from ``root``, renumbered."""
        reachable: set[int] = set()
        stack = [root]
        while stack:
            i = stack.pop()
            if i in reachable:
                continue
            reachable.add(i)
            stack.extend(self.nodes[i].args)
        order = sorted(reachable)
        renumber = {old: new for new, old in enumerate(order)}
        nodes = tuple(
            CertNode(
                self.nodes[i].op,
                tuple(renumber[a] for a in self.nodes[i].args),
                self.nodes[i].value,
            )
            for i in order
        )
        return Certificate(
            p=self.p,
            nodes=nodes,
            root=renumber[root],
            target=self.values[root] if target is None else target,
        )


# ---------------------------------------------------------------------------
# generator chains
# ---------------------------------------------------------------------------


def _require_value(b: CertBuilder, idx: int, expected: Mat4, what: str) -> None:
    """Raise :class:`ShapeAssertionFailed` unless node ``idx`` evaluates
    to ``expected``; an explicit check, so ``python -O`` keeps it."""
    if b.values[idx] != expected:
        raise ShapeAssertionFailed(f"the {what} chain does not evaluate to its target at p={b.p}")


def _core_nodes(b: CertBuilder) -> dict[str, int]:
    """Nodes for M2, L2, L4, M3, M4, M1 (plus L5) from seeds only."""
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
        if isinstance(step, MultiplyLeftP):
            part = b.power(core["L4"], step.exponent)
            idx = part if idx is None else b.mul(part, idx)
        elif isinstance(step, MultiplyLeftPrime):
            part = b.seed_p2(j2_embed(step.element, p))
            idx = part if idx is None else b.mul(part, idx)
        else:  # ConjugateBy
            base = b.identity() if idx is None else idx
            idx = b.conj(base, j2_embed(step.conjugator, p))
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
    """
    if not member(k, GroupLabel.GAMMA_1P, p):
        raise NotInGroup(f"not in gamma_1p at p={p}")
    word = decompose(k, p, tilde=False)
    b = CertBuilder(p)
    core: dict[str, int] | None = None
    parts: list[int] = []
    for letter in word.letters:
        if isinstance(letter, Named):
            if core is None:
                core = _core_nodes(b)
            parts.append(b.power(core[letter.name], letter.exp))
        elif isinstance(letter, J1):
            parts.append(_j1_chain(b, letter.payload))
        else:
            if core is None:
                core = _core_nodes(b)
            parts.append(_j2_chain(b, core, letter.payload))
    root = b.product(parts)
    _require_value(b, root, k, "witness")
    return b.certificate(root, target=k)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def certificate_to_json_obj(cert: Certificate) -> dict:
    nodes = []
    for i, node in enumerate(cert.nodes):
        item: dict = {"id": i, "op": node.op, "args": list(node.args)}
        if node.value is not None:
            item["value"] = mat4_to_lists(node.value)
        nodes.append(item)
    return {
        "p": cert.p,
        "nodes": nodes,
        "root": cert.root,
        "target": mat4_to_lists(cert.target),
    }


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
        if json_int(item.get("id"), f"node {i} id") != i:
            raise ParseError(f"node {i} has id {item['id']!r}; ids must be 0..n-1 in order")
        args = item.get("args", [])
        if not isinstance(args, list):
            raise ParseError(f"node {i}: args must be a list of ints")
        args = tuple(json_int(a, f"node {i} arg") for a in args)
        value = None
        if "value" in item:
            value = mat4_from_lists(item["value"])
        nodes.append(CertNode(item.get("op"), args, value))
    cert = Certificate(p=p, nodes=tuple(nodes), root=root, target=target)
    try:
        _validate_structure(cert)
    except MalformedDag as exc:
        raise ParseError(str(exc)) from exc
    return cert


def serialize(cert: Certificate) -> str:
    return json.dumps(certificate_to_json_obj(cert), indent=1)


def parse(text: str | bytes) -> Certificate:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at offset {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # a number past the int/str conversion limit
        raise ParseError(str(exc)) from exc
    return certificate_from_json_obj(obj)
