import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sp4cert

from support import (
    ReferenceMat4,
    evaluate,
    hostile_chain,
    is_integral,
    random_tamper,
    reference_bit_budget,
    reference_certificate,
)

from sp4cert.certificates import (
    CONJ,
    INV,
    MUL,
    SEED_M0,
    SEED_P2,
    CertBuilder,
    Certificate,
    CertNode,
    CheckResult,
    _CORE_TEMPLATES,
    _SHAPE,
    _bit_budget,
    _core_chain,
    _core_nodes,
    _core_template,
    _j1_chain,
    build_generator_certs,
    cert_verify,
    certificate_from_json_obj,
    expand_j1,
    expand_j2,
    normal_closure_witness,
    parse,
    serialize,
)
from sp4cert.errors import (
    MalformedDag,
    NotInGroup,
    NotUnimodular,
    ParseError,
    ShapeAssertionFailed,
)
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, j1_embed, j2_embed, member
from sp4cert.matrices import Mat2, Mat4, ext_gcd, mat4_from_lists, mat4_to_lists
from sp4cert.sampling import SampleSpec, sample
from sp4cert.sl2 import S, T, U


def seed_only_cert(p=3):
    return Certificate(
        p=p,
        nodes=(CertNode(SEED_M0),),
        root=0,
        target=generator("M0", p),
    )


# --- cert_verify -----------------------------------------------------------


def test_single_seed_verifies():
    report = cert_verify(seed_only_cert())
    assert report.passed
    assert report.node_count == 1


def test_m2_chain_verifies():
    cert = build_generator_certs(3)["M2"]
    assert cert.target == generator("M2", 3)
    assert cert_verify(cert).passed


def test_tampered_target_fails_with_replay_locus():
    cert = build_generator_certs(3)["M2"]
    bumped = Mat4(
        [
            [x + (1 if (i, j) == (0, 1) else 0) for j, x in enumerate(row)]
            for i, row in enumerate(cert.target.rows)
        ]
    )
    report = cert_verify(
        Certificate(cert.p, cert.nodes, cert.root, bumped)
    )
    assert not report.passed
    assert "replay" in report.failure_locus
    assert any(c.kind == "replay" and not c.ok for c in report.checks)


def test_bad_seed_reported():
    p = 3
    cert = Certificate(
        p=p,
        nodes=(CertNode(SEED_P2, (), generator("M0", p)),),
        root=0,
        target=generator("M0", p),
    )
    report = cert_verify(cert)
    assert not report.passed
    assert "seed" in report.failure_locus


def test_bad_conjugator_reported():
    p = 3
    bad_conj = Mat4.diagonal(2, 1, 1, 1)
    cert = Certificate(
        p=p,
        nodes=(
            CertNode(SEED_M0),
            CertNode(CONJ, (0,), bad_conj),
        ),
        root=1,
        target=generator("M0", p),
    )
    report = cert_verify(cert)
    assert not report.passed
    assert "conjugator" in report.failure_locus


def test_verification_stops_at_first_failed_conjugator():
    p = 7
    cert = normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 3, 3)), p)
    conj_ids = [i for i, node in enumerate(cert.nodes) if node.op == CONJ]
    i = conj_ids[len(conj_ids) // 2]
    nodes = list(cert.nodes)
    nodes[i] = CertNode(CONJ, nodes[i].args, nodes[i].value * Mat4.diagonal(2, 1, 1, 1))
    report = cert_verify(Certificate(p, tuple(nodes), cert.root, cert.target))
    assert not report.passed
    assert report.failure_locus == f"conjugator node {i}"
    last = report.checks[-1]
    assert (last.kind, last.node, last.ok) == ("conjugator", i, False)
    assert all(c.ok and c.node < i for c in report.checks[:-1])
    assert report.lines()[-1] == f"FAIL (conjugator node {i})"


@pytest.mark.parametrize("op", [SEED_P2, CONJ])
def test_failed_check_replays_nothing(monkeypatch, op):
    p = 7
    cert = normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 3, 3)), p)
    nodes = list(cert.nodes)
    i = max(j for j, node in enumerate(nodes) if node.op == op)
    assert any(node.op in (MUL, INV) for node in nodes[:i])  # a replay to i would multiply
    nodes[i] = CertNode(op, nodes[i].args, nodes[i].value * Mat4.diagonal(2, 1, 1, 1))
    for name in ("__mul__", "inv"):
        monkeypatch.setattr(Mat4, name, lambda *a: pytest.fail("product after a failed check"))
    report = cert_verify(Certificate(p, tuple(nodes), cert.root, cert.target))
    kind = "seed" if op == SEED_P2 else "conjugator"
    assert report.failure_locus == f"{kind} node {i}"
    assert not report.checks[-1].ok and report.checks[-1].node == i


def test_hostile_mul_chain_is_refused_quickly():
    start = time.perf_counter()
    report = cert_verify(hostile_chain())
    assert time.perf_counter() - start < 0.1
    last = report.checks[-1]
    assert not report.passed and (last.kind, last.ok) == ("resource", False)
    # the literal widest entry is 82 (7 bits), so the budget is 4 * 7 + 64;
    # node 4 is the fifth squaring, whose entries first pass 92 bits
    assert last.detail == "value wider than the 92-bit budget"
    assert report.failure_locus == f"resource node {last.node}" == "resource node 4"


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("witness_*.json")), ids=lambda p: p.name)
def test_bit_budget_of_golden_certificates_matches_the_reference(path):
    cert = parse(path.read_text())
    for m in (cert.target, *(node.value for node in cert.nodes if node.value is not None)):
        assert m.entry_bits() == ReferenceMat4.of(m).entry_bits()
    assert _bit_budget(cert) == reference_bit_budget(cert)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bit_budget_with_d_p_and_entries_sharing_p(p):
    # the pair of the target has d = p, and its numerators p^2 and
    # 2 p^3 share factors with p; the widest reduced entry is 2 p^2
    target = Mat4([[1, 0, 0, 0], [0, 1, 0, 2 * p**2], [0, 0, 1, 0], [0, Fraction(1, p), 0, 1]])
    conj = j2_embed(Mat2.of(1 + p, p, -p, 1 - p), p) * Mat4.diagonal(p, 1, 1, 1)
    cert = Certificate(p, (CertNode(SEED_M0), CertNode(CONJ, (0,), conj)), 1, target)
    assert target.scaled()[0] == p and conj.scaled()[0] in (1, p)
    assert _bit_budget(cert) == reference_bit_budget(cert)
    assert target.entry_bits() == ReferenceMat4.of(target).entry_bits() == (2 * p**2).bit_length()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_corpus_conj_tamper_fails_before_replay(monkeypatch, p):
    # the verify workload's conj tamper, through the text: one conjugator
    # times diag(2,1,1,1), which is not symplectic; no product may follow
    for length in range(3, 9):
        k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 40 + length, length))
        obj = json.loads(serialize(normal_closure_witness(k, p)))
        picks = [i for i, node in enumerate(obj["nodes"]) if node["op"] == CONJ]
        i = picks[length % len(picks)]
        value = mat4_from_lists(obj["nodes"][i]["value"]) * Mat4.diagonal(2, 1, 1, 1)
        obj["nodes"][i]["value"] = mat4_to_lists(value)
        tampered = parse(json.dumps(obj))
        with monkeypatch.context() as patch:
            for name in ("__mul__", "inv"):
                patch.setattr(Mat4, name, lambda *a: pytest.fail("product after a failed check"))
            report = cert_verify(tampered)
        assert not report.passed and report.failure_locus == f"conjugator node {i}"
        assert report.checks[-1] == CheckResult("conjugator", i, False, "conjugator not in gamma0_1p")


def test_hostile_conj_chain_is_refused():
    p = 3
    g = j1_embed(Mat2.of(82, 9, 9, 1))
    nodes = (CertNode(SEED_M0),) + tuple(CertNode(CONJ, (i,), g) for i in range(30))
    report = cert_verify(Certificate(p, nodes, 30, generator("M0", p)))
    last = report.checks[-1]
    assert (last.kind, last.ok) == ("resource", False)
    assert nodes[last.node].op == CONJ and not report.passed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_evaluate_matches_the_builder_values(monkeypatch, p):
    builders = []
    monkeypatch.setattr(CertBuilder, "certificate", lambda b, *args, **kw: builders.append(b))
    for i in range(4):
        normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 8100 + i, 4 + i)), p)
    assert len(builders) == 4
    for b in builders:
        whole = Certificate(p, tuple(b.nodes), len(b.nodes) - 1, b.values[-1])
        assert evaluate(whole) == b.values


def test_malformed_dag_rejected():
    p = 3
    with pytest.raises(MalformedDag):
        cert_verify(
            Certificate(
                p=p,
                nodes=(CertNode(MUL, (0, 1)),),  # forward/self reference
                root=0,
                target=Mat4.identity(),
            )
        )
    with pytest.raises(MalformedDag):
        cert_verify(
            Certificate(
                p=p,
                nodes=(CertNode(SEED_M0), CertNode(INV, ())),
                root=1,
                target=Mat4.identity(),
            )
        )


def test_structure_is_checked_once_when_a_certificate_is_built(monkeypatch):
    # a library caller gets MalformedDag from the constructor, and parse
    # turns the same message into a ParseError
    one = mat4_to_lists(Mat4.identity())
    bad = {"p": 3, "nodes": [{"id": 0, "op": "seed_m0", "args": []},
                             {"id": 1, "op": "inv", "args": [1]}], "root": 1, "target": one}
    with pytest.raises(MalformedDag) as built:
        Certificate(3, (CertNode(SEED_M0), CertNode(INV, (1,))), 1, Mat4.identity())
    with pytest.raises(ParseError) as parsed:
        parse(json.dumps(bad))
    assert str(parsed.value) == str(built.value) == "node 1: args (1,) not all earlier"
    cert = normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 7, 4)), 3)
    calls = []
    real = Certificate.__post_init__
    monkeypatch.setattr(Certificate, "__post_init__", lambda self: calls.append(1) or real(self))
    assert cert_verify(parse(serialize(cert))).passed
    assert calls == [1]


@pytest.mark.parametrize(
    "p, nodes, root, message",
    [
        (3, (CertNode(SEED_M0), CertNode(INV, (True,))), 1, "node 1: args (True,) not all ints"),
        (3, (CertNode(SEED_M0), CertNode(MUL, (0, 0.0))), 1, "node 1: args (0, 0.0) not all ints"),
        (3, (CertNode(SEED_M0), CertNode(INV, (0,))), True, "root True is not an int"),
        (3, (CertNode(SEED_M0),), "0", "root '0' is not an int"),
        (True, (CertNode(SEED_M0),), 0, "p True is not an int"),
    ],
)
def test_a_certificate_holds_only_ints(p, nodes, root, message):
    # parse refuses the same values first (test_parse_accepts_only_json_integers)
    with pytest.raises(MalformedDag) as built:
        Certificate(p, nodes, root, Mat4.identity())
    assert str(built.value) == message


def test_builder_refuses_a_seed_outside_gamma_p2():
    builder = CertBuilder(3)
    with pytest.raises(NotInGroup, match="seed must lie in gamma_p2"):
        builder.seed_p2(generator("M0", 3))
    assert builder.nodes == []


def test_builder_refuses_a_conjugator_outside_gamma0_1p():
    builder = CertBuilder(3)
    a = builder.seed_m0()
    for g in (generator("Mt2", 3), Mat4.diagonal(2, 1, 1, 1)):
        with pytest.raises(NotInGroup, match="conjugator must lie in gamma0_1p"):
            builder.conj(a, g)
    assert len(builder.nodes) == 1


# --- build_generator_certs -------------------------------------------------


@pytest.mark.parametrize("p", [3, 7])
def test_generator_table_verifies(p):
    table = build_generator_certs(p)
    assert set(table) == {"M2", "L2", "L4", "M3", "M4", "M1"}
    for name, cert in table.items():
        assert cert.target == generator(name, p), name
        assert cert_verify(cert).passed, name


def test_m1_embeds_m3_chain():
    table = build_generator_certs(3)
    assert table["M1"].node_count >= table["M3"].node_count


def test_l4_uses_bezout_exponents():
    p = 7
    g, lam, mu = ext_gcd(-2, p * p)
    assert g == 1 and -2 * lam + p * p * mu == 1
    l2, l3 = generator("L2", p), generator("L3", p)
    assert l2 ** lam * l3 ** mu == generator("L4", p)
    assert cert_verify(build_generator_certs(p)["L4"]).passed


def test_seed_discipline():
    # leaves of every generator certificate: seed_m0 or level-p^2 matrices
    p = 5
    for cert in build_generator_certs(p).values():
        for node in cert.nodes:
            if node.op == SEED_M0:
                continue
            if node.op == SEED_P2:
                assert member(node.value, GroupLabel.GAMMA_P2, p)
            else:
                assert node.args  # internal nodes consume earlier ones


def test_conjugator_discipline():
    p = 5
    for cert in build_generator_certs(p).values():
        for node in cert.nodes:
            if node.op == CONJ:
                assert member(node.value, GroupLabel.GAMMA0_1P, p)


# --- extraction: one liveness pass, one renumbering pass -----------------

# builder calls: (op, node pick, extra); a node pick is reduced mod the
# number of nodes so far, the extra names a seed (in gamma_p2), a
# conjugator (in gamma0_1p) or a power's exponent
DAG_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("seed_m0"), st.just(0), st.just(None)),
        st.tuples(st.just("seed_p2"), st.just(0), st.sampled_from(("L1", "L3"))),
        st.tuples(st.just("mul"), st.integers(0, 99), st.integers(0, 99)),
        st.tuples(st.just("inv"), st.integers(0, 99), st.just(None)),
        st.tuples(st.just("conj"), st.integers(0, 99), st.sampled_from(("M1", "M3", "L5"))),
        st.tuples(st.just("power"), st.integers(0, 99), st.integers(-60, 60)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 7)), DAG_CALLS)
def test_extraction_matches_the_reference_for_every_root(p, calls):
    b = CertBuilder(p)
    for op, pick, extra in calls:
        a = pick % len(b.nodes) if b.nodes else b.seed_m0()
        if op == "seed_m0":
            b.seed_m0()
        elif op == "seed_p2":
            b.seed_p2(generator(extra, p))
        elif op == "mul":
            b.mul(a, extra % len(b.nodes))
        elif op == "inv":
            b.inv(a)
        elif op == "conj":
            b.conj(a, generator(extra, p))
        elif b.values[a].entry_bits() <= 64:  # a power of a wide value is slow to form
            b.power(a, extra)
    for root in range(len(b.nodes)):
        assert b.certificate(root) == reference_certificate(b, root)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_builders_extract_as_the_reference(monkeypatch, p):
    q = sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, 6200 + p, 5))
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 6300 + p, 6))

    def outputs():
        return (
            build_generator_certs(p),
            expand_j1(Mat2.of(5, 2, 2, 1), p),
            expand_j2(q, p),
            normal_closure_witness(k, p),
        )

    extracted = outputs()
    monkeypatch.setattr(CertBuilder, "certificate", reference_certificate)
    assert outputs() == extracted


# --- expand_j1 -------------------------------------------------------------


def test_expand_j1_t_is_single_seed():
    cert = expand_j1(T, 3)
    assert cert.node_count == 1
    assert cert.nodes[0].op == SEED_M0
    assert cert.target == generator("M0", 3)


def test_expand_j1_u_structure():
    cert = expand_j1(U, 3)
    ops = [n.op for n in cert.nodes]
    assert ops == [SEED_M0, INV, CONJ]
    assert cert.nodes[2].value == j1_embed(S)
    assert cert_verify(cert).passed


def test_expand_j1_generic():
    a = Mat2.of(2, 1, 1, 1)
    cert = expand_j1(a, 5)
    assert cert.target == j1_embed(a)
    assert cert_verify(cert).passed


def test_expand_j1_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        expand_j1(Mat2.of(1, 0, 0, 2), 3)


def test_expand_j1_seeds_are_only_m0():
    cert = expand_j1(Mat2.of(5, 2, 2, 1), 7)
    leaf_ops = {n.op for n in cert.nodes if n.op in (SEED_M0, SEED_P2)}
    assert leaf_ops == {SEED_M0}
    assert cert_verify(cert).passed


# --- expand_j2 -------------------------------------------------------------


def test_expand_j2_p_is_l4_chain():
    p = 3
    cert = expand_j2(Mat2.of(1, 0, p, 1), p)
    table = build_generator_certs(p)
    assert cert.nodes == table["L4"].nodes
    assert cert.root == table["L4"].root
    assert cert.target == generator("L4", p)


def test_expand_j2_prime_shear_is_single_seed():
    p = 3
    cert = expand_j2(Mat2.of(1, p, 0, 1), p)
    assert cert.node_count == 1
    assert cert.nodes[0].op == SEED_P2
    assert cert_verify(cert).passed


def test_expand_j2_case_two():
    cert = expand_j2(Mat2.of(4, 3, 9, 7), 3)
    assert cert_verify(cert).passed
    assert cert.target == j2_embed(Mat2.of(4, 3, 9, 7), 3)
    # the case-(2) conjugator is a j2 image with entry (4,2) in (1/p)Z
    conj_nodes = [n for n in cert.nodes if n.op == CONJ]
    assert any(not is_integral(n.value) for n in conj_nodes)


def test_expand_j2_rejects_non_members():
    with pytest.raises(NotInGroup):
        expand_j2(T, 3)


def test_expand_j2_seeded():
    p = 3
    for i in range(40):
        q = sample(SampleSpec(GroupLabel.GAMMA1_OF_P, p, 6100 + i, i % 7))
        cert = expand_j2(q, p)
        assert cert.target == j2_embed(q, p)
        assert cert_verify(cert).passed


# --- normal_closure_witness ------------------------------------------------


def test_witness_m0_is_single_seed():
    cert = normal_closure_witness(generator("M0", 3), 3)
    assert cert.node_count == 1
    assert cert.nodes[0].op == SEED_M0


def test_witness_m2():
    cert = normal_closure_witness(generator("M2", 3), 3)
    assert cert_verify(cert).passed
    assert cert.target == generator("M2", 3)


def test_witness_rejects_non_members():
    with pytest.raises(NotInGroup):
        normal_closure_witness(generator("Mt1", 3), 3)


def test_witness_seeded():
    for p in (3, 5):
        for i in range(12):
            k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 7300 + i, i % 12))
            cert = normal_closure_witness(k, p)
            report = cert_verify(cert)
            assert report.passed, (p, i, report.failure_locus)
            assert cert.target == k


# --- mutation soundness ----------------------------------------------------


def test_single_node_tampers_rejected():
    rng = random.Random(99)
    certs = [
        build_generator_certs(3)["M4"],
        normal_closure_witness(
            sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 555, 6)), 3
        ),
        expand_j2(Mat2.of(4, 3, 9, 7), 3),
    ]
    for cert in certs:
        assert cert_verify(cert).passed
        for _ in range(10):
            tampered = random_tamper(cert, rng)
            assert not cert_verify(tampered).passed


# --- split powers: a power past p^2/2 is a small power times one seed -------

ORACLE_PATH = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _load_oracle():
    """The benchmark's independent verifier; it imports nothing from
    sp4cert, so it is loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()
SPLIT_BASES = ("M0", "L4", "M3", "M0^-1", "L4^-1", "M3^-1")


def _split_base(b: CertBuilder, name: str) -> int:
    """Node for M0, L4 or M3, or the inverse of one (``"L4^-1"``)."""
    core = _core_nodes(b)
    nodes = {"M0": b.seed_m0(), "L4": core["L4"], "M3": core["M3"]}
    idx = nodes[name.removesuffix("^-1")]
    return b.inv(idx) if name.endswith("^-1") else idx


def _seeds_p2(b: CertBuilder, start: int) -> list[Mat4]:
    return [node.value for node in b.nodes[start:] if node.op == SEED_P2]


def _both_verifiers(cert: Certificate) -> tuple[bool, tuple[bool, str]]:
    return cert_verify(cert).passed, ORACLE.cert_verdict(serialize(cert), cert.p)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.sampled_from(SPLIT_BASES),
    st.one_of(st.integers(-(2 ** 256), 2 ** 256), st.integers(-100, 100)),
)
def test_split_power_is_exact_short_and_verifies(p, name, e):
    b = CertBuilder(p)
    a = _split_base(b, name)
    before = len(b.nodes)
    idx = b.power(a, e)
    target = b.values[a] ** e
    assert b.values[idx] == target
    assert len(b.nodes) - before <= 2 * (p * p // 2).bit_length() + 3
    cert = b.certificate(idx)
    assert _both_verifiers(cert) == (True, (True, ""))
    half = p * p // 2
    if abs(e) > half:
        # the p^2-multiple part of the power is one seed (perhaps shared)
        r = (e + half) % (p * p) - half
        seed = b.values[a] ** (e - r)
        assert any(n.op == SEED_P2 and n.value == seed for n in cert.nodes)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_power_of_a_non_unipotent_base_is_binary(p):
    b = CertBuilder(p)
    a = _j1_chain(b, Mat2.of(2, 1, 1, 1))  # trace 3: no power of it is a seed
    for e in (p * p, -(p * p) - 2, 2 * p * p + 1):
        before = len(b.nodes)
        idx = b.power(a, e)
        target = b.values[a] ** e
        assert b.values[idx] == target
        assert not _seeds_p2(b, before)
        assert _both_verifiers(b.certificate(idx)) == (True, (True, ""))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_power_of_a_non_integral_unipotent_base(p):
    # every value formed from the seeds is integral (gamma_1p is normal in
    # gamma0_1p), so the plain j2 image of (1 0; 1 1), whose N has 1/p at
    # entry (4,2), is planted as a leaf that both verifiers refuse
    base = j2_embed(Mat2.of(1, 0, 1, 1), p)
    assert base.scaled()[0] == p
    b = CertBuilder(p)
    a = b._intern(CertNode(SEED_P2, value=base))
    refused = (False, (False, "seed node 0 not in gamma_p2"))
    # q = 1, -1, 2: S = 1 + q p^2 N is off gamma_p2, so the power is binary
    for e in (p * p, -(p * p) - 2, 2 * p * p + 1):
        before = len(b.nodes)
        idx = b.power(a, e)
        assert b.values[idx] == base ** e
        assert not _seeds_p2(b, before)
        cert = b.certificate(idx)
        assert evaluate(cert)[cert.root] == base ** e
        assert _both_verifiers(cert) == refused
    # q = p: S = 1 + p^3 N lies in gamma_p2, and the split takes it
    before = len(b.nodes)
    idx = b.power(a, p ** 3 + 1)
    assert _seeds_p2(b, before) == [base ** p ** 3]
    assert b.values[idx] == base ** (p ** 3 + 1)


def test_each_split_literal_is_tested_once(monkeypatch):
    certificates = importlib.import_module("sp4cert.certificates")
    tested = []

    def counting_member(m, label, p):
        tested.append((m, label))
        return member(m, label, p)

    monkeypatch.setattr(certificates, "member", counting_member)
    b = CertBuilder(5)
    m0 = b.seed_m0()
    for e in (100, 100, 101, -100, 1000, 3):
        b.power(m0, e)
    b.identity()
    b.identity()
    # conjugators share the memo: j1(S), as each U-letter uses it, and M1
    for e in (1, 2, 1, -3):
        b.conj(b.power(m0, e), j1_embed(S))
    for a in (m0, m0, b.inv(m0)):
        b.conj(a, generator("M1", 5))
    assert len(tested) == len(set(tested)) == 6
    assert [m for m, label in tested if label is GroupLabel.GAMMA_P2] == _seeds_p2(b, 0)
    assert len(_seeds_p2(b, 0)) == 4
    conjugators = [m for m, label in tested if label is GroupLabel.GAMMA0_1P]
    assert conjugators == [j1_embed(S), generator("M1", 5)]


def test_a_witness_tests_each_literal_once(monkeypatch):
    certificates = importlib.import_module("sp4cert.certificates")
    p, k = 5, sample(SampleSpec(GroupLabel.GAMMA_1P, 5, 2, 10))
    _core_template(p)  # built already, so the witness's builder is the only one
    tested = []
    monkeypatch.setattr(certificates, "member", lambda m, label, q: tested.append((m, label)) or member(m, label, q))
    cert = normal_closure_witness(k, p)
    assert sum(node.op == CONJ and node.value == j1_embed(S) for node in cert.nodes) == 5
    assert tested.count((j1_embed(S), GroupLabel.GAMMA0_1P)) == 1
    assert len(tested) == len(set(tested))


def test_witness_takes_a_large_named_exponent_as_a_seed():
    # the M2^55 letter of this p = 7 word is M2^6 times one seed
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, 7, 3, 8))
    cert = normal_closure_witness(k, 7)
    assert _both_verifiers(cert) == (True, (True, ""))
    assert any(node.op == SEED_P2 and node.value == generator("M2", 7) ** 49
               for node in cert.nodes)


# --- differential: cert_verify against the benchmark's oracle -------------


def _program_verdict(text: str) -> tuple[bool, str]:
    """``(passed, failure locus)`` of ``parse`` + ``cert_verify``; a
    :class:`ParseError` is a refusal with the locus ``"parse"``."""
    try:
        report = cert_verify(parse(text))
    except ParseError:
        return False, "parse"
    return report.passed, report.failure_locus


def _bump(rows: list[list[str]], data) -> None:
    """Add +-1 to one entry of an interchange matrix, in place."""
    i, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    rows[i][j] = str(Fraction(rows[i][j]) + data.draw(st.sampled_from((-1, 1))))


def _mutate(obj: dict, kind: str, data) -> None:
    """One single-node mutation of the certificate JSON ``obj``, in place.
    An op swap keeps the node's args and literal where the new op has
    room for them, pads args with the previous node and gives a new
    literal the identity; without a node of the kind asked for, ``obj``
    stays genuine."""
    nodes = obj["nodes"]
    if kind == "op":
        i = data.draw(st.integers(0, len(nodes) - 1))
        node = nodes[i]
        op = data.draw(st.sampled_from([op for op in _SHAPE if op != node["op"]]))
        arity, literal = _SHAPE[op]
        node["op"], node["args"] = op, (node["args"] + [i - 1, i - 1])[:arity]
        if literal is None:
            node.pop("value", None)
        else:
            node.setdefault("value", mat4_to_lists(Mat4.identity()))
    elif kind == "arg":
        picks = [i for i, node in enumerate(nodes) if node["args"]]
        if picks:
            i = data.draw(st.sampled_from(picks))
            slot = data.draw(st.integers(0, len(nodes[i]["args"]) - 1))
            nodes[i]["args"][slot] = data.draw(st.integers(0, i - 1))
    elif kind == "literal":
        picks = [i for i, node in enumerate(nodes) if "value" in node]
        if picks:
            _bump(nodes[data.draw(st.sampled_from(picks))]["value"], data)
    elif kind == "root":
        obj["root"] = data.draw(st.integers(0, len(nodes) - 1))
    else:  # target
        _bump(obj["target"], data)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.integers(0, 10**6),
    st.integers(0, 4),
    st.sampled_from(("op", "arg", "literal", "root", "target")),
    st.data(),
)
def test_cert_verify_agrees_with_the_oracle(p, seed, length, kind, data):
    text = serialize(normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, seed, length)), p))
    assert _program_verdict(text) == ORACLE.cert_verdict(text, p) == (True, "")
    obj = json.loads(text)
    _mutate(obj, kind, data)
    mutant = json.dumps(obj)
    (passed, locus), (oracle_passed, why) = _program_verdict(mutant), ORACLE.cert_verdict(mutant, p)
    assert passed == oracle_passed, (locus, why)
    if " not in " in why and locus != "parse":  # the same first failed literal
        assert locus == why.split(" not in ")[0]


# --- the core template: built and checked once per p ----------------------

CORE_NAMES = ("M2", "L2", "L4", "M3", "M4", "L5", "M1")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_core_template_interns_as_building_it_in_place(p):
    # the j1 chain and M0^-2 already hold seed_m0, M0^-1, M0^-2 and L5
    def prefixed() -> CertBuilder:
        b = CertBuilder(p)
        _j1_chain(b, Mat2.of(-7, 3, 2, -1))
        b.power(b.seed_m0(), -2)
        return b

    built, interned = prefixed(), prefixed()
    before = len(built.nodes)
    names = _core_chain(built)
    assert _core_nodes(interned) == names
    assert interned.nodes == built.nodes and interned.values == built.values
    assert len(built.nodes) - before < len(_core_template(p)[0])


def test_core_chain_is_checked_once_per_p(monkeypatch):
    certificates = importlib.import_module("sp4cert.certificates")
    real = certificates._require_value
    checked = []

    def spy(b, idx, expected, what):
        checked.append((b.p, what))
        real(b, idx, expected, what)

    _core_template.cache_clear()
    monkeypatch.setattr(certificates, "_require_value", spy)
    for p in (3, 5):
        for i in range(5):
            normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 900 + i, 8)), p)
        build_generator_certs(p)
        expand_j2(Mat2.of(1, 0, p, 1), p)
    assert [c for c in checked if c[1] in CORE_NAMES] == [(p, name) for p in (3, 5) for name in CORE_NAMES]
    assert checked.count((3, "witness")) == checked.count((5, "witness")) == 5


def test_core_template_cache_is_bounded_by_its_constant():
    _core_template.cache_clear()
    assert _core_template.cache_info().maxsize == _CORE_TEMPLATES
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in primes:
        assert cert_verify(build_generator_certs(p)["M1"]).passed
    assert _core_template.cache_info().currsize == _CORE_TEMPLATES < len(primes)


def test_a_failed_core_check_caches_nothing(monkeypatch):
    # the "core" fault of the python -O test: M2 is checked against M3
    certificates = importlib.import_module("sp4cert.certificates")
    real = certificates.generator
    k = generator("M2", 3)  # its word is the one letter M2, so it needs the core
    _core_template.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(certificates, "generator", lambda name, q: real("M3" if name == "M2" else name, q))
        with pytest.raises(ShapeAssertionFailed, match="the M2 chain"):
            normal_closure_witness(k, 3)
    assert _core_template.cache_info().currsize == 0
    assert cert_verify(normal_closure_witness(k, 3)).passed


# --- serialisation ---------------------------------------------------------


def test_serialize_round_trip_trivial():
    cert = seed_only_cert()
    assert parse(serialize(cert)) == cert


def test_serialize_round_trip_m2():
    cert = build_generator_certs(3)["M2"]
    again = parse(serialize(cert))
    assert again == cert
    assert cert_verify(again).passed


def test_serialize_bit_exact():
    cert = build_generator_certs(5)["M1"]
    text = serialize(cert)
    assert serialize(parse(text)) == text


def test_parse_rejects_truncated():
    text = serialize(seed_only_cert())
    with pytest.raises(ParseError):
        parse(text[: len(text) // 2])


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        certificate_from_json_obj({"p": 3, "nodes": []})


def test_parse_rejects_forward_reference():
    obj = json.loads(serialize(build_generator_certs(3)["M2"]))
    obj["nodes"][0] = {"id": 0, "op": "mul", "args": [1, 2]}
    with pytest.raises(ParseError):
        certificate_from_json_obj(obj)


@pytest.mark.parametrize("bad", [lambda x: x + 0.9, lambda x: True, str])
@pytest.mark.parametrize("path", [["p"], ["root"], ["nodes", 1, "id"], ["nodes", 1, "args", 0]])
def test_parse_accepts_only_json_integers(path, bad):
    obj = json.loads(serialize(build_generator_certs(3)["M2"]))
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = bad(holder[path[-1]])
    with pytest.raises(ParseError, match="must be an integer"):
        certificate_from_json_obj(obj)


@pytest.mark.parametrize(
    "text", ["[" * 200_000, b'{"p": "\xff"}', "7" * 5001, "{not json", b"\x00"]
)
def test_parse_maps_every_json_refusal_to_a_parse_error(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_rejects_unreduced_entries():
    obj = json.loads(serialize(seed_only_cert()))
    obj["target"][0][0] = "2/4"
    with pytest.raises(ParseError):
        certificate_from_json_obj(obj)


# --- checks that python -O keeps -------------------------------------------


def test_chain_checks_survive_python_optimise_flag():
    # each case feeds one check a wrong value; only an explicit raise sees it
    script = textwrap.dedent("""
        import dataclasses
        import importlib

        from sp4cert.errors import ShapeAssertionFailed
        from sp4cert.matrices import Mat2

        assert False, "python -O was expected to strip this"
        certs = importlib.import_module("sp4cert.certificates")
        groups = importlib.import_module("sp4cert.groups")
        sl2 = importlib.import_module("sp4cert.sl2")
        p, a = 3, Mat2.of(2, 1, 1, 1)
        P = Mat2.of(1, 0, p, 1)
        real = {name: getattr(mod, name) for mod, name in (
            (certs, "generator"), (certs, "sl2_decompose"), (certs, "gamma1p_generate"),
            (certs, "_j1_chain"), (sl2, "_push"), (sl2, "sl2_decompose"),
            (sl2, "MultiplyLeftP"), (groups, "ext_gcd"),
        )}

        def ext_gcd_off(x, y):
            g, s, t = real["ext_gcd"](x, y)
            return g, s + 1, t

        @dataclasses.dataclass(frozen=True)
        class PowerOffByOne(real["MultiplyLeftP"]):
            def __post_init__(self):
                object.__setattr__(self, "exponent", self.exponent + 1)

        cases = {
            "core": (certs, "generator",
                     lambda name, q: real["generator"]("M3" if name == "M2" else name, q),
                     lambda: certs.build_generator_certs(p)),
            "j1": (certs, "sl2_decompose", lambda m: real["sl2_decompose"](m * sl2.T),
                   lambda: certs.expand_j1(a, p)),
            "j2": (certs, "gamma1p_generate", lambda q, r: real["gamma1p_generate"](P * q, r),
                   lambda: certs.expand_j2(P, p)),
            "witness": (certs, "_j1_chain", lambda b, m: real["_j1_chain"](b, m * sl2.T),
                        lambda: certs.normal_closure_witness(certs.generator("M0", p), p)),
            "sl2": (sl2, "_push", lambda letters, name, exp: real["_push"](letters, name, exp + 1),
                    lambda: sl2.sl2_decompose(a)),
            "conjugates": (sl2, "sl2_decompose", lambda m: real["sl2_decompose"](m * sl2.T),
                           lambda: sl2.normal_closure_decompose(a)),
            "gamma1p": (sl2, "MultiplyLeftP", PowerOffByOne, lambda: sl2.gamma1p_generate(P, p)),
            "short": (groups, "ext_gcd", ext_gcd_off,
                      lambda: groups.short_witness((2, 0, 3, 0), p)),
        }
        for label, (mod, name, wrong, call) in cases.items():
            setattr(mod, name, wrong)
            try:
                call()
            except ShapeAssertionFailed:
                print("rejected", label)
            finally:
                setattr(mod, name, real[name])
        """)
    src = str(Path(sp4cert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    labels = ["core", "j1", "j2", "witness", "sl2", "conjugates", "gamma1p", "short"]
    assert done.stdout.split() == [w for label in labels for w in ("rejected", label)]
