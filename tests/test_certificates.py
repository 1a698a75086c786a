import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sp4cert

from support import random_tamper

from sp4cert.certificates import (
    CONJ,
    INV,
    MUL,
    SEED_M0,
    SEED_P2,
    CertBuilder,
    Certificate,
    CertNode,
    build_generator_certs,
    cert_verify,
    certificate_from_json_obj,
    certificate_to_json_obj,
    evaluate,
    expand_j1,
    expand_j2,
    normal_closure_witness,
    parse,
    serialize,
)
from sp4cert.errors import MalformedDag, NotInGroup, NotUnimodular, ParseError
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, j1_embed, j2_embed, member
from sp4cert.matrices import Mat2, Mat4, ext_gcd
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
    bumped = Mat4.from_rows(
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
    assert any(not n.value.is_integral() for n in conj_nodes)


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
    obj = certificate_to_json_obj(build_generator_certs(3)["M2"])
    obj["nodes"][0] = {"id": 0, "op": "mul", "args": [1, 2]}
    with pytest.raises(ParseError):
        certificate_from_json_obj(obj)


@pytest.mark.parametrize("bad", [lambda x: x + 0.9, lambda x: True, str])
@pytest.mark.parametrize("path", [["p"], ["root"], ["nodes", 1, "id"], ["nodes", 1, "args", 0]])
def test_parse_accepts_only_json_integers(path, bad):
    obj = certificate_to_json_obj(build_generator_certs(3)["M2"])
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = bad(holder[path[-1]])
    with pytest.raises(ParseError, match="must be an integer"):
        certificate_from_json_obj(obj)


def test_parse_rejects_unreduced_entries():
    obj = certificate_to_json_obj(seed_only_cert())
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
