import functools
import importlib
import importlib.util
import json
import math
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
    wide_member,
)

from sp4cert.certificates import (
    CONJ,
    INV,
    MUL,
    SEED_M0,
    SEED_P2,
    _BUDGET_SCALE,
    _BUDGET_SLACK,
    CertBuilder,
    Certificate,
    CertNode,
    CheckResult,
    _CORE_TEMPLATES,
    _SHAPE,
    _bit_budget,
    _core_builder,
    _core_chain,
    _core_template,
    build_generator_certs,
    cert_verify,
    certificate_from_json_obj,
    expand_j1,
    expand_j2,
    normal_closure_witness,
    parse,
    serialize,
    verify_identities,
)
from sp4cert.cli import main
from sp4cert.decompose import J1, J2, GeneratorWord, Named, decompose
from sp4cert.errors import (
    MalformedDag,
    NotInGroup,
    NotUnimodular,
    ParseError,
    ShapeAssertionFailed,
)
from sp4cert.generators import _ENTRIES, generator
from sp4cert.groups import GroupLabel, j1_embed, j2_embed, member
from sp4cert.matrices import Mat2, Mat4, ext_gcd, load_json, mat4_from_lists, mat4_to_lists
from sp4cert.sampling import SampleSpec, sample
from sp4cert.sl2 import S, T, U


def _literals(cert: Certificate) -> list[Mat4]:
    """The seed and conjugator matrices of ``cert``, in node order."""
    return [node.value for node in cert.nodes if node.value is not None]


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
    assert type(report.checks) is tuple


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


@pytest.mark.parametrize("op", [SEED_P2, CONJ, SEED_M0])
def test_failed_check_replays_nothing(monkeypatch, op):
    # a seed_p2 or conjugator times diag(2,1,1,1), or a seed_m0 made a
    # seed_p2 holding M0; replay, which inverts by the transpose, never
    # starts, and no width is measured for the budget
    p = 7
    cert = normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 3, 3)), p)
    nodes = list(cert.nodes)
    i = max(j for j, node in enumerate(nodes) if node.op == op)
    if op == SEED_M0:
        assert i == 0 and nodes[1].op == INV  # a replay would invert next
        nodes[i] = CertNode(SEED_P2, (), generator("M0", p))
    else:
        assert any(node.op in (MUL, INV) for node in nodes[:i])  # a replay to i would multiply
        nodes[i] = CertNode(op, nodes[i].args, nodes[i].value * Mat4.diagonal(2, 1, 1, 1))
    for name in ("__mul__", "inv", "symplectic_inv", "times_shears", "times_j_block", "entry_bits"):
        monkeypatch.setattr(Mat4, name, lambda *a: pytest.fail("a product or width after a failed check"))
    report = cert_verify(Certificate(p, tuple(nodes), cert.root, cert.target))
    kind = "conjugator" if op == CONJ else "seed"
    assert report.failure_locus == f"{kind} node {i}"
    assert not report.checks[-1].ok and report.checks[-1].node == i


def test_hostile_mul_chain_is_refused_quickly():
    start = time.perf_counter()
    report = cert_verify(hostile_chain())
    assert time.perf_counter() - start < 0.1
    assert type(report.checks) is tuple
    last = report.checks[-1]
    assert not report.passed and (last.kind, last.ok) == ("resource", False)
    # the literal widest entry is 82 (7 bits), so the budget is 4 * 7 + 64;
    # node 4 is the fifth squaring, whose entries first pass 92 bits
    assert last.detail == "value wider than the 92-bit budget"
    assert report.failure_locus == f"resource node {last.node}" == "resource node 4"


@pytest.mark.parametrize("c, over", [(3, 0), (7, 1)])
def test_a_value_at_the_bit_budget_passes_and_one_bit_more_fails(c, over):
    # X = j1 of ((1, x), (0, 1)) and Y = j1 of ((1, 0), (c x, 1)), both in
    # gamma_p2; node 4 is (XY)^4, 176 bits for c = 3 and 181 for c = 7.
    # A filler seed of L bits sets the budget to 4 L + 64: exactly the
    # width of node 4, or one bit less
    x = 9 * 2**18
    X, Y = j1_embed(Mat2.of(1, x, 0, 1)), j1_embed(Mat2.of(1, 0, c * x, 1))
    widest = ((X * Y) * (X * Y) * (X * Y) * (X * Y)).entry_bits()
    assert (widest - over - _BUDGET_SLACK) % _BUDGET_SCALE == 0
    filler = j1_embed(Mat2.of(1, 9 * 2 ** ((widest - over - _BUDGET_SLACK) // _BUDGET_SCALE - 4), 0, 1))
    nodes = (CertNode(SEED_P2, (), X), CertNode(SEED_P2, (), Y), CertNode(MUL, (0, 1)),
             CertNode(MUL, (2, 2)), CertNode(MUL, (3, 3)), CertNode(SEED_P2, (), filler))
    cert = Certificate(3, nodes, 5, filler)
    assert _bit_budget(cert.target, _literals(cert)) == widest - over
    report = cert_verify(cert)
    assert report.passed == (not over)
    if over:
        assert report.failure_locus == "resource node 4"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_target_tamper_replays_with_exact_transpose_inverses(monkeypatch, p):
    # the target times M0: every literal passes, so replay runs to the root,
    # and each transpose inverse it takes equals the adjugate
    cert = normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 5, 6)), p)
    transpose, calls = Mat4.symplectic_inv, []

    def checked(m):
        inverse = transpose(m)
        assert inverse == m.inv()
        calls.append(m)
        return inverse

    monkeypatch.setattr(Mat4, "symplectic_inv", checked)
    report = cert_verify(Certificate(p, cert.nodes, cert.root, cert.target * generator("M0", p)))
    assert not report.passed and report.failure_locus == f"replay mismatch at root {cert.root}"
    assert calls


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_transpose_inverse_is_the_adjugate_on_every_golden_value():
    # every literal and every replayed value of the golden certificates,
    # among them the j2 conjugators with d = p at p = 3, 5 and 7
    with_d_p = set()
    for path in sorted(GOLDEN.glob("witness_*.json")) + sorted(GOLDEN.glob("generators_p*.json")):
        obj = json.loads(path.read_text())
        for cert in map(certificate_from_json_obj, obj.values() if "M2" in obj else [obj]):
            values = evaluate(cert)
            assert values[cert.root] == cert.target
            for m in (*values, *_literals(cert)):
                assert m.symplectic_inv() == m.inv(), path.name
                if m.scaled()[0] == cert.p:
                    with_d_p.add(cert.p)
    assert with_d_p == {3, 5, 7}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("witness_*.json")), ids=lambda p: p.name)
def test_bit_budget_of_golden_certificates_matches_the_reference(path):
    cert = parse(path.read_text())
    for m in (cert.target, *_literals(cert)):
        assert m.entry_bits() == ReferenceMat4.of(m).entry_bits()
    assert _bit_budget(cert.target, _literals(cert)) == reference_bit_budget(cert)


def _exact_nodes(cert: Certificate) -> bool:
    """Every node is exactly a ``CertNode`` whose args are a tuple of ints."""
    return all(type(n) is CertNode and type(n.args) is tuple and all(type(a) is int for a in n.args)
               for n in cert.nodes)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("witness_*.json")), ids=lambda p: p.name)
def test_every_node_of_a_golden_witness_is_exactly_a_cert_node(path):
    # parsing builds each node; the witness builder interns, copies the
    # core template and renumbers them
    cert = parse(path.read_text())
    built = normal_closure_witness(cert.target, cert.p)
    assert _exact_nodes(cert) and _exact_nodes(built)
    assert built == cert


@pytest.mark.parametrize("p", [3, 7])
def test_every_renumbered_or_copied_node_is_exactly_a_cert_node(p):
    certs = build_generator_certs(p)
    assert any(cert.node_count < len(_core_template(p)[0]) for cert in certs.values())  # renumbered
    b, _ = _core_builder(p)
    copied = Certificate(p, tuple(b.nodes), len(b.nodes) - 1, evaluate(b)[-1])
    for cert in (*certs.values(), copied, expand_j1(Mat2.of(2, 1, 1, 1), p),
                 expand_j2(Mat2.of(1 + p, p, -p, 1 - p), p)):
        assert _exact_nodes(cert)
        assert cert_verify(cert).passed


class _Op(str):
    """A ``str`` subclass: an op is read by the name it spells."""


class _JsonObject(dict):
    """A ``dict`` subclass, as an ``object_hook`` of ``json.loads`` may give."""


class _JsonArray(list):
    """A ``list`` subclass."""


class _Literal(Mat4):
    """A ``Mat4`` subclass."""

    __slots__ = ()


def test_subclassed_ops_nodes_args_and_literals_keep_their_verdict():
    # the exact-type tests are shortcuts: each subclass takes the
    # isinstance test behind it, as before
    text = (GOLDEN / "witness_p5_len3.json").read_text()
    cert, obj = parse(text), json.loads(text)
    obj["nodes"] = [_JsonObject(node, args=_JsonArray(node["args"])) for node in obj["nodes"]]
    assert certificate_from_json_obj(obj) == cert
    nodes = tuple(CertNode(_Op(n.op), n.args, n.value and _Literal(n.value.rows)) for n in cert.nodes)
    assert sum(type(n.value) is _Literal for n in nodes) >= 2
    again = Certificate(cert.p, nodes, cert.root, cert.target)
    assert again == cert and serialize(again) == serialize(cert)
    assert cert_verify(again).lines() == cert_verify(cert).lines()


def test_check_result_is_a_tuple_with_the_old_fields():
    assert issubclass(CheckResult, tuple)
    assert CheckResult._fields == ("kind", "node", "ok", "detail")
    check = CheckResult("seed", 3, True)
    assert check == CheckResult("seed", 3, True, "") == ("seed", 3, True, "")
    assert (check.kind, check.node, check.ok, check.detail) == ("seed", 3, True, "")
    with pytest.raises(AttributeError):
        check.ok = False
    report = cert_verify(parse((GOLDEN / "witness_p5_len3.json").read_text()))
    assert report.passed and all(type(c) is CheckResult for c in report.checks)
    assert report.checks[-1] == CheckResult("replay", report.checks[-1].node, True)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bit_budget_with_d_p_and_entries_sharing_p(p):
    # the pair of the target has d = p, and its numerators p^2 and
    # 2 p^3 share factors with p; the widest reduced entry is 2 p^2
    target = Mat4([[1, 0, 0, 0], [0, 1, 0, 2 * p**2], [0, 0, 1, 0], [0, Fraction(1, p), 0, 1]])
    conj = j2_embed(Mat2.of(1 + p, p, -p, 1 - p), p) * Mat4.diagonal(p, 1, 1, 1)
    cert = Certificate(p, (CertNode(SEED_M0), CertNode(CONJ, (0,), conj)), 1, target)
    assert target.scaled()[0] == p and conj.scaled()[0] in (1, p)
    assert _bit_budget(cert.target, _literals(cert)) == reference_bit_budget(cert)
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
            for name in ("__mul__", "inv", "symplectic_inv"):
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
def test_evaluate_of_a_witness_builder_reaches_its_target(monkeypatch, p):
    extracted = []
    monkeypatch.setattr(CertBuilder, "certificate", lambda b, root, target: extracted.append((b, root, target)))
    ks = [sample(SampleSpec(GroupLabel.GAMMA_1P, p, 8100 + i, 4 + i)) for i in range(4)]
    for k in ks:
        normal_closure_witness(k, p)
    assert [target for _, _, target in extracted] == ks
    for b, root, k in extracted:
        assert root == len(b.nodes) - 1 and evaluate(b)[root] == k


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


class _CountingShape(dict):
    """``_SHAPE`` counting its ``.get`` calls: only the structure walk
    of :func:`cert_verify` makes them, one per node."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_structure_is_checked_once_when_a_certificate_is_verified(monkeypatch, tmp_path, capsys):
    # a hand-built and a parsed certificate get the same MalformedDag, from cert_verify
    one = mat4_to_lists(Mat4.identity())
    bad = {"p": 3, "nodes": [{"id": 0, "op": "seed_m0", "args": []},
                             {"id": 1, "op": "inv", "args": [1]}], "root": 1, "target": one}
    with pytest.raises(MalformedDag) as built:
        cert_verify(Certificate(3, (CertNode(SEED_M0), CertNode(INV, (1,))), 1, Mat4.identity()))
    with pytest.raises(MalformedDag) as parsed:
        cert_verify(parse(json.dumps(bad)))
    assert str(parsed.value) == str(built.value) == "node 1: args (1,) not all earlier"
    shape = _CountingShape(_SHAPE)
    monkeypatch.setattr(importlib.import_module("sp4cert.certificates"), "_SHAPE", shape)
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 7, 4))
    text = serialize(normal_closure_witness(k, 3))
    build_generator_certs(5)
    expand_j2(Mat2.of(1, 0, 5, 1), 5)
    cert = parse(text)
    assert shape.gets == 0  # builders and the reader walk nothing
    assert cert_verify(cert).passed
    assert shape.gets == len(cert.nodes)
    path = tmp_path / "k.json"
    path.write_text(json.dumps(mat4_to_lists(k)))
    shape.gets = 0
    assert main(["witness", "--p", "3", "--in", str(path), "--out", str(tmp_path / "w.json")]) == 0
    assert capsys.readouterr().out == f"{len(cert.nodes)} nodes\nPASS\n"
    assert shape.gets == len(cert.nodes)  # the text it read back, not the certificate it built


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
    with pytest.raises(MalformedDag) as caught:
        cert_verify(Certificate(p, nodes, root, Mat4.identity()))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "nodes, target, message",
    [
        ((CertNode(SEED_M0),), None, "target is a NoneType, not a Mat4"),
        ((CertNode(SEED_M0),), [[1, 0, 0, 0]] * 4, "target is a list, not a Mat4"),
        ((CertNode(SEED_P2, (), [[1, 0, 0, 0]] * 4),), Mat4.identity(), "node 0: value is a list, not a Mat4"),
        ((CertNode(SEED_M0), CertNode(CONJ, (0,), Mat2.of(1, 0, 0, 1))), Mat4.identity(),
         "node 1: value is a Mat2, not a Mat4"),
        # every node is checked before any verdict: the conjugator off gamma0_1p is not reported
        ((CertNode(SEED_M0), CertNode(CONJ, (0,), Mat4.diagonal(2, 1, 1, 1)),
          CertNode(CONJ, (1,), Mat2.of(1, 0, 0, 1))), Mat4.identity(), "node 2: value is a Mat2, not a Mat4"),
    ],
)
def test_a_certificate_holds_only_mat4_literals(nodes, target, message):
    # cert_verify reads entry_bits() of each literal and hashes it, so only a Mat4 may pass
    with pytest.raises(MalformedDag) as caught:
        cert_verify(Certificate(3, nodes, len(nodes) - 1, target))
    assert str(caught.value) == message


def test_a_built_seed_outside_gamma_p2_fails_at_its_node():
    # the builder interns any literal; cert_verify refuses it at its node
    builder, m0 = CertBuilder(3), generator("M0", 3)
    report = cert_verify(builder.certificate(builder.seed_p2(m0), m0))
    assert report.checks == (CheckResult("seed", 0, False, "seed not in gamma_p2"),)
    assert report.lines()[-1] == "FAIL (seed node 0)"


def test_a_built_conjugator_outside_gamma0_1p_fails_at_its_node():
    builder, m0 = CertBuilder(3), generator("M0", 3)
    a = builder.seed_m0()
    for g in (generator("Mt2", 3), Mat4.diagonal(2, 1, 1, 1)):  # each is node 1 of its certificate
        report = cert_verify(builder.certificate(builder.conj(a, g), m0))
        assert report.checks == (CheckResult("conjugator", 1, False, "conjugator not in gamma0_1p"),)
        assert report.lines()[-1] == "FAIL (conjugator node 1)"
    assert len(builder.nodes) == 3


def test_product_takes_any_iterable_of_ids():
    b = CertBuilder(3)
    a = b.seed_m0()
    assert b.product(iter([])) == b.identity()
    assert b.product(x for x in (a, a)) == b.mul(a, a)


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
# conjugator (in gamma0_1p) or a power's exponent and generator name
DAG_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("seed_m0"), st.just(0), st.just(None)),
        st.tuples(st.just("seed_p2"), st.just(0), st.sampled_from(("L1", "L3"))),
        st.tuples(st.just("mul"), st.integers(0, 99), st.integers(0, 99)),
        st.tuples(st.just("inv"), st.integers(0, 99), st.just(None)),
        st.tuples(st.just("conj"), st.integers(0, 99), st.sampled_from(("M1", "M3", "L5"))),
        st.tuples(st.just("power"), st.integers(0, 99),
                  st.tuples(st.integers(-60, 60), st.sampled_from(("M0", "L4", "M3")))),
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
        else:
            if evaluate(b)[a].entry_bits() <= 64:  # a power of a wide value is slow to evaluate
                b.power(a, *extra)  # the builder forms no value: any node stands for the name
    values = evaluate(b)
    for root in range(len(b.nodes)):
        assert b.certificate(root, values[root]) == reference_certificate(b, root, values[root])


def test_only_a_builder_with_a_dead_or_later_node_renumbers():
    # every node live and the root last: the builder's own node objects
    # are handed out; otherwise each kept node is a new, renumbered one
    b = CertBuilder(3)
    m0 = b.seed_m0()
    root = b.mul(m0, b.inv(m0))
    assert all(x is y for x, y in zip(b.certificate(root, Mat4.identity()).nodes, b.nodes, strict=True))
    b.seed_p2(generator("L1", 3))  # dead below the next root
    top = b.mul(root, m0)
    cert = b.certificate(top, generator("M0", 3))
    assert cert == reference_certificate(b, top, generator("M0", 3))
    assert cert.nodes[-1] == CertNode(MUL, (2, 0)) and cert.nodes[-1] is not b.nodes[top]


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


def _split_base(p: int, name: str) -> tuple[CertBuilder, int, str, int]:
    """A core builder, the node and name of M0, L4 or M3 in it, and the
    sign an inverse (``"L4^-1"``) puts on the exponent."""
    b, core = _core_builder(p)
    base = name.removesuffix("^-1")
    nodes = {"M0": b.seed_m0(), "L4": core["L4"], "M3": core["M3"]}
    return b, nodes[base], base, -1 if name.endswith("^-1") else 1


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
    b, a, base, sign = _split_base(p, name)
    e *= sign  # a power of an inverse is the power with the exponent negated
    value = generator(base, p)
    before = len(b.nodes)
    idx = b.power(a, e, base)
    assert len(b.nodes) - before <= 2 * (p * p // 2).bit_length() + 3
    cert = b.certificate(idx, value ** e)
    assert _both_verifiers(cert) == (True, (True, ""))  # the root replays to base^e
    half = p * p // 2
    if abs(e) > half:
        # the p^2-multiple part of the power is one seed (perhaps shared)
        r = (e + half) % (p * p) - half
        seed = value ** (e - r)
        assert any(n.op == SEED_P2 and n.value == seed for n in cert.nodes)


def test_power_splits_exactly_when_the_seed_lies_in_gamma_p2():
    # power tests no literal: for the generator 1 + N it names, it takes
    # the seed S = 1 + q p^2 N whenever q != 0, and every such S lies in
    # gamma_p2, as each N is integral; the Mt_i preserve the polarised
    # form, not J, so no node has one as its value
    for p in (3, 5, 7):
        half = p * p // 2
        exponents = [q * p * p + r for q in (-2 * p, -p, -2, -1, 0, 1, 2, p, 2 * p)
                     for r in (-half, -1, 0, 1, half) if q or r]
        for name in (name for name in _ENTRIES if not name.startswith("Mt")):
            for e in exponents:
                b = CertBuilder(p)
                b.power(b.seed_m0(), e, name)  # the builder forms no value: any node stands for the name
                q = (e + half) // (p * p)
                s = generator(name, p) ** (q * p * p)
                assert not q or member(s, GroupLabel.GAMMA_P2, p)
                assert _seeds_p2(b, 0) == ([s] if q else []), (p, name, e)


def test_a_witness_tests_each_literal_once(monkeypatch):
    # the builders test no literal; cert_verify tests each (literal,
    # group) pair once, however many nodes hold it
    certificates = importlib.import_module("sp4cert.certificates")
    p, k = 5, sample(SampleSpec(GroupLabel.GAMMA_1P, 5, 4, 10))
    cert = normal_closure_witness(k, p)
    assert sum(node.op == CONJ and node.value == j1_embed(S) for node in cert.nodes) == 3
    tested = []
    monkeypatch.setattr(certificates, "member", lambda m, label, q: tested.append((m, label)) or member(m, label, q))
    assert cert_verify(cert).passed
    assert len(tested) == len(set(tested))
    assert set(tested) == {(node.value, _SHAPE[node.op][1][1]) for node in cert.nodes if node.value is not None}


def test_witness_takes_a_large_named_exponent_as_a_seed():
    # the M2^55 letter of this p = 7 word is M2^6 in the small word r, and
    # the remainder lands in the one seed s = k r^-1, not in a seed M2^49
    p = 7
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 3, 8))
    word = decompose(k, p, tilde=False)
    small = GeneratorWord(p, False, tuple(letter.small(p) for letter in word.letters))
    assert Named("M2", 55) in word.letters and Named("M2", 6) in small.letters
    s = k * small.replay().inv()
    assert member(s, GroupLabel.GAMMA_P2, p) and s != Mat4.identity()
    cert = normal_closure_witness(k, p)
    assert _both_verifiers(cert) == (True, (True, ""))
    seeds = [node.value for node in cert.nodes if node.op == SEED_P2]
    assert s in seeds and generator("M2", p) ** 49 not in seeds


# --- a witness is a short word plus one seed, whatever its input's size -----

WIDE_PRIMES = (3, 5, 7, 10**9 + 7)
WIDE_BITS = (256, 1024, 4096, 13_000)
NODES_PER_BIT_OF_P = 60  # largest seen: 44.2 at p = 3, 27.7 at p = 10^9 + 7
LITERAL_BITS_PER_BIT_OF_P = 24  # largest seen: 17.4, at p = 10^9 + 7


@functools.lru_cache(maxsize=None)
def _wide_witnesses(p: int) -> tuple[tuple[Mat4, Certificate], ...]:
    """Inputs of 256 to 13,000 bits at p, two seeds a size, and their witnesses."""
    members = [wide_member(p, bits, seed) for bits in WIDE_BITS for seed in (1, 3)]
    return tuple((k, normal_closure_witness(k, p)) for k in members)


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_witness_nodes_are_bounded_by_log_p_whatever_the_input_size(p):
    # a witness of the unreduced word had 8,125 nodes for a 13,011-bit input at p = 7
    for k, cert in _wide_witnesses(p):
        assert cert.node_count <= NODES_PER_BIT_OF_P * math.log2(p), (k.entry_bits(), cert.node_count)
        assert cert_verify(cert).passed


@pytest.mark.parametrize("p", WIDE_PRIMES)
def test_witness_literals_are_at_most_log_p_wider_than_the_input(p):
    # a witness of the unreduced word had a 60,540-bit literal for a 13,011-bit input at p = 7
    for k, cert in _wide_witnesses(p):
        widest = max(m.entry_bits() for m in _literals(cert))
        assert widest <= k.entry_bits() + LITERAL_BITS_PER_BIT_OF_P * math.log2(p), (k.entry_bits(), widest)


# --- differential: cert_verify against the benchmark's oracle -------------


def _program_verdict(text: str) -> tuple[bool, str]:
    """``(passed, failure locus)`` of ``parse`` + ``cert_verify``; a
    :class:`ParseError` or :class:`MalformedDag` is a refusal with the
    locus ``"parse"``."""
    try:
        report = cert_verify(parse(text))
    except (ParseError, MalformedDag):
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
def test_core_builder_is_a_copy_of_the_core_chain(p):
    # a builder from the template holds what building the chain in a
    # fresh builder gives; builders share no list or dict with each
    # other or with the cache, so what one adds the next does not hold
    built = CertBuilder(p)
    names = _core_chain(built)
    cached = _core_template(p)
    first, core = _core_builder(p)
    assert (first.nodes, first._memo, core) == (built.nodes, built._memo, names)
    second, again = _core_builder(p)
    for x, y, z in ((first.nodes, second.nodes, cached[0]), (first._memo, second._memo, cached[1]),
                    (core, again, cached[2])):
        assert x is not y and x is not z and y is not z
    first.mul(core["M1"], core["M2"])
    core["M1"] = -1
    third, fresh = _core_builder(p)
    assert (third.nodes, third._memo, fresh) == (built.nodes, built._memo, names)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_witness_fetches_no_generator_once_the_core_is_built(monkeypatch, p):
    # every power is taken by its generator's name, so with the core
    # template warm a witness builder fetches no generator value
    certificates = importlib.import_module("sp4cert.certificates")
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 40 + p, 12))
    assert {type(x) for x in certificates.decompose(k, p, tilde=False).letters} == {J1, J2, Named}
    _core_template(p)
    monkeypatch.setattr(certificates, "generator", lambda *a: pytest.fail("a generator fetched"))
    witness = normal_closure_witness(k, p)
    monkeypatch.undo()
    assert cert_verify(witness).passed


def test_core_chain_is_checked_once_per_p(monkeypatch):
    # the builders' one check: cert_verify of each core name's certificate,
    # once per p; no witness, generator table or j2 certificate is checked
    certificates = importlib.import_module("sp4cert.certificates")
    real = certificates.cert_verify
    checked = []

    def spy(cert):
        checked.append((cert.p, cert.target))
        return real(cert)

    _core_template.cache_clear()
    monkeypatch.setattr(certificates, "cert_verify", spy)
    for p in (3, 5):
        for i in range(5):
            normal_closure_witness(sample(SampleSpec(GroupLabel.GAMMA_1P, p, 900 + i, 8)), p)
        build_generator_certs(p)
        expand_j2(Mat2.of(1, 0, p, 1), p)
    assert checked == [(p, generator(name, p)) for p in (3, 5) for name in CORE_NAMES]


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


@pytest.mark.parametrize("p", [3, 5, 7, 10**9 + 7])
def test_no_package_path_takes_a_general_power_or_inverse(monkeypatch, p):
    # every power is a generator's shears and every 4x4 inverse its block
    # transpose, so the sampler, decompose and the builders run without them
    sampling = importlib.import_module("sp4cert.sampling")
    certificates = importlib.import_module("sp4cert.certificates")

    def refuse(*args):
        raise AssertionError("a general power or inverse was taken")

    for cls, method in ((Mat4, "inv"), (Mat4, "__pow__"), (Mat2, "__pow__")):
        monkeypatch.setattr(cls, method, refuse)
    _core_template.cache_clear()
    for label in sampling._SAMPLERS:
        assert member(sample(SampleSpec(label, p, 7, 6)), label, p)
    for tilde, label in ((False, GroupLabel.GAMMA_1P), (True, GroupLabel.GAMMA_TILDE_1P)):
        k = sample(SampleSpec(label, p, 11, 8))
        assert certificates.decompose(k, p, tilde).replay() == k
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 13, 8))
    assert cert_verify(parse(serialize(normal_closure_witness(k, p)))).passed
    assert all(cert_verify(cert).passed for cert in build_generator_certs(p).values())
    assert verify_identities(p).passed


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
    with pytest.raises(MalformedDag, match=r"^node 0: args \(1, 2\) not all earlier$"):
        cert_verify(certificate_from_json_obj(obj))


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


@pytest.mark.parametrize("text, message", [
    ("{not json", "where: bad JSON at offset 1: Expecting property name enclosed in double quotes"),
    ("[" * 200_000, "where: JSON nested too deeply"),
])
def test_load_json_names_the_refusal(text, message):
    with pytest.raises(ParseError) as caught:
        load_json(text, "where")
    assert str(caught.value) == message


def test_parse_rejects_unreduced_entries():
    obj = json.loads(serialize(seed_only_cert()))
    obj["target"][0][0] = "2/4"
    with pytest.raises(ParseError):
        certificate_from_json_obj(obj)


# --- the builders form no value ---------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_builders_form_no_product(monkeypatch, p):
    # a word decomposed beforehand and a warm core template: what is left
    # of a witness, and all of a generator table or a j1 or j2
    # certificate, is node building, which forms no product and tests no
    # literal
    certificates = importlib.import_module("sp4cert.certificates")
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 40 + p, 12))
    word = certificates.decompose(k, p, tilde=False)
    _core_template(p)
    monkeypatch.setattr(certificates, "decompose", lambda m, q, tilde: word)
    for name in ("__mul__", "symplectic_inv"):
        monkeypatch.setattr(Mat4, name, lambda *a: pytest.fail("a product while building"))
    monkeypatch.setattr(certificates, "member", lambda *a: pytest.fail("a literal tested while building"))
    witness, table = normal_closure_witness(k, p), build_generator_certs(p)
    j1, j2 = expand_j1(Mat2.of(2, 1, 1, 1), p), expand_j2(Mat2.of(1 - p, p, -p, 1 + p), p)
    monkeypatch.undo()
    assert not hasattr(CertBuilder(p), "values")
    assert {type(x) for x in word.letters} == {J1, J2, Named}
    assert all(cert_verify(c).passed for c in (witness, j1, j2, *table.values()))


# --- checks that python -O keeps -------------------------------------------


def test_chain_checks_survive_python_optimise_flag():
    # each case feeds one check a wrong value; only an explicit raise, or
    # cert_verify of a builder's output, sees it
    script = textwrap.dedent("""
        import dataclasses
        import importlib

        from sp4cert.errors import ShapeAssertionFailed
        from sp4cert.groups import GroupLabel
        from sp4cert.matrices import Mat2
        from sp4cert.sampling import SampleSpec, sample

        assert False, "python -O was expected to strip this"
        certs = importlib.import_module("sp4cert.certificates")
        groups = importlib.import_module("sp4cert.groups")
        sl2 = importlib.import_module("sp4cert.sl2")
        dec = importlib.import_module("sp4cert.decompose")
        p, a = 3, Mat2.of(2, 1, 1, 1)
        P = Mat2.of(1, 0, p, 1)
        wide = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 2, 7))  # a j1 lift takes the determinant fix
        real = {name: getattr(mod, name) for mod, name in (
            (certs, "generator"), (certs, "sl2_decompose"), (certs, "gamma1p_generate"),
            (certs, "_j1_chain"), (certs, "conjugates_of_t"), (sl2, "_push"),
            (sl2, "sl2_decompose"), (sl2, "MultiplyLeftP"), (groups, "ext_gcd"),
            (dec, "_lift"), (dec.Named, "small"),
        )}

        def residues(q, m):  # the lift without its determinant fix
            return Mat2.of(*[(x + m // 2) % m - m // 2 for x in q.scaled()[1]])

        def off_by_one(letter, q):
            small = real["small"](letter, q)
            return dataclasses.replace(small, exp=small.exp + 1)

        def ext_gcd_off(x, y):
            g, s, t = real["ext_gcd"](x, y)
            return g, s + 1, t

        def negate_first(word):
            first, *rest = real["conjugates_of_t"](word)
            return (first._replace(exp=-first.exp), *rest)

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
            "factors": (certs, "conjugates_of_t", negate_first, lambda: certs.expand_j1(a, p),
                        lambda: certs.normal_closure_witness(certs.generator("M0", p), p)),
            "lift": (dec, "_lift", residues, lambda: certs.normal_closure_witness(wide, p)),
            "residue": (dec.Named, "small", off_by_one, lambda: certs.normal_closure_witness(wide, p)),
            "sl2": (sl2, "_push", lambda letters, name, exp: real["_push"](letters, name, exp + 1),
                    lambda: sl2.sl2_decompose(a)),
            "conjugates": (sl2, "sl2_decompose", lambda m: real["sl2_decompose"](m * sl2.T),
                           lambda: sl2.normal_closure_decompose(a)),
            "gamma1p": (sl2, "MultiplyLeftP", PowerOffByOne, lambda: sl2.gamma1p_generate(P, p)),
            "short": (groups, "ext_gcd", ext_gcd_off,
                      lambda: groups.short_witness((2, 0, 3, 0), p)),
        }
        for label, (mod, name, wrong, *calls) in cases.items():
            setattr(mod, name, wrong)
            for call in calls:
                try:
                    out = call()
                except ShapeAssertionFailed:
                    print("rejected", label)
                else:
                    if isinstance(out, certs.Certificate) and not certs.cert_verify(out).passed:
                        print("refused", label)
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
    # the core template's check raises; a builder's output is refused by
    # cert_verify; "factors" runs two calls: expand_j1 and a witness; a
    # lift that is not unimodular is rejected by small's own check, and a
    # named letter off its class mod p^2 leaves a seed outside gamma_p2
    labels = [("rejected", "core"), ("refused", "j1"), ("refused", "j2"), ("refused", "witness"),
              ("refused", "factors"), ("refused", "factors"), ("rejected", "lift"), ("refused", "residue"),
              ("rejected", "sl2"), ("rejected", "conjugates"), ("rejected", "gamma1p"), ("rejected", "short")]
    assert done.stdout.split() == [w for pair in labels for w in pair]
