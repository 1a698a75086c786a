import io
import json
import sys
import time

import pytest

from support import hostile_chain

from sp4cert import cli
from sp4cert.certificates import (
    SEED_P2,
    CertNode,
    Certificate,
    build_generator_certs,
    normal_closure_witness,
    serialize,
)
from sp4cert.cli import main
from sp4cert.decompose import GeneratorWord, Named
from sp4cert.errors import BadPrime, ShapeAssertionFailed
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel, VectorClass
from sp4cert.matrices import Mat4, mat4_to_lists
from sp4cert.sampling import SampleSpec, sample
from sp4cert.siegel import MAX_SAMPLES
from sp4cert.sl2 import T


@pytest.fixture()
def m0_file(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(mat4_to_lists(generator("M0", 5))))
    return str(path)


@pytest.fixture()
def member_file(tmp_path):
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, 3, 77, 7))
    path = tmp_path / "k.json"
    path.write_text(json.dumps(mat4_to_lists(k)))
    return str(path), k


def test_member_true(m0_file, capsys):
    code = main(["member", "--group", "gamma_1p", "--p", "5", "--in", m0_file])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_member_false_is_math_failure(m0_file, capsys):
    code = main(["member", "--group", "gamma_p2", "--p", "5", "--in", m0_file])
    assert code == 1
    assert capsys.readouterr().out.strip() == "false"


def test_member_bad_file_is_io_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["member", "--group", "gamma_1p", "--p", "5", "--in", str(path)])
    assert code == 2


def test_member_missing_file(tmp_path):
    code = main(
        ["member", "--group", "gamma_1p", "--p", "5", "--in", str(tmp_path / "no.json")]
    )
    assert code == 2


@pytest.mark.parametrize("entry", ['"' + "7" * 5001 + '"', "7" * 5001])
def test_member_on_entry_past_the_digit_limit_is_a_parse_error(tmp_path, capsys, entry):
    # a 5,001-digit entry, as a string and as a bare JSON number
    path = tmp_path / "big.json"
    path.write_text(
        f'[["1","0",{entry},"0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]'
    )
    code = main(["member", "--group", "gamma_1p", "--p", "7", "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and "4300 digits" in captured.err


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[int(i == j) for j in range(4)] for i in range(4)], "entry at (0,0) must be a string"),
        ([["1", "0", "0", "0"], "0100", ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
         "row 1 must be a list of 4 entries"),
    ],
    ids=["number_entries", "row_not_a_list"],
)
def test_member_refusal_names_the_place(tmp_path, capsys, rows, message):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    code = main(["member", "--group", "gamma_1p", "--p", "3", "--in", str(path)])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


def test_even_p_rejected_up_front(m0_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--group", "gamma_1p", "--p", "4", "--in", m0_file])
    assert exc.value.code == 2


def test_decompose_writes_replayable_word(member_file, tmp_path, capsys):
    path, k = member_file
    out = tmp_path / "word.json"
    code = main(["decompose", "--p", "3", "--in", path, "--out", str(out)])
    assert code == 0
    word = GeneratorWord.from_json_obj(json.loads(out.read_text()))
    assert word.replay() == k


def test_decompose_non_member_exits_one(m0_file, tmp_path):
    # m0 at the wrong p: entry pattern fails
    k = generator("Mt2", 3)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(mat4_to_lists(k)))
    code = main(["decompose", "--p", "3", "--in", str(path)])
    assert code == 1


def test_certify_generators(tmp_path, capsys):
    out = tmp_path / "table.json"
    code = main(["certify-generators", "--p", "3", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.strip().endswith("PASS")
    table = json.loads(out.read_text())
    assert set(table) == {"M2", "L2", "L4", "M3", "M4", "M1"}


def test_witness_verify_pipeline(member_file, tmp_path, capsys):
    path, k = member_file
    cert_path = tmp_path / "cert.json"
    assert main(["witness", "--p", "3", "--in", path, "--out", str(cert_path)]) == 0
    assert main(["verify", "--cert", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")
    # byte-identical on re-serialisation: no loss through the file
    from sp4cert.certificates import parse, serialize

    text = cert_path.read_text()
    assert serialize(parse(text)) == text.rstrip("\n")


def test_witness_passes_only_a_file_that_verify_reads(tmp_path, capsys):
    # a gamma_1p member of over 1,100 digits: a sample squared seven times,
    # times M1 after each squaring; its witness has a literal past 4,300 digits
    p = 7
    k = sample(SampleSpec(GroupLabel.GAMMA_1P, p, 1, 20))
    for _ in range(7):
        k = k * k * generator("M1", p)
    assert max(len(str(abs(x))) for x in k.scaled()[1]) >= 1100
    path, cert_path = tmp_path / "k.json", tmp_path / "cert.json"
    path.write_text(json.dumps(mat4_to_lists(k)))
    witness = main(["witness", "--p", str(p), "--in", str(path), "--out", str(cert_path)])
    witness_out, witness_err = capsys.readouterr()
    verify = main(["verify", "--cert", str(cert_path)])
    verify_out, verify_err = capsys.readouterr()
    assert (witness == 0) == (verify == 0)
    if verify == 0:
        assert witness_out.endswith("PASS\n") and verify_out.endswith("PASS\n")
    else:  # the file is written, then read back as verify reads it
        assert (witness, witness_out, witness_err) == (verify, verify_out, verify_err)


def test_a_corrupted_chain_fails_witness_verify_and_fuzz(monkeypatch, member_file, tmp_path, capsys):
    # every j1 payload is expanded as itself times T; the builder checks
    # nothing, so only the replay of what witness wrote can see it
    certificates = sys.modules["sp4cert.certificates"]
    path, _ = member_file
    certificates.build_generator_certs(3)  # the core template, checked before the fault
    real = certificates._j1_chain
    monkeypatch.setattr(certificates, "_j1_chain", lambda b, m: real(b, m * T))
    cert_path = tmp_path / "cert.json"
    assert main(["witness", "--p", "3", "--in", path, "--out", str(cert_path)]) == 1
    assert capsys.readouterr().out.endswith("\nFAIL\n")
    root = json.loads(cert_path.read_text())["root"]
    assert main(["verify", "--cert", str(cert_path)]) == 1
    assert capsys.readouterr().out.endswith(f"\nFAIL (replay mismatch at root {root})\n")
    assert main(["fuzz", "--p", "3", "--n", "2", "--seed", "5", "--suite", "witness"]) == 1
    assert capsys.readouterr().out.startswith("FAIL at trial 0: ")
    # a j1 conjugator off gamma0_1p is interned as it is: witness writes
    # the file and fails its read-back, and verify names the node
    monkeypatch.undo()
    off = Mat4.diagonal(2, 1, 1, 1)
    monkeypatch.setattr(certificates, "j1_embed", lambda a: off)
    assert main(["witness", "--p", "3", "--in", path, "--out", str(cert_path)]) == 1
    out, err = capsys.readouterr()
    assert out.endswith(" nodes\nFAIL\n") and err == ""
    nodes = json.loads(cert_path.read_text())["nodes"]
    i = next(i for i, node in enumerate(nodes) if node.get("value") == mat4_to_lists(off))
    assert main(["verify", "--cert", str(cert_path)]) == 1
    assert capsys.readouterr().out.endswith(f"\nFAIL (conjugator node {i})\n")


def test_verify_with_matching_target(member_file, tmp_path):
    path, k = member_file
    cert_path = tmp_path / "cert.json"
    main(["witness", "--p", "3", "--in", path, "--out", str(cert_path)])
    assert main(["verify", "--cert", str(cert_path), "--target", path]) == 0


def test_verify_with_wrong_target(member_file, m0_file, tmp_path):
    path, _ = member_file
    cert_path = tmp_path / "cert.json"
    main(["witness", "--p", "3", "--in", path, "--out", str(cert_path)])
    assert main(["verify", "--cert", str(cert_path), "--target", m0_file]) == 1


@pytest.mark.parametrize("target", ["M2", "M0"])
def test_verify_with_target_keeps_the_failure_locus(tmp_path, capsys, target):
    # M2's witness with its L1 seed moved off level p^2
    cert = normal_closure_witness(generator("M2", 3), 3)
    i = next(i for i, node in enumerate(cert.nodes) if node.op == SEED_P2)
    d, e = cert.nodes[i].value.scaled()
    e = list(e)
    e[7] += 1  # entry (1, 3)
    nodes = list(cert.nodes)
    nodes[i] = nodes[i]._replace(value=Mat4.from_pair(d, tuple(e)))
    cert_path, target_path = tmp_path / "bad.json", tmp_path / "target.json"
    cert_path.write_text(serialize(Certificate(cert.p, tuple(nodes), cert.root, cert.target)))
    target_path.write_text(json.dumps(mat4_to_lists(generator(target, 3))))
    assert main(["verify", "--cert", str(cert_path)]) == 1
    alone = capsys.readouterr().out.splitlines()
    assert alone[-1] == f"FAIL (seed node {i})"
    assert main(["verify", "--cert", str(cert_path), "--target", str(target_path)]) == 1
    status = "pass" if target == "M2" else "FAIL"
    assert capsys.readouterr().out.splitlines() == [
        *alone[:-1], f"  {status}  target matches --target file", alone[-1]
    ]


def test_verify_garbage_exits_two(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("]]]")
    assert main(["verify", "--cert", str(path)]) == 2


@pytest.mark.parametrize("op", [[], {}])
def test_verify_unhashable_op_exits_two(tmp_path, capsys, op):
    target = mat4_to_lists(generator("M0", 3))
    obj = {"p": 3, "nodes": [{"id": 0, "op": op, "args": []}], "root": 0, "target": target}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "--cert", str(path)]) == 2
    assert "unknown op" in capsys.readouterr().err


def _malformed(edit):
    """The M2 generator certificate at p = 3 (nodes seed_m0, inv,
    seed_p2, conj, mul, inv, mul) after ``edit`` has changed its JSON."""
    obj = json.loads(serialize(build_generator_certs(3)["M2"]))
    edit(obj)
    return obj


def _set(path, value):
    def edit(obj):
        holder = obj
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
    return edit


def _swap_first_ids(obj):
    obj["nodes"][0]["id"], obj["nodes"][1]["id"] = 1, 0


def _bad_seed_bogus_op_p_two(obj):
    # a seed off gamma_p2 at node 2, an unknown op at node 6 and p = 2: every
    # node is checked before p and before any verdict
    obj["nodes"][2]["value"] = mat4_to_lists(generator("M0", 3))
    obj["nodes"][6]["op"] = "bogus"
    obj["p"] = 2


MALFORMED = {
    "no_nodes": (_set(["nodes"], []), "no nodes"),
    "root_out_of_range": (_set(["root"], 7), "root 7 out of range"),
    "value_on_mul": (_set(["nodes", 4, "value"], mat4_to_lists(Mat4.identity())),
                     "node 4: op mul value mismatch"),
    "no_value_on_conj": (lambda obj: obj["nodes"][3].pop("value"), "node 3: op conj value"),
    "nodes_not_a_list": (_set(["nodes"], {"0": "seed_m0"}), "nodes must be a list"),
    "node_not_an_object": (_set(["nodes", 1], ["inv", 0]), "node 1 malformed"),
    "ids_out_of_order": (_swap_first_ids, "ids must be 0..n-1 in order"),
    "args_not_a_list": (_set(["nodes", 4, "args"], 3), "args must be a list"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_refuses_a_malformed_certificate(tmp_path, capsys, case):
    edit, message = MALFORMED[case]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_malformed(edit)))
    code = main(["verify", "--cert", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def _edited(path, value):
    return lambda: _malformed(_set(path, value))


# hostile certificates, each with the one line that `verify --cert` prints for it
HOSTILE_CERTS = {
    "op_list": (_edited(["nodes", 1, "op"], ["inv"]), "node 1: unknown op ['inv']"),
    "op_dict": (_edited(["nodes", 1, "op"], {"inv": 0}), "node 1: unknown op {'inv': 0}"),
    "args_string": (_edited(["nodes", 1, "args"], "0"), "node 1: args must be a list of ints"),
    "args_dict": (_edited(["nodes", 1, "args"], {"0": 0}), "node 1: args must be a list of ints"),
    "value_null": (_edited(["nodes", 2, "value"], None), "matrix must be a list of 4 rows"),
    "value_on_seed_m0": (_edited(["nodes", 0, "value"], mat4_to_lists(Mat4.identity())),
                         "node 0: op seed_m0 value mismatch"),
    "target_row_string": (_edited(["target", 1], "0100"), "row 1 must be a list of 4 entries"),
    "p_float": (_edited(["p"], 3.0), "certificate p must be an integer, not float"),
    "p_two": (_edited(["p"], 2), "p must be an odd prime, got 2"),
    "p_negative": (_edited(["p"], -3), "p must be an odd prime, got -3"),
    "p_huge": (_edited(["p"], 10**40), "primality is proven only below "
               f"3317044064679887385961981, got {10**40}"),
    "root_true": (_edited(["root"], True), "certificate root must be an integer, not bool"),
    "nodes_empty": (_edited(["nodes"], []), "certificate has no nodes"),
    "top_level_list": (lambda: [_malformed(lambda obj: None)],
                       "certificate must be a JSON object"),
    "value_2x2": (_edited(["nodes", 2, "value"], [["1", "0"], ["0", "1"]]),
                  "matrix must be a list of 4 rows"),
    "unicode_digit": (_edited(["nodes", 2, "value", 0, 0], "\u0661"),
                      "bad scalar '\u0661' at (0,0)"),
    "trailing_newline": (_edited(["target", 0, 0], "1\n"), "bad scalar '1\\n' at (0,0)"),
    "bogus_op_after_a_bad_seed": (lambda: _malformed(_bad_seed_bogus_op_p_two), "node 6: unknown op 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CERTS))
def test_verify_prints_one_line_for_a_hostile_certificate(tmp_path, capsys, case):
    make, line = HOSTILE_CERTS[case]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(make()))
    code = main(["verify", "--cert", str(path)])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {line}\n")


def test_witness_non_member_exits_one(tmp_path, capsys):
    path = tmp_path / "mt2.json"
    path.write_text(json.dumps(mat4_to_lists(generator("Mt2", 3))))
    code = main(["witness", "--p", "3", "--in", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "FAIL not in gamma_1p at p=3\n"


@pytest.mark.parametrize("p", ["3.0", "three", "0x3", ""])
def test_non_integer_p_exits_two(m0_file, capsys, p):
    with pytest.raises(SystemExit) as exc:
        main(["member", "--group", "gamma_1p", "--p", p, "--in", m0_file])
    assert exc.value.code == 2
    assert "is not an integer" in capsys.readouterr().err


def test_decompose_through_stdin_and_stdout(member_file, tmp_path, monkeypatch, capsys):
    path, _ = member_file
    out = tmp_path / "word.json"
    assert main(["decompose", "--p", "3", "--in", path, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(path, encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    assert main(["decompose", "--p", "3", "--in", "-", "--out", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_check_identities(capsys):
    assert main(["check-identities", "--p", "7"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_check_identities_at_a_large_prime(capsys):
    # L2^lam with lam = (p^2 - 1)/2 is built as node-level binary powers
    p = 2**61 - 1
    assert main(["check-identities", "--p", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"identity checks at p = {p}" and lines[-1] == "PASS"
    assert [line.split()[0] for line in lines[1:-1]] == ["pass"] * 6
    assert lines[3].endswith(f"[lam={(p * p - 1) // 2} mu=1 from ext_gcd(-2, {p * p})]")


def test_section4(capsys):
    assert main(["section4", "--c", "2", "--samples", "300", "--tol", "1e-10"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**20])
def test_section4_refuses_too_many_samples_at_once(capsys, samples):
    # refused before any list of samples is built
    start = time.perf_counter()
    assert main(["section4", "--c", "1", "--samples", str(samples)]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: samples must be from 2 to 1000000, got {samples}\n"


def test_section4_zero_tol_fails(capsys):
    assert main(["section4", "--c", "1", "--samples", "100", "--tol", "0"]) == 1


@pytest.mark.parametrize("suite", ["decompose", "predicates", "identities"])
def test_fuzz_suites(suite, capsys):
    assert main(["fuzz", "--p", "3", "--n", "5", "--seed", "3", "--suite", suite]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_fuzz_witness_suite(capsys):
    assert main(["fuzz", "--p", "3", "--n", "2", "--seed", "5", "--suite", "witness"]) == 0


@pytest.mark.parametrize("p", ["318665857834031151167461", "3317044064679887385961981"])
def test_strong_pseudoprimes_rejected_up_front(m0_file, capsys, p):
    # composites that pass Miller-Rabin to the bases 2..37 and 2..41
    with pytest.raises(SystemExit) as exc:
        main(["member", "--group", "gamma_1p", "--p", p, "--in", m0_file])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err


def test_fuzz_decompose_reports_a_replay_mismatch(monkeypatch, capsys):
    # the sampler replays words too, so the fault goes into the word itself
    def wrong_word(k, p):
        return GeneratorWord(p, True, (Named("Mt1", 1),))

    monkeypatch.setattr(sys.modules["sp4cert.decompose"], "_decompose_tilde", wrong_word)
    assert main(["fuzz", "--p", "3", "--n", "2", "--seed", "11", "--suite", "decompose"]) == 1
    spec = SampleSpec(GroupLabel.GAMMA_1P, 3, 11, 5)
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL at trial 0: {spec.describe()} (ShapeAssertionFailed: ")


@pytest.mark.parametrize(
    "crash", [ZeroDivisionError("boom"), BadPrime("bad p"), TypeError("not a spec")]
)
def test_fuzz_crash_prints_its_spec(monkeypatch, capsys, crash):
    def trial(suite, p, spec):
        if spec.seed == 13:
            raise crash
        return True

    monkeypatch.setattr(cli, "_fuzz_trial", trial)
    assert main(["fuzz", "--p", "3", "--n", "5", "--seed", "11", "--suite", "decompose"]) == 1
    spec = SampleSpec(GroupLabel.GAMMA_1P, 3, 13, 7)
    out = capsys.readouterr().out
    assert out == f"FAIL at trial 2: {spec.describe()} ({type(crash).__name__}: {crash})\n"


def test_fuzz_predicates_reports_a_failed_trial(monkeypatch, capsys):
    # every tilde row classed long: trial 0's short first row fails
    monkeypatch.setattr(cli, "vector_class", lambda v, p: VectorClass.LONG)
    assert main(["fuzz", "--p", "3", "--n", "3", "--seed", "11", "--suite", "predicates"]) == 1
    spec = SampleSpec(GroupLabel.GAMMA_1P, 3, 11, 5)
    assert capsys.readouterr().out == f"FAIL at trial 0: {spec.describe()}\n"


@pytest.mark.parametrize("refused", [GroupLabel.GAMMA_1P, GroupLabel.GAMMA_TILDE_1P])
def test_fuzz_predicates_fails_a_trial_outside_either_group(monkeypatch, capsys, refused):
    # the sample, or its R-conjugate, refused by member: trial 0 fails
    real = cli.member
    monkeypatch.setattr(cli, "member", lambda m, label, p: label != refused and real(m, label, p))
    assert main(["fuzz", "--p", "3", "--n", "3", "--seed", "11", "--suite", "predicates"]) == 1
    spec = SampleSpec(GroupLabel.GAMMA_1P, 3, 11, 5)
    assert capsys.readouterr().out == f"FAIL at trial 0: {spec.describe()}\n"


def test_any_other_package_error_exits_one(monkeypatch, capsys):
    def broken(p):
        raise ShapeAssertionFailed("identity replay broke")

    monkeypatch.setattr(cli.certs, "verify_identities", broken)
    assert main(["check-identities", "--p", "3"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: identity replay broke\n")


def test_verify_refuses_an_entry_too_long_to_read(tmp_path, capsys):
    # serialize writes a 4,401-digit entry in pieces; the reader refuses it
    seed = Mat4(
        [[1, 0, 0, 0], [0, 1, 0, 9 * 10**4400], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    path = tmp_path / "wide.json"
    path.write_text(serialize(Certificate(3, (CertNode(SEED_P2, (), seed),), 0, seed)))
    code = main(["verify", "--cert", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "too long" in err and "Traceback" not in err


# each way a file can refuse to parse, as bytes; "5/1" spells the integer 5
# non-canonically and is refused since round-trips must be bit-exact
_NON_CANONICAL = [["1", "5/1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
                  ["0", "0", "0", "1"]]
HOSTILE = {
    "deep_nesting": b"[" * 200_000,
    "invalid_utf8": b'[["\xff"]]',
    "null": b"null",
    "long_number": b"7" * 5001,
    "n_over_1": json.dumps(_NON_CANONICAL).encode(),
}


@pytest.fixture(scope="module")
def m0_cert_text():
    return serialize(normal_closure_witness(generator("M0", 3), 3))


@pytest.mark.parametrize("hostile", sorted(HOSTILE))
@pytest.mark.parametrize(
    "command", ["member", "decompose", "witness", "verify --cert", "verify --target"]
)
def test_hostile_input_exits_two(tmp_path, capsys, m0_cert_text, command, hostile):
    # any exception escaping main fails this test, so exit 2 means the
    # input reached the documented parse-error path
    content = HOSTILE[hostile]
    if command == "verify --cert" and hostile == "n_over_1":
        cert = json.loads(m0_cert_text)
        cert["target"] = _NON_CANONICAL
        content = json.dumps(cert).encode()
    bad = tmp_path / "hostile.json"
    bad.write_bytes(content)
    good = tmp_path / "cert.json"
    good.write_text(m0_cert_text)
    argv = {
        "member": ["member", "--group", "gamma_1p", "--p", "3", "--in", str(bad)],
        "decompose": ["decompose", "--p", "3", "--in", str(bad)],
        "witness": ["witness", "--p", "3", "--in", str(bad)],
        "verify --cert": ["verify", "--cert", str(bad)],
        "verify --target": ["verify", "--cert", str(good), "--target", str(bad)],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_refuses_the_hostile_chain(tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_text(serialize(hostile_chain()))
    start = time.perf_counter()
    code = main(["verify", "--cert", str(path)])
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert "  FAIL resource node 4: value wider than the 92-bit budget" in out.splitlines()
    assert out.splitlines()[-1] == "FAIL (resource node 4)"


@pytest.mark.parametrize(
    "argv",
    [
        "section4 --samples 1",
        "section4 --c -1",
        "section4 --c nan",
        "section4 --c inf",
        "section4 --tol -1",
        "section4 --tol nan",
        "fuzz --p 3 --suite identities --n -5",
        "fuzz --p 3 --suite identities --n 0",
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse refuses the value itself
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert any(line.startswith("error: ") or ": error: " in line for line in err.splitlines())
