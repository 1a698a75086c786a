import json

import pytest

from sp4cert import cli
from sp4cert.cli import main
from sp4cert.decompose import GeneratorWord
from sp4cert.errors import BadPrime
from sp4cert.generators import generator
from sp4cert.groups import GroupLabel
from sp4cert.matrices import Mat4, mat4_to_lists
from sp4cert.sampling import SampleSpec, sample


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


def test_check_identities(capsys):
    assert main(["check-identities", "--p", "7"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


def test_section4(capsys):
    assert main(["section4", "--c", "2", "--samples", "300", "--tol", "1e-10"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")


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
    monkeypatch.setattr(GeneratorWord, "replay", lambda self: Mat4.identity())
    assert main(["fuzz", "--p", "3", "--n", "2", "--seed", "11", "--suite", "decompose"]) == 1
    spec = SampleSpec(GroupLabel.GAMMA_1P, 3, 11, 5)
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL at trial 0: {spec.describe()} (ShapeAssertionFailed: ")


@pytest.mark.parametrize("crash", [ZeroDivisionError("boom"), BadPrime("bad p")])
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
