"""Smoke tests of the benchmark itself: ``python3 -m pytest bench``.

A tiny slice of each workload must pass the oracle; the oracle must
reproduce the paper's commutator identity and reject every tamper kind;
the tracer must reach names re-bound by ``from .x import y``; and the
runner must refuse to run without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SP = workloads.program_modules()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_oracle_reproduces_commutator_identity(p):
    inv = oracle.symplectic_inverse
    m2, l5 = oracle.named_power("M2", p, 1), oracle.named_power("L5", p, 1)
    lhs = oracle.mul(oracle.mul(oracle.mul(inv(l5), inv(m2)), l5), m2)
    assert lhs == oracle.mul(oracle.named("M4", p), oracle.named_power("L1", p, -1))
    assert lhs != oracle.mul(oracle.named("M4", p), oracle.named_power("L1", p, 1))


@pytest.mark.parametrize("name", ["decompose", "witness", "verify"])
def test_tiny_run_passes_oracle(name):
    wl = workloads.WORKLOADS[name]
    cases = wl.setup(SP, seed=7)[::8]
    outs, _, errors = run._run_round(wl, SP, cases)
    assert errors == []
    correct, letters, nodes = run._check(wl, cases, outs, errors)
    assert correct and len(letters) == len(cases) and min(nodes) >= 1


def test_member_round_fails_only_on_the_digit_limit_slice():
    wl = workloads.WORKLOADS["member"]
    cases = wl.setup(SP, seed=7)
    outs, _, errors = run._run_round(wl, SP, cases)
    # the slice fails while the int/str digit-limit fault stands, and only it
    assert {i for i, _ in errors} <= {i for i, c in enumerate(cases) if not c.timed}
    assert all("Exceeds the limit (4300 digits)" in msg for _, msg in errors)
    assert run._check(wl, cases, outs, errors)[0]
    assert sum(c.expected for c in cases) == len(cases) // 2


def test_oracle_rejects_every_tamper_kind():
    p = 5
    k = SP.sampling.sample(SP.sampling.SampleSpec(SP.groups.GroupLabel.GAMMA_1P, p, 80_002, 14))
    cert = SP.certificates.serialize(SP.certificates.normal_closure_witness(k, p))
    assert oracle.cert_verdict(cert, p) == (True, "")
    rng = random.Random(0)
    for kind in workloads.TAMPERS:
        bad = workloads.tamper(cert, kind, p, rng)
        assert bad is not None
        assert not oracle.cert_verdict(bad, p)[0], kind
        assert not SP.certificates.cert_verify(SP.certificates.parse(bad)).passed, kind


def test_oracle_rejects_a_wrong_word():
    p = 3
    k = SP.sampling.sample(SP.sampling.SampleSpec(SP.groups.GroupLabel.GAMMA_1P, p, 11, 9))
    text = json.dumps(SP.matrices.mat4_to_lists(k))
    word = SP.dec.decompose(k, p, tilde=False).to_json_obj()
    assert oracle.check_word(json.dumps(word), text, p) == len(word["letters"])
    named = next(letter for letter in word["letters"] if "gen" in letter)
    named["exp"] += 1
    with pytest.raises(oracle.OracleError):
        oracle.check_word(json.dumps(word), text, p)


def test_int_to_decimal_passes_the_digit_limit():
    n = 7 ** 20_000  # 16,902 digits
    text = oracle.int_to_decimal(n)
    assert len(text) == 16_902
    value = 0
    for i in range(0, len(text), 1000):
        piece = text[i:i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    assert value == n
    assert oracle.int_to_decimal(-(10 ** 5000)) == "-1" + "0" * 5000


def test_tracer_wraps_rebound_names_and_restores_them():
    originals = (SP.certificates.decompose, SP.sampling.member, SP.pkg.decompose)
    assert SP.pkg.decompose is SP.dec.decompose  # the package name shadows the module
    tracer = Tracer()
    tracer.install()
    try:
        for fn in (SP.certificates.decompose, SP.sampling.member, SP.pkg.decompose,
                   SP.dec.decompose, SP.matrices.Mat4.__mul__):
            assert hasattr(fn, "__wrapped__")
        k = SP.sampling.sample(SP.sampling.SampleSpec(SP.groups.GroupLabel.GAMMA_1P, 3, 5, 6))
        SP.certificates.normal_closure_witness(k, 3)
    finally:
        tracer.uninstall()
    assert (SP.certificates.decompose, SP.sampling.member, SP.pkg.decompose) == originals
    metrics = tracer.layer_metrics(1)
    assert metrics["decompose.decompose_ms"][0] > 0
    assert metrics["certificates.builder_requests"][0] > 0
    assert 0 < metrics["certificates.builder_new_node_ratio"][0] <= 1
    assert metrics["matrices.pow4_mul4_calls"][0] <= metrics["matrices.mul4_calls"][0]


def test_metric_names_match_benchmark_json():
    tracer = Tracer()
    names = set(tracer.layer_metrics(1)) | set(tracer.sampling_metrics(1))
    names |= {"trace.overhead_ms", "trace.overhead_pct", "trace.spans"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (_, unit) in {**tracer.layer_metrics(1), **tracer.sampling_metrics(1)}.items():
        assert units[name] == unit, name


def test_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "member", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 104
    assert result["failed"] in (8, 0)  # 8 while the digit-limit fault stands
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_host_speed_scales_each_operation_by_the_passes_near_it():
    speed = run.HostSpeed()
    speed.samples = [run.REF_S] * 20 + [2 * run.REF_S] * 20
    speed.marks = [0, 20, 40]
    early, middle, late = speed.scaled([1.0, 1.0, 1.0])
    assert (early, middle, late) == pytest.approx((1.0, 2 / 3, 0.5))


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "member", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
