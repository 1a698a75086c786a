import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sp4cert
from support import mat4_det, mat4_sub

from sp4cert.certificates import verify_identities
from sp4cert.cli import main
from sp4cert.errors import BadPrime, ShapeAssertionFailed, UnknownName
from sp4cert.generators import GENERATOR_NAMES, _ENTRIES, generator
from sp4cert.groups import GroupLabel, member, r_conjugate
from sp4cert.matrices import Mat2, Mat4


def test_m2_table_entry():
    assert generator("M2", 3) == Mat4(
        [[1, 0, 0, 3], [0, 1, 3, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def test_l1_table_entry():
    assert generator("L1", 5) == Mat4(
        [[1, 0, 0, 0], [0, 1, 0, 25], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


# every unipotent generator, entry for entry, as first built from
# products of matrix units
PINNED = {
    3: {
        "M0": ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "M1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)),
        "M2": ((1, 0, 0, 3), (0, 1, 3, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "M3": ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1)),
        "M4": ((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 3), (0, 0, 0, 1)),
        "Mt1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (3, 0, 0, 1)),
        "Mt2": ((1, 0, 0, 1), (0, 1, 3, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "Mt3": ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -3, 1)),
        "Mt4": ((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)),
        "L1": ((1, 0, 0, 0), (0, 1, 0, 9), (0, 0, 1, 0), (0, 0, 0, 1)),
        "L2": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -2, 0, 1)),
        "L3": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 9, 0, 1)),
        "L4": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)),
        "L5": ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)),
    },
    7: {
        "M0": ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "M1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)),
        "M2": ((1, 0, 0, 7), (0, 1, 7, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "M3": ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -1, 1)),
        "M4": ((1, 0, 0, 0), (-7, 1, 0, 0), (0, 0, 1, 7), (0, 0, 0, 1)),
        "Mt1": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (7, 0, 0, 1)),
        "Mt2": ((1, 0, 0, 1), (0, 1, 7, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        "Mt3": ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, -7, 1)),
        "Mt4": ((1, 0, 0, 0), (-7, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)),
        "L1": ((1, 0, 0, 0), (0, 1, 0, 49), (0, 0, 1, 0), (0, 0, 0, 1)),
        "L2": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -2, 0, 1)),
        "L3": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 49, 0, 1)),
        "L4": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)),
        "L5": ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)),
    },
}


@pytest.mark.parametrize("p", sorted(PINNED))
def test_unipotent_generators_are_pinned(p):
    assert set(PINNED[p]) == set(GENERATOR_NAMES) - {"P", "R", "J", "Lambda"}
    for name, rows in PINNED[p].items():
        assert generator(name, p) == Mat4(rows), name


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_entry_table_squares_to_zero(p):
    # a letter's power is read off the table as 1 + e N, exact only if N N = 0
    zero = Mat4([[0] * 4] * 4)
    for name, entries in _ENTRIES.items():
        n = Mat4(
            [[entries(p).get((i, j), 0) for j in range(1, 5)] for i in range(1, 5)]
        )
        assert n * n == zero, name
        assert mat4_sub(generator(name, p), Mat4.identity()) == n, name


def test_m1_has_unit_corner():
    # row 4 must be (1,0,0,1); with (4,4) = 0 the matrix is singular and
    # R-conjugation cannot reach Mt1, whose row 4 is (p,0,0,1)
    for p in (3, 7, 19):
        m1 = generator("M1", p)
        assert m1 == Mat4(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
        )
        assert mat4_det(m1) == 1
        assert r_conjugate(m1, p) == generator("Mt1", p)


def test_p_is_2x2():
    assert generator("P", 5) == Mat2.of(1, 0, 5, 1)


@pytest.mark.parametrize("p", [3, 7])
def test_r_j_and_lambda_are_pinned(p):
    # R = diag(1,1,1,p) conjugates M1 onto Mt1, as r_conjugate does
    r = generator("R", p)
    assert r == Mat4([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, p]])
    m1 = generator("M1", p)
    assert r * m1 * r.inv() == r_conjugate(m1, p) == generator("Mt1", p)
    assert generator("J", p) == Mat4([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert generator("Lambda", p) == Mat4([[0, 0, 1, 0], [0, 0, 0, p], [-1, 0, 0, 0], [0, -p, 0, 0]])


def test_unknown_name():
    with pytest.raises(UnknownName):
        generator("M9", 3)


def test_bad_prime():
    with pytest.raises(BadPrime):
        generator("M0", 4)


def test_errors_repeat_on_every_call():
    for _ in range(2):
        with pytest.raises(BadPrime):
            generator("Mt3", 9)
        with pytest.raises(BadPrime):
            generator("Mt3", [11])
        with pytest.raises(UnknownName):
            generator("Mt9", 11)
        with pytest.raises(UnknownName):
            generator(["Mt3"], 11)


def test_home_group_membership():
    for p in (3, 5, 7):
        for name in ("M0", "M1", "M2", "M3", "M4", "L2", "L4", "L5"):
            assert member(generator(name, p), GroupLabel.GAMMA_1P, p), (name, p)
        for name in ("L1", "L3"):
            assert member(generator(name, p), GroupLabel.GAMMA_P2, p), (name, p)
        for name in ("Mt1", "Mt2", "Mt3", "Mt4"):
            assert member(generator(name, p), GroupLabel.GAMMA_TILDE_1P, p), (name, p)
        assert member(generator("P", p), GroupLabel.GAMMA1_OF_P, p)


def test_tilde_conjugates():
    for p in (3, 5, 11):
        for i in range(1, 5):
            assert r_conjugate(generator(f"M{i}", p), p) == generator(f"Mt{i}", p)


@pytest.mark.parametrize("p", [3, 5])
def test_identities_pass(p):
    report = verify_identities(p)
    assert report.passed
    assert len(report.checks) == 6
    names = [c.name for c in report.checks]
    assert names == [
        "m2-from-m0-commutator",
        "l2-from-m1-chain",
        "l4-power-combination",
        "m3-from-l4-chain",
        "m4-from-l5-commutator",
        "m1-from-m3-chain",
    ]


def test_identity_report_lines_end_with_verdict():
    lines = verify_identities(3).lines()
    assert lines[-1] == "PASS"


@pytest.fixture()
def table(monkeypatch):
    """Set one row of ``_ENTRIES``; the table is restored after the test."""
    def corrupt(name, entries):
        monkeypatch.setitem(_ENTRIES, name, lambda p: entries)

    return corrupt


def test_generator_reads_its_table_on_every_call(table):
    assert generator("Mt3", 11) == Mat4(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -11, 1]]
    )
    table("Mt3", {(1, 2): 2})
    assert generator("Mt3", 11) == Mat4(
        [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def test_a_bad_generator_is_blamed_at_its_own_link(table):
    # the M4 link conjugates the chain's M2 node, not the table's M2
    table("M2", {(1, 4): 3, (2, 3): 6})
    report = verify_identities(3)
    assert [c.name for c in report.checks if not c.holds] == ["m2-from-m0-commutator"]
    assert report.lines()[-1] == "FAIL"


def test_l5_from_the_seeds_is_checked_not_reported(table):
    table("L5", {(3, 1): 2})
    with pytest.raises(ShapeAssertionFailed, match="the L5 chain does not evaluate to its target at p=3"):
        verify_identities(3)


def test_a_conjugator_outside_gamma0_1p_is_refused(table, capsys):
    # M1 off gamma0_1p: the builder interns it as it is, and cert_verify
    # refuses each identity whose chain conjugates by it
    table("M1", {(1, 1): 1, (3, 2): 1, (4, 1): 1})
    assert main(["check-identities", "--p", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("  FAIL")] == [
        "l2-from-m1-chain", "l4-power-combination", "m3-from-l4-chain", "m1-from-m3-chain"
    ]
    assert lines[-1] == "FAIL"


def test_table_checks_survive_python_optimise_flag():
    # L4 = j2(P) is checked, not reported: breaking it must raise under -O
    # too; a broken L1 must read FAIL at both identities that use it
    script = textwrap.dedent("""
        import importlib

        from sp4cert.errors import ShapeAssertionFailed

        assert False, "python -O was expected to strip this"
        gens = importlib.import_module("sp4cert.generators")
        certs = importlib.import_module("sp4cert.certificates")
        for name, entries in (("L4", {(4, 2): 2}), ("L1", {(2, 4): 18})):
            saved = gens._ENTRIES[name]
            gens._ENTRIES[name] = lambda p, entries=entries: entries
            try:
                for line in certs.verify_identities(3).lines():
                    print(line)
            except ShapeAssertionFailed as exc:
                print(f"rejected {name}: {exc}")
            gens._ENTRIES[name] = saved
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
    assert done.stdout.splitlines() == [
        "rejected L4: L4 is not j2(P) at p=3",
        "identity checks at p = 3",
        "  FAIL  m2-from-m0-commutator",
        "  pass  l2-from-m1-chain",
        "  pass  l4-power-combination  [lam=4 mu=1 from ext_gcd(-2, 9)]",
        "  pass  m3-from-l4-chain",
        "  FAIL  m4-from-l5-commutator  [uses l1^+1; the l1^-1 variant equals m4*l1^-2]",
        "  pass  m1-from-m3-chain",
        "FAIL",
    ]


def test_check_identities_exits_one_on_a_broken_l1(table, capsys):
    table("L1", {(2, 4): 18})
    assert main(["check-identities", "--p", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "FAIL" in line] == [
        "  FAIL  m2-from-m0-commutator",
        "  FAIL  m4-from-l5-commutator  [uses l1^+1; the l1^-1 variant equals m4*l1^-2]",
        "FAIL",
    ]


def test_commutator_intermediate_block():
    p = 3
    m0, m4 = generator("M0", p), generator("M4", p)
    x = m4.inv() * m0 * m4 * m0.inv()
    assert [x.rows[0][2], x.rows[0][3]] == [0, p]
    assert [x.rows[1][2], x.rows[1][3]] == [p, p * p]


def test_l1_exponent_convention():
    # the commutator produces M4 * L1^-1, so the +1 power of L1 closes
    # the identity while the -1 power leaves a residual of L1^-2
    for p in (3, 7):
        m2, m4 = generator("M2", p), generator("M4", p)
        l1, l5 = generator("L1", p), generator("L5", p)
        comm = l5.inv() * m2.inv() * l5 * m2
        assert comm == m4 * l1.inv()
        assert comm * l1 == m4
        assert comm * l1.inv() == m4 * l1 ** -2
        assert comm * l1.inv() != m4


def test_generator_names_complete():
    for name in GENERATOR_NAMES:
        generator(name, 3)  # must not raise
