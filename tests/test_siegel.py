import cmath
import math

import pytest

from sp4cert.errors import DomainError
from sp4cert.siegel import (
    MAX_SAMPLES,
    SiegelPoint,
    boundary_map,
    homotopy_h,
    section4_check,
    theta_path,
)


def test_path_starts_at_center():
    pt = theta_path(0.0, 2.0)
    assert pt.tau1 == 2j and pt.tau2 == 0 and pt.tau3 == 2j


def test_path_ends_at_translate():
    # the endpoint is the unipotent translate of diag(ic, ic): tau1 + 1
    c = 1.5
    pt = theta_path(1.0, c)
    assert pt.tau1 == 1 + c * 1j
    assert pt.tau2 == 0 and pt.tau3 == c * 1j


def test_path_imaginary_part_positive_definite():
    c = 2.0
    for i in range(100):
        t = i / 99
        assert theta_path(t, c).imag_positive_definite(eps=c - 1e-9)


def test_path_domain_errors():
    with pytest.raises(DomainError):
        theta_path(-0.1, 1.0)
    with pytest.raises(DomainError):
        theta_path(1.1, 1.0)
    with pytest.raises(DomainError):
        theta_path(0.5, 0.0)


def test_boundary_map_center():
    c = 1.0
    out = boundary_map(SiegelPoint(c * 1j, 0j, c * 1j))
    assert abs(out.z - math.exp(-2 * math.pi * c)) < 1e-15
    assert out.tau2 == 0 and out.tau3 == c * 1j


def test_boundary_map_constant_modulus_along_path():
    c = 2.0
    r = math.exp(-2 * math.pi * c)
    for i in range(100):
        t = i / 99
        z = boundary_map(theta_path(t, c)).z
        assert abs(abs(z) - r) < 1e-15 * (1 + r)


def test_boundary_map_underflows_gracefully():
    out = boundary_map(SiegelPoint(1e6j, 0j, 1e6j))
    assert out.z == 0


def test_homotopy_contracted_end():
    c = 1.0
    r = math.exp(-2 * math.pi * c)
    for i in range(20):
        t = i / 19
        assert abs(homotopy_h(0.0, t, c).z - r) < 1e-15


def test_homotopy_t_periodic():
    c = 0.7
    for i in range(50):
        s = i / 49
        assert abs(homotopy_h(s, 0.0, c).z - homotopy_h(s, 1.0, c).z) < 1e-12


def test_homotopy_slice_is_loop():
    c = 1.0
    for i in range(50):
        t = i / 49
        expected = cmath.exp(2j * math.pi * t) * math.exp(-2 * math.pi * c)
        assert abs(homotopy_h(1.0, t, c).z - expected) < 1e-15


def test_disc_radius_on_grid():
    c = 1.0
    r = math.exp(-2 * math.pi * c)
    top = 0.0
    for i in range(201):
        for j in range(201):
            top = max(top, abs(homotopy_h(i / 200, j / 200, c).z))
    assert abs(top - r) < 1e-12


def test_homotopy_domain_errors():
    with pytest.raises(DomainError):
        homotopy_h(2.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        homotopy_h(0.0, 0.0, -1.0)


def test_section_check_passes():
    report = section4_check(1.0, samples=1000, tol=1e-10)
    assert report.passed
    assert report.lines()[-1] == "PASS"


def test_section_check_radius_shrinks_with_c():
    r3 = section4_check(3.0, samples=200, tol=1e-10).disc_radius
    r1 = section4_check(1.0, samples=200, tol=1e-10).disc_radius
    assert r3 < r1
    assert abs(r3 - math.exp(-6 * math.pi)) < 1e-10
    assert math.exp(-6 * math.pi) < math.exp(-2 * math.pi)


def test_section_check_zero_tolerance_fails():
    report = section4_check(1.0, samples=300, tol=0.0)
    assert not report.passed
    worst = max(ch.max_residual for ch in report.checks)
    assert worst > 0.0
    assert report.lines()[-1] == "FAIL"


def test_section_check_domain_errors():
    with pytest.raises(DomainError):
        section4_check(0.0)
    with pytest.raises(DomainError):
        section4_check(1.0, samples=1)
    with pytest.raises(DomainError, match="from 2 to"):
        section4_check(1.0, samples=MAX_SAMPLES + 1)
    with pytest.raises(DomainError):
        section4_check(1.0, tol=-1e-3)


def test_orientation_recorded():
    report = section4_check(0.5, samples=128, tol=1e-10)
    assert report.orientation in ("same", "reversed")
    # direct substitution of tau1 = ic + t runs the phase forward
    assert report.orientation == "same"
