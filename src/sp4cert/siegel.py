"""Floating-point checks for the boundary-map path and null homotopy.

The exact-arithmetic modules never touch this file; everything here is
double precision with an explicit tolerance, because its job is to
check formula transcription at sampled points, not to prove anything.

The objects:

* ``theta_path(t, c)`` -- the straight path in the degree-2 upper
  half-space from ``ic * 1`` to its image under the unipotent
  translation M0 (which shifts tau1 by 1), i.e. the point
  ``((ic + t, 0), (0, ic))``.

* ``boundary_map`` -- ``(tau1, tau2; tau2, tau3) |-> (exp(2 pi i tau1),
  tau2, tau3)``, the chart near the central boundary component.

* ``homotopy_h(s, t, c)`` -- ``((s e^{2 pi i t} + 1 - s) e^{-2 pi c},
  0, ic)``: at s=1 it is the image of the path, at s=0 the constant
  loop, so it contracts the loop inside the disc of radius
  ``e^{-2 pi c}``.

Orientation note: direct substitution of tau1 = ic + t gives the loop
``e^{-2 pi c} e^{+2 pi i t}``; a common transcription writes the
exponent with the opposite sign.  The checker compares the two loops as
*point sets* (phase-sorted), so either orientation passes, and the
report records which orientation was observed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

TWO_PI = 2.0 * math.pi
MAX_SAMPLES = 10**6  # the samples are held in lists of floats built up front


@dataclass(frozen=True)
class SiegelPoint:
    """Symmetric 2x2 complex matrix ((tau1, tau2), (tau2, tau3));
    symmetry is structural, positive-definite imaginary part is a
    numeric check."""

    tau1: complex
    tau2: complex
    tau3: complex

    def imag_positive_definite(self, eps: float = 0.0) -> bool:
        minor1 = self.tau1.imag
        minor2 = self.tau1.imag * self.tau3.imag - self.tau2.imag ** 2
        return minor1 > eps and minor2 > eps


@dataclass(frozen=True)
class BoundaryCoord:
    z: complex
    tau2: complex
    tau3: complex


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_scale(c: float) -> float:
    if not 0.0 < c < math.inf:
        raise DomainError(f"c must be positive and finite, got {c}")
    return c


def theta_path(t: float, c: float) -> SiegelPoint:
    """Point at parameter t of the path from ic*1 to its M0-translate."""
    _check_unit("t", t)
    _check_scale(c)
    return SiegelPoint(tau1=complex(t, c), tau2=0j, tau3=complex(0.0, c))


def boundary_map(tau: SiegelPoint) -> BoundaryCoord:
    """Chart (tau1, tau2, tau3) -> (exp(2 pi i tau1), tau2, tau3)."""
    return BoundaryCoord(
        z=cmath.exp(2j * math.pi * tau.tau1), tau2=tau.tau2, tau3=tau.tau3
    )


def homotopy_h(s: float, t: float, c: float) -> BoundaryCoord:
    """Contraction of the boundary loop: s=1 is the loop, s=0 the point."""
    _check_unit("s", s)
    _check_unit("t", t)
    _check_scale(c)
    z = (s * cmath.exp(2j * math.pi * t) + 1.0 - s) * math.exp(-TWO_PI * c)
    return BoundaryCoord(z=z, tau2=0j, tau3=complex(0.0, c))


@dataclass(frozen=True)
class SectionCheck:
    name: str
    max_residual: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class SectionReport:
    c: float
    samples: int
    tol: float
    checks: tuple[SectionCheck, ...]
    disc_radius: float  # max |z| observed over the homotopy grid
    orientation: str  # "same" or "reversed" phase direction

    @property
    def passed(self) -> bool:
        return all(ch.ok for ch in self.checks)

    def lines(self) -> list[str]:
        out = [
            f"boundary-formula checks at c = {self.c} "
            f"({self.samples} samples, tol {self.tol:g})"
        ]
        for ch in self.checks:
            status = "pass" if ch.ok else "FAIL"
            line = f"  {status}  {ch.name}  max residual {ch.max_residual:.3e}"
            if ch.note:
                line += f"  [{ch.note}]"
            out.append(line)
        out.append(f"  disc radius {self.disc_radius:.12e} "
                   f"(exp(-2 pi c) = {math.exp(-TWO_PI * self.c):.12e})")
        out.append("PASS" if self.passed else "FAIL")
        return out


def _phase_sorted(points: list[complex]) -> list[complex]:
    return sorted(points, key=lambda z: math.atan2(z.imag, z.real))


def section4_check(c: float, samples: int = 1000, tol: float = 1e-10) -> SectionReport:
    """Sampled consistency checks for the path, chart and homotopy.

    (a) the s=1 slice of the homotopy traces the same circle as the
        chart image of the path, compared orientation-agnostically as
        phase-sorted point sets;
    (b) the homotopy is a null homotopy: t-periodic for every s, and
        constant in t at s=0;
    (c) every homotopy value stays inside the closed disc of radius
        exp(-2 pi c), and that radius is attained (at s=1).
    """
    _check_scale(c)
    if not 2 <= samples <= MAX_SAMPLES:
        raise DomainError(f"samples must be from 2 to {MAX_SAMPLES}, got {samples}")
    if not tol >= 0.0:
        raise DomainError(f"tol must be nonnegative, got {tol}")

    radius = math.exp(-TWO_PI * c)
    checks: list[SectionCheck] = []

    ts = [i / samples for i in range(samples)]
    path_loop = [boundary_map(theta_path(t, c)).z for t in ts]
    slice_loop = [homotopy_h(1.0, t, c).z for t in ts]

    # (a) point-set comparison, orientation-agnostic
    res_a = max(
        abs(a - b)
        for a, b in zip(_phase_sorted(path_loop), _phase_sorted(slice_loop))
    )
    checks.append(SectionCheck("loop-traces-homotopy-slice", res_a, res_a <= tol))

    # orientation of the path loop relative to e^{+2 pi i t}
    probe = path_loop[1] / path_loop[0] if path_loop[0] != 0 else 1.0
    orientation = "same" if probe.imag >= 0 else "reversed"

    # (b) endpoint and constancy conditions
    ss = [i / samples for i in range(samples + 1)]
    res_period = max(abs(homotopy_h(s, 0.0, c).z - homotopy_h(s, 1.0, c).z) for s in ss)
    checks.append(SectionCheck("homotopy-t-periodic", res_period, res_period <= tol))
    res_const = max(abs(homotopy_h(0.0, t, c).z - radius) for t in ts)
    checks.append(
        SectionCheck("contracted-end-is-constant", res_const, res_const <= tol)
    )

    # (c) disc bound on a grid; the radius must be attained at s = 1
    grid = min(samples, 200)
    max_abs = 0.0
    for i in range(grid + 1):
        s = i / grid
        for j in range(grid + 1):
            t = j / grid
            max_abs = max(max_abs, abs(homotopy_h(s, t, c).z))
    res_disc = abs(max_abs - radius)
    checks.append(
        SectionCheck(
            "disc-radius-attained",
            res_disc,
            max_abs <= radius + tol and res_disc <= tol,
            note=f"orientation {orientation}",
        )
    )

    return SectionReport(
        c=c,
        samples=samples,
        tol=tol,
        checks=tuple(checks),
        disc_radius=max_abs,
        orientation=orientation,
    )
