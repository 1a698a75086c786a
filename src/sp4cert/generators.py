"""Named generators, parametric in the odd prime p, and identity checks.

All matrices are unipotent except the change-of-coordinates matrix R
and the two symplectic forms.  ``E(i,j)`` below denotes the matrix unit
with a single 1 at row i, column j (1-based).

====  =======================================  home group
M0    1 + E(1,3)                               gamma_1p
M1    1 + E(3,2) + E(4,1)                      gamma_1p
M2    1 + p E(1,4) + p E(2,3)                  gamma_1p
M3    1 + E(1,2) - E(4,3)                      gamma_1p
M4    1 - p E(2,1) + p E(3,4)                  gamma_1p
Mt1   1 + E(3,2) + p E(4,1)                    gamma_tilde_1p
Mt2   1 + E(1,4) + p E(2,3)                    gamma_tilde_1p
Mt3   1 + E(1,2) - p E(4,3)                    gamma_tilde_1p
Mt4   1 - p E(2,1) + E(3,4)                    gamma_tilde_1p
L1    1 + p^2 E(2,4)                           gamma_p2
L2    1 - 2 E(4,2)                             gamma_1p
L3    1 + p^2 E(4,2)                           gamma_p2
L4    1 + E(4,2)                               gamma_1p
L5    1 + E(3,1)                               gamma_1p
P     ((1,0),(p,1))  (2x2)                     gamma1_of_p
R     diag(1,1,1,p)
====  =======================================  ==============

Rows M0..L5 are kept as data in ``_ENTRIES``, the identity plus the
listed entries N, and :func:`generator_power` writes ``1 + e N`` entry
by entry, with no matrix product.  That is the power e exactly: in each
row, the product of two listed units E(i,j) E(k,l) is zero because
j != k, so N N = 0.  It builds each generator (e = 1) and each named
letter of ``decompose`` (a power e of M_i or Mt_i is that of Mt_i).

A widely reproduced variant of M1 has row 4 equal to (1,0,0,0); that
matrix is singular (rows 1 and 4 coincide), and conjugation by R then
cannot land on Mt1, whose row 4 is (p,0,0,1).  The entry (4,4) = 1 used
here is forced by both constraints; the tests pin this correction.

``verify_identities`` replays, with exact arithmetic, the six product
identities that drive the generation of M1..M4 from M0 and level-p^2
elements.  Identity ``m4-from-l5-commutator`` requires the *positive*
power of L1: the exact computation gives

    L5^-1 M2^-1 L5 M2      =  M4 L1^-1,

so multiplying by L1 (not L1^-1) on the right yields M4; the -1
variant leaves the product at M4 L1^-2.  That residual and L4 = j2(P)
are checked, not reported: either failure raises
:class:`ShapeAssertionFailed`, also under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ShapeAssertionFailed, UnknownName
from .groups import SymplecticForm, j1_embed, j2_embed, require_odd_prime
from .matrices import Mat2, Mat4, ext_gcd

GENERATOR_NAMES = (
    "M0", "M1", "M2", "M3", "M4",
    "Mt1", "Mt2", "Mt3", "Mt4",
    "L1", "L2", "L3", "L4", "L5",
    "P", "R", "J", "Lambda",
)


# M0..L5 as the identity plus these (1-based) entries, row for row as in
# the module table
_ENTRIES = {
    "M0": lambda p: {(1, 3): 1},
    "M1": lambda p: {(3, 2): 1, (4, 1): 1},
    "M2": lambda p: {(1, 4): p, (2, 3): p},
    "M3": lambda p: {(1, 2): 1, (4, 3): -1},
    "M4": lambda p: {(2, 1): -p, (3, 4): p},
    "Mt1": lambda p: {(3, 2): 1, (4, 1): p},
    "Mt2": lambda p: {(1, 4): 1, (2, 3): p},
    "Mt3": lambda p: {(1, 2): 1, (4, 3): -p},
    "Mt4": lambda p: {(2, 1): -p, (3, 4): 1},
    "L1": lambda p: {(2, 4): p * p},
    "L2": lambda p: {(4, 2): -2},
    "L3": lambda p: {(4, 2): p * p},
    "L4": lambda p: {(4, 2): 1},
    "L5": lambda p: {(3, 1): 1},
}

# (name, p) pairs kept built; p can come from user input, so the cache is bounded
_GENERATOR_CACHE_SIZE = 256


def generator(name: str, p: int) -> Mat4 | Mat2:
    """The named generator at the odd prime p (P is the only 2x2).

    Each ``(name, p)`` is built once and the immutable matrix shared;
    ``BadPrime`` and ``UnknownName`` are raised on every call."""
    require_odd_prime(p)
    if name not in GENERATOR_NAMES:
        raise UnknownName(f"no generator named {name!r}")
    return _build_generator(name, p)


def generator_power(name: str, p: int, e: int) -> Mat4:
    """``1 + e N``, the e-th power of the generator ``name`` = ``1 + N`` of
    ``_ENTRIES``, written entry by entry; name and p are not checked."""
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for (i, j), x in _ENTRIES[name](p).items():
        rows[i - 1][j - 1] += e * x
    return Mat4.from_pair(1, tuple(map(tuple, rows)))


@lru_cache(maxsize=_GENERATOR_CACHE_SIZE)
def _build_generator(name: str, p: int) -> Mat4 | Mat2:
    if name in _ENTRIES:
        return generator_power(name, p, 1)
    if name == "P":
        return Mat2.of(1, 0, p, 1)
    if name == "R":
        return Mat4.diagonal(1, 1, 1, p)
    if name == "J":
        return SymplecticForm.standard().matrix
    return SymplecticForm.polarised(p).matrix  # Lambda


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class IdentityReport:
    p: int
    checks: tuple[IdentityCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"identity checks at p = {self.p}"]
        for c in self.checks:
            status = "pass" if c.holds else "FAIL"
            line = f"  {status}  {c.name}"
            if c.note:
                line += f"  [{c.note}]"
            out.append(line)
        out.append(f"{'PASS' if self.passed else 'FAIL'}")
        return out


def verify_identities(p: int) -> IdentityReport:
    """Replay the six generating identities exactly; nothing is assumed."""
    require_odd_prime(p)
    g = {n: generator(n, p) for n in ("M0", "M1", "M2", "M3", "M4",
                                      "L1", "L2", "L3", "L4", "L5")}
    m0, m1, m2, m3, m4 = (g[k] for k in ("M0", "M1", "M2", "M3", "M4"))
    l1, l2, l3, l4, l5 = (g[k] for k in ("L1", "L2", "L3", "L4", "L5"))

    checks: list[IdentityCheck] = []

    def record(name: str, lhs: Mat4, rhs: Mat4, note: str = "") -> None:
        checks.append(IdentityCheck(name, lhs == rhs, note))

    # m2: commutator of m0 with m4, then strip the level-p^2 part
    record("m2-from-m0-commutator", m4.inv() * m0 * m4 * m0.inv() * l1.inv(), m2)

    # l2: two m1-conjugates of m0 followed by j1((1,-2),(0,1))
    record(
        "l2-from-m1-chain",
        m1 * m0 * m1.inv() * m1.inv() * m0 * m1 * j1_embed(Mat2.of(1, -2, 0, 1)),
        l2,
    )

    # l4: combine powers of l2 and l3 using -2*lam + p^2*mu = 1
    _, lam, mu = ext_gcd(-2, p * p)
    record(
        "l4-power-combination",
        l2 ** lam * l3 ** mu,
        l4,
        note=f"lam={lam} mu={mu} from ext_gcd(-2, {p * p})",
    )
    if l4 != j2_embed(Mat2.of(1, 0, p, 1), p):
        raise ShapeAssertionFailed(f"L4 is not j2(P) at p={p}")

    # m3: l4 times an m1-conjugate of m0 times m0^-1 inverts to m3
    record("m3-from-l4-chain", (l4 * m1 * m0 * m1.inv() * m0.inv()).inv(), m3)

    # m4: l5/m2 commutator; needs the +1 power of l1 (the -1 power
    # leaves m4 * l1^-2, which is checked below)
    record(
        "m4-from-l5-commutator",
        l5.inv() * m2.inv() * l5 * m2 * l1,
        m4,
        note="uses l1^+1; the l1^-1 variant equals m4*l1^-2",
    )
    if l5.inv() * m2.inv() * l5 * m2 * l1.inv() != m4 * l1 ** -2:
        raise ShapeAssertionFailed(f"the l1^-1 variant is not m4*l1^-2 at p={p}")

    # m1: chain through m3, l5, l4, l2
    record(
        "m1-from-m3-chain",
        (m3 * l5 * l4 * m3.inv() * l5.inv() * l2).inv(),
        m1,
    )

    return IdentityReport(p=p, checks=tuple(checks))
