"""Named generators, parametric in the odd prime p.

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

Rows M0..L5 are kept as data in ``_ENTRIES``, the identity plus the listed
entries N, read on every call.  :func:`times_power` right-multiplies by
``1 + e N``, the power e exactly, in one pass: ``Mat4.times_shears`` applies
one shear ``col_j += e x col_i`` per entry x at (i, j) to one copy of the
flat entries.  In each row, the product of two listed units E(i,j) E(k,l) is
zero because j != k, so N N = 0 and no target column is a source column.  It
builds each generator from the identity (e = 1), and ``decompose.Named.times``
applies each named letter by it (that of M_i or Mt_i is Mt_i's).

A widely reproduced variant of M1 has row 4 equal to (1,0,0,0); that
matrix is singular (rows 1 and 4 coincide), and conjugation by R then
cannot land on Mt1, whose row 4 is (p,0,0,1).  The entry (4,4) = 1 used
here is forced by both constraints; the tests pin this correction.
"""

from __future__ import annotations

from .errors import UnknownName
from .groups import SymplecticForm, require_odd_prime
from .matrices import Mat2, Mat4

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

GENERATOR_NAMES = (*_ENTRIES, "P", "R", "J", "Lambda")


def generator(name: str, p: int) -> Mat4 | Mat2:
    """The named generator at the odd prime p (P is the only 2x2), built
    on each call; ``BadPrime`` is checked before ``UnknownName``."""
    require_odd_prime(p)
    if name not in GENERATOR_NAMES:
        raise UnknownName(f"no generator named {name!r}")
    if name in _ENTRIES:
        return times_power(Mat4.identity(), name, p, 1)
    if name == "P":
        return Mat2.of(1, 0, p, 1)
    if name == "R":
        return Mat4.diagonal(1, 1, 1, p)
    if name == "J":
        return SymplecticForm.standard().matrix
    return SymplecticForm.polarised(p).matrix  # Lambda


def times_power(m: Mat4, name: str, p: int, e: int) -> Mat4:
    """``m (1 + e N)``, m times the e-th power of the generator ``name`` =
    ``1 + N`` of ``_ENTRIES``, all its shears on one copy; name and p are not checked."""
    return m.times_shears(_ENTRIES[name](p), e)
