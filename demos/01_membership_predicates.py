"""
Membership predicates for the (1,p) congruence family
======================================================

Walks through the symplectic forms, the entrywise congruence patterns,
and the short/long classification of integer row vectors.
"""

from sp4cert import (
    GroupLabel,
    SymplecticForm,
    generator,
    j2_embed,
    member,
    r_conjugate,
    symplectic_check,
    vector_class,
)
from sp4cert.matrices import Mat2, mat4_to_lists

p = 5

# Two symplectic forms drive everything: the standard J and the
# (1,p)-polarised Lambda, which differ by the diagonal matrix
# R = diag(1,1,1,p):  Lambda = R J R.
J = SymplecticForm.standard()
L = SymplecticForm.polarised(p)
print("J =", mat4_to_lists(J.matrix))
print("Lambda =", mat4_to_lists(L.matrix))

# Group elements act on row vectors from the right, so preserving a
# form means g * form * g^T == form.
m2 = generator("M2", p)
print("\nM2 preserves J:", symplectic_check(m2, J))
print("M2 in gamma_1p:", member(m2, GroupLabel.GAMMA_1P, p))

# Conjugating by R carries the plain family into the tilde family,
# where membership is a mod-p condition on rows 2 and 4.
mt2 = r_conjugate(m2, p)
print("R M2 R^-1 equals the tilde generator:", mt2 == generator("Mt2", p))
print("it lies in gamma_tilde_1p:", member(mt2, GroupLabel.GAMMA_TILDE_1P, p))

# j1 embeds SL(2,Z) along coordinates (1,3); j2 embeds along (2,4) and
# may produce one rational entry, which the rational group gamma0_1p
# accepts in its single (1/p)Z slot.
w = Mat2.of(0, -1, 1, 0)
img = j2_embed(w, p)
print("\nj2 of a rotation has entry (4,2) =", img.rows[3][1])
print("member of gamma0_1p:", member(img, GroupLabel.GAMMA0_1P, p))
print("member of gamma_1p:", member(img, GroupLabel.GAMMA_1P, p))

# A nonzero integer vector is short when gcd(v1, p*v2, v3, p*v4) = 1.
# Rows of tilde members split cleanly: first row short, second row long.
k = r_conjugate(generator("M1", p) * m2, p)
row1 = tuple(int(x) for x in k.rows[0])
row2 = tuple(int(x) for x in k.rows[1])
print("\nfirst row", row1, "->", vector_class(row1, p).value)
print("second row", row2, "->", vector_class(row2, p).value)
