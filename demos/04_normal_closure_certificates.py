"""
Normal-closure certificates
============================

A certificate is a straight-line program whose leaves are the seed M0
and matrices congruent to 1 mod p^2, combined by multiplication,
inversion, and conjugation by elements of the rational group
gamma0_1p.  A passing certificate is a machine-checkable witness that
its target lies in the normal closure of the seeds; building one for
every element of gamma_1p realises the generation claim element by
element.
"""

from sp4cert import (
    GroupLabel,
    SampleSpec,
    build_generator_certs,
    cert_verify,
    normal_closure_witness,
    parse,
    sample,
    serialize,
)

p = 3

# The six named generators first: each certificate embeds the chains of
# the identity suite, sharing subgraphs (the L4 chain appears once).
table = build_generator_certs(p)
for name, cert in table.items():
    report = cert_verify(cert)
    print(f"{name}: {cert.node_count:3d} nodes, verdict {report.passed}")

# Any member: decompose into a word, splice each letter down to seeds.
k = sample(SampleSpec(group=GroupLabel.GAMMA_1P, p=p, seed=99, word_length=10))
cert = normal_closure_witness(k, p)
print(f"\nwitness for a word of length 10: {cert.node_count} nodes")
for line in cert_verify(cert).lines():
    print(line)

# Round-trip through JSON is bit-exact.
text = serialize(cert)
assert parse(text) == cert
print(f"\nserialised certificate: {len(text)} bytes")

# The verifier trusts nothing: damaging any single node flips the
# verdict.  Here we sour one seed by adding a unit in a slot that the
# mod-p^2 condition forbids.
from sp4cert.certificates import SEED_P2, Certificate, CertNode
from sp4cert.matrices import Mat4

nodes = list(cert.nodes)
for i, node in enumerate(nodes):
    if node.op == SEED_P2:
        rows = [list(row) for row in node.value.rows]
        rows[0][1] += 1  # entry (1,2)
        nodes[i] = CertNode(SEED_P2, (), Mat4(rows))
        break
tampered = Certificate(cert.p, tuple(nodes), cert.root, cert.target)
print("\ntampered seed detected:", not cert_verify(tampered).passed)
