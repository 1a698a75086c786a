"""Shared helpers for the test suite: deterministic corpora, reference
forms of the program's arithmetic, and the certificate tamper engine
used by the mutation-soundness checks."""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from sp4cert.certificates import (
    CONJ,
    MUL,
    SEED_M0,
    SEED_P2,
    _BUDGET_SCALE,
    _BUDGET_SLACK,
    CertBuilder,
    Certificate,
    CertNode,
    _node_value,
)
from sp4cert.decompose import J1, GeneratorWord, Named
from sp4cert.errors import NotUnimodular, SingularMatrix
from sp4cert.generators import generator
from sp4cert.groups import TWO_BY_TWO_LABELS, GroupLabel, SymplecticForm, j1_embed, j2_embed, times_embedding
from sp4cert.matrices import Mat2, Mat4, _ratio_to_str, mat4_to_lists
from sp4cert.sampling import SampleSpec, sample


def corpus(group: GroupLabel, p: int, count: int, seed: int, max_len: int = 20):
    """Deterministic list of group members with word lengths 0..max_len."""
    out = []
    for i in range(count):
        spec = SampleSpec(group=group, p=p, seed=seed + i, word_length=i % (max_len + 1))
        out.append(sample(spec))
    return out


def wide_member(p: int, bits: int, seed: int = 1) -> Mat4:
    """A gamma_1p member whose widest entry has at least ``bits`` bits and
    not many more: a length-20 sample g, then squarings times g while the
    size stays under half of ``bits``, then products by g."""
    step = sample(SampleSpec(GroupLabel.GAMMA_1P, p, seed, 20))
    k = step
    while 2 * k.entry_bits() <= bits:
        k = k * k * step
    while k.entry_bits() < bits:
        k = k * step
    return k


@dataclass(frozen=True)
class ReferenceMat4:
    """``Mat4`` as first written: 16 ``Fraction`` entries, the triple-sum
    product, Gauss-Jordan for every inverse and :func:`reference_power`
    for powers.  The differential tests hold ``Mat4`` against it."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def of(m) -> "ReferenceMat4":
        """The reference twin of a ``Mat4``, or of 4 rows of exact numbers."""
        rows = m.rows if isinstance(m, Mat4) else m
        return ReferenceMat4(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @staticmethod
    def identity() -> "ReferenceMat4":
        return ReferenceMat4.of([[int(i == j) for j in range(4)] for i in range(4)])

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def __mul__(self, other: "ReferenceMat4") -> "ReferenceMat4":
        return ReferenceMat4(reference_product(self.rows, other.rows))

    def inv(self) -> "ReferenceMat4":
        """Exact inverse via Gauss-Jordan elimination over the rationals."""
        m = [list(r) for r in self.rows]
        inv = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        for col in range(4):
            pivot = next((r for r in range(col, 4) if m[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrix("4x4 determinant is zero")
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
            scale = m[col][col]
            m[col] = [x / scale for x in m[col]]
            inv[col] = [x / scale for x in inv[col]]
            for r in range(4):
                if r != col and m[r][col] != 0:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return ReferenceMat4(tuple(tuple(row) for row in inv))

    def __pow__(self, n: int) -> "ReferenceMat4":
        return reference_power(self, n)

    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(d, e)``: d the lcm of the denominators, e the 16 integer
        entries of ``d * self``, row-major."""
        d = math.lcm(*(x.denominator for row in self.rows for x in row))
        return d, tuple(int(x * d) for row in self.rows for x in row)

    def entry_bits(self) -> int:
        """Bits of the widest reduced numerator or denominator."""
        acc = 0
        for row in self.rows:
            for x in row:
                acc |= abs(x.numerator) | x.denominator
        return acc.bit_length()

    def to_lists(self) -> list[list[str]]:
        return [[_ratio_to_str(*x.as_integer_ratio()) for x in row] for row in self.rows]

    @staticmethod
    def from_lists(obj) -> "ReferenceMat4":
        kind, rows = reference_read_matrix(obj, 4)
        if kind != "rows":
            raise ValueError(rows)
        return ReferenceMat4(rows)


# entry syntax from the matrices docstring: no "-0", no leading zeros,
# nothing around the digits; "5/1" and "2/4" pass here and fail the
# str(Fraction(s)) == s test below
_REFERENCE_ENTRY = re.compile(r"(0|-?[1-9][0-9]*)(/[1-9][0-9]*)?")


def reference_read_matrix(obj, n: int):
    """``("rows", rows)``, the entries of an n x n interchange matrix as
    ``Fraction`` (n = 2: integers only), or ``("error", text)``, the
    ``ParseError`` text the program must raise.  The checks run one
    entry at a time in row-major order: the shape of the matrix, then
    of each row, then each of its entries is a string, spelled
    canonically (``str(Fraction(s)) == s``), readable under the int/str
    digit limit and, for n = 2, an integer."""
    if not isinstance(obj, list) or len(obj) != n:
        return "error", f"matrix must be a list of {n} rows"
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            return "error", f"row {i} must be a list of {n} entries"
        out = []
        for j, s in enumerate(row):
            where = f"at ({i},{j})"
            if not isinstance(s, str):
                return "error", f"entry {where} must be a string"
            if not _REFERENCE_ENTRY.fullmatch(s):
                return "error", f"bad scalar {s!r} {where}"
            try:
                x = Fraction(s)
            except ValueError as exc:
                return "error", f"entry too long to read {where}: {exc}"
            if str(x) != s:
                return "error", f"scalar {s!r} is not canonical {where}"
            if n == 2 and x.denominator != 1:
                return "error", f"entry {where} must be an integer"
            out.append(x)
        rows.append(tuple(out))
    return "rows", tuple(rows)


def reference_bit_budget(cert: Certificate) -> int:
    """``certificates._bit_budget`` read off the reference entries."""
    literals = [cert.target, *(node.value for node in cert.nodes if node.value is not None)]
    return _BUDGET_SCALE * max(ReferenceMat4.of(m).entry_bits() for m in literals) + _BUDGET_SLACK


def mat4_add(a: Mat4, b: Mat4) -> Mat4:
    """Entrywise sum."""
    return Mat4(tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows)))


def mat4_sub(a: Mat4, b: Mat4) -> Mat4:
    """Entrywise difference."""
    return Mat4(tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows)))


def mat4_transpose(m: Mat4) -> Mat4:
    return Mat4(tuple(zip(*m.rows)))


def mat4_det(m: Mat4) -> Fraction:
    """Determinant by cofactor expansion along the first row."""

    def det3(n):
        return (
            n[0][0] * (n[1][1] * n[2][2] - n[1][2] * n[2][1])
            - n[0][1] * (n[1][0] * n[2][2] - n[1][2] * n[2][0])
            + n[0][2] * (n[1][0] * n[2][1] - n[1][1] * n[2][0])
        )

    rows = m.rows
    total = Fraction(0)
    for j in range(4):
        minor = [[rows[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += (-1) ** j * rows[0][j] * det3(minor)
    return total


def certificate_to_json_obj(cert: Certificate) -> dict:
    """The JSON object of a certificate, as the program first built it
    before handing it to ``json.dumps``."""
    nodes = []
    for i, node in enumerate(cert.nodes):
        item: dict = {"id": i, "op": node.op, "args": list(node.args)}
        if node.value is not None:
            item["value"] = mat4_to_lists(node.value)
        nodes.append(item)
    return {
        "p": cert.p,
        "nodes": nodes,
        "root": cert.root,
        "target": mat4_to_lists(cert.target),
    }


def reference_certificate_text(cert: Certificate) -> str:
    """What ``certificates.serialize`` must write: the standard library's
    encoder on :func:`certificate_to_json_obj`."""
    return json.dumps(certificate_to_json_obj(cert), indent=1)


def evaluate(dag: Certificate | CertBuilder) -> list[Mat4]:
    """The value of every node of a certificate or a builder, in order; no
    side condition is checked, so the literals must preserve J, as
    ``_node_value`` requires."""
    m0 = generator("M0", dag.p)
    values: list[Mat4] = []
    for node in dag.nodes:
        values.append(_node_value(node, values, m0))
    return values


def reference_certificate(b: CertBuilder, root: int, target: Mat4) -> Certificate:
    """``CertBuilder.certificate`` as first written: the nodes reachable
    from ``root`` found with a stack and a set, sorted, and renumbered
    through a dict."""
    reachable: set[int] = set()
    stack = [root]
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        stack.extend(b.nodes[i].args)
    order = sorted(reachable)
    renumber = {old: new for new, old in enumerate(order)}
    nodes = tuple(
        CertNode(b.nodes[i].op, tuple(renumber[a] for a in b.nodes[i].args), b.nodes[i].value)
        for i in order
    )
    return Certificate(p=b.p, nodes=nodes, root=renumber[root], target=target)


def is_integral(m: Mat4) -> bool:
    """True iff every entry of ``m`` is an integer."""
    return all(x.denominator == 1 for row in m.rows for x in row)


def fraction_entries(m) -> bool:
    """True iff ``m`` is a ``Mat4`` whose entries are all ``Fraction``."""
    return isinstance(m, Mat4) and all(type(x) is Fraction for row in m.rows for x in row)


def reference_product(a, b) -> tuple[tuple, ...]:
    """The rows of the 4x4 product ``a b`` as the plain triple sum:
    entry (i, j) is ``sum(a[i][k] * b[k][j] for k)``."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def tilde_j2(q: Mat2) -> Mat4:
    """The j2 image of ``q`` in tilde coordinates, ``(a, b, c, d)`` on (2,4)."""
    return times_embedding(Mat4.identity(), q, 2)


def reference_replay(word: GeneratorWord) -> Mat4:
    """A word's replay as first written: the ``Fraction`` product of
    :func:`reference_power` of each named generator, ``j1_embed`` and
    ``j2_embed`` in the word's own coordinates."""
    acc = Mat4.identity()
    for letter in word.letters:
        if isinstance(letter, Named):
            acc = acc * reference_power(generator(letter.name, word.p), letter.exp)
        elif isinstance(letter, J1):
            acc = acc * j1_embed(letter.payload)
        else:
            acc = acc * (tilde_j2(letter.payload) if word.tilde else j2_embed(letter.payload, word.p))
    return acc


def reference_r_conjugate(m: Mat4, p: int, inverse: bool = False) -> Mat4:
    """``R m R^-1`` (``R^-1 m R`` when ``inverse``) as first written: every
    entry as a ``Fraction``, row 4 times s and column 4 over s, with
    s = p (1/p when ``inverse``)."""
    s = Fraction(p) if not inverse else Fraction(1, p)
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            x = m.rows[i][j]
            if i == 3:
                x = x * s
            if j == 3:
                x = x / s
            row.append(x)
        rows.append(tuple(row))
    return Mat4(tuple(rows))


def reference_symplectic_check(m: Mat4, form: SymplecticForm) -> bool:
    """The symplectic test as the full product ``m f m^T == f``."""
    f = form.matrix
    return m * f * mat4_transpose(m) == f


def reference_power(m, n: int):
    """``m ** n`` as first written, in :class:`ReferenceMat4` arithmetic
    alone, a 2x2 ``m`` as the top-left block of a 4x4: ``N N = 0`` tested
    by one :func:`reference_product` of ``N = m - 1``, ``1 + n N`` built
    entry by entry, else binary powering of ``m`` or its Gauss-Jordan
    inverse.  The result is of ``m``'s own type; a 2x2 inverse that is not
    integral is :class:`NotUnimodular`, as ``Mat2.inv`` has it."""
    size = len(m.rows)
    rows = [[m.rows[i][j] if i < size and j < size else int(i == j) for j in range(4)] for i in range(4)]
    ref, one = ReferenceMat4.of(rows), ReferenceMat4.identity()
    nil = tuple(tuple(x - i for x, i in zip(r, e)) for r, e in zip(ref.rows, one.rows))
    if not any(x for row in reference_product(nil, nil) for x in row):
        acc = ReferenceMat4(tuple(tuple(i + n * x for x, i in zip(r, e)) for r, e in zip(nil, one.rows)))
    else:
        base = ref if n >= 0 else ref.inv()
        if size == 2 and any(x.denominator != 1 for row in base.rows for x in row):
            raise NotUnimodular("2x2 determinant has no integer inverse")
        n = abs(n)
        acc = one
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
    block = tuple(row[:size] for row in acc.rows[:size])
    if size == 2:
        return Mat2.of(*(int(x) for row in block for x in row))
    return acc if type(m) is ReferenceMat4 else Mat4(block)


def _divisible(x, n: int) -> bool:
    return x.denominator == 1 and x.numerator % n == 0


def reference_member(m: Mat2 | Mat4, label: GroupLabel, p: int) -> bool:
    """The predicates as first written.  4x4: the full-product symplectic
    test, then the congruence pattern read off ``m - 1`` (or ``m``).
    2x2: ``ad - bc = 1``, then the rows of the ``groups`` docstring."""
    if label in TWO_BY_TWO_LABELS:
        (a, b), (c, d) = m.rows
        if a * d - b * c != 1:
            return False
        if label is GroupLabel.SL2Z:
            return True
        if label is GroupLabel.GAMMA1_OF_P:  # g - 1 in ((pZ, pZ), (pZ, pZ))
            return (a - 1) % p == 0 and b % p == 0 and c % p == 0 and (d - 1) % p == 0
        # gamma1prime_p2: g - 1 in ((p^2 Z, pZ), (p^3 Z, p^2 Z))
        return (a - 1) % p**2 == 0 and b % p == 0 and c % p**3 == 0 and (d - 1) % p**2 == 0
    j = SymplecticForm.standard()
    lam = SymplecticForm.polarised(p)
    if label is GroupLabel.SP4Z_J:
        return is_integral(m) and reference_symplectic_check(m, j)
    if label is GroupLabel.SP_LAMBDA_Z:
        return is_integral(m) and reference_symplectic_check(m, lam)
    if label is GroupLabel.GAMMA0_1P:
        if not reference_symplectic_check(m, j):
            return False
        for r in range(4):
            for c in range(4):
                x = m.rows[r][c]
                if (r, c) == (3, 1):
                    if (p * x).denominator != 1:
                        return False
                elif (r, c) in ((0, 3), (1, 0), (1, 2), (1, 3), (2, 3)):
                    if not _divisible(x, p):
                        return False
                elif x.denominator != 1:
                    return False
        return True
    if not is_integral(m):
        return False
    if label is GroupLabel.GAMMA_TILDE_1P:
        if not reference_symplectic_check(m, lam):
            return False
        r2 = tuple(x.numerator % p for x in m.rows[1])
        r4 = tuple(x.numerator % p for x in m.rows[3])
        return r2 == (0, 1 % p, 0, 0) and r4 == (0, 0, 0, 1 % p)
    if not reference_symplectic_check(m, j):
        return False
    d = mat4_sub(m, Mat4.identity()).rows
    if label is GroupLabel.GAMMA_P2:
        return all(_divisible(d[r][c], p * p) for r in range(4) for c in range(4))
    moduli = ((1, 1, 1, p), (p, p, p, p * p), (1, 1, 1, p), (1, 1, 1, p))
    return all(_divisible(d[r][c], moduli[r][c]) for r in range(4) for c in range(4))


_E12 = Mat4(
    [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
)
_DET2 = Mat4.diagonal(2, 1, 1, 1)


def random_tamper(cert: Certificate, rng: random.Random) -> Certificate:
    """Replace one node so the certificate must be rejected.

    Seed and conjugator tampers break a side condition outright
    (a non-level-p^2 seed, a +1 in a forbidden residue slot, or a
    determinant-2 factor killing symplecticity).  Argument redirects on
    mul/inv nodes are accepted only when the tampered root evaluates to
    something other than the target, so the replay check must fire.
    """
    nodes = list(cert.nodes)
    for _ in range(200):
        i = rng.randrange(len(nodes))
        node = nodes[i]
        if node.op == SEED_M0:
            new = CertNode(SEED_P2, (), generator("M0", cert.p))
        elif node.op == SEED_P2:
            new = CertNode(SEED_P2, (), mat4_add(node.value, _E12))
        elif node.op == CONJ:
            new = CertNode(CONJ, node.args, node.value * _DET2)
        else:
            if i == 0:
                continue
            slot = rng.randrange(len(node.args))
            replacement = rng.randrange(i)
            if replacement == node.args[slot]:
                continue
            args = list(node.args)
            args[slot] = replacement
            new = CertNode(node.op, tuple(args))
            candidate = Certificate(
                cert.p, tuple(nodes[:i] + [new] + nodes[i + 1:]), cert.root, cert.target
            )
            values = evaluate(candidate)
            if values[cert.root] == cert.target:
                continue  # redirect happened to preserve the value; retry
            return candidate
        return Certificate(
            cert.p, tuple(nodes[:i] + [new] + nodes[i + 1:]), cert.root, cert.target
        )
    raise AssertionError("no tamperable node found")


def hostile_chain(muls: int = 22) -> Certificate:
    """A gamma_p2 seed at p = 3 followed by ``muls`` self-mul nodes; each
    squaring doubles the bits, so a full replay of 22 takes about a minute."""
    seed = j1_embed(Mat2.of(1, 9, 0, 1)) * j1_embed(Mat2.of(1, 0, 9, 1))
    nodes = (CertNode(SEED_P2, (), seed),) + tuple(CertNode(MUL, (i, i)) for i in range(muls))
    return Certificate(3, nodes, muls, Mat4.identity())
