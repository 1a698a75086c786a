"""Span tracer that wraps the program's public functions from outside.

Installing a :class:`Tracer` replaces each traced function by a wrapper
that records one span (name, start, end, parent, operation) per call.
A function re-bound elsewhere by ``from .x import y`` is replaced under
every name that holds it, in every loaded ``sp4cert`` module, so calls
through any binding are seen.  Spans live in flat arrays while the run
lasts and are written out once, at the end.  Aggregates (calls and
inclusive time per name, plus a few counts the spans alone do not
give) are kept alongside, so per-layer metrics need no second pass.

Inclusive time counts only the outermost span of a name, so recursion
(``decompose`` calls itself for plain coordinates) is not counted twice.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute path, span name); every name here is public API
TARGETS = (
    ("sp4cert.matrices", "Mat4.__mul__", "matrices.mul4"),
    ("sp4cert.matrices", "Mat4.__pow__", "matrices.pow4"),
    ("sp4cert.matrices", "Mat4.inv", "matrices.inv4"),
    ("sp4cert.matrices", "mat4_from_lists", "matrices.parse"),
    ("sp4cert.matrices", "mat2_from_lists", "matrices.parse"),
    ("sp4cert.matrices", "mat4_to_lists", "matrices.format"),
    ("sp4cert.matrices", "mat2_to_lists", "matrices.format"),
    ("sp4cert.groups", "member", "groups.member"),
    ("sp4cert.groups", "symplectic_check", "groups.symplectic_check"),
    ("sp4cert.generators", "generator", "generators.generator"),
    ("sp4cert.sl2", "sl2_decompose", "sl2.sl2_decompose"),
    ("sp4cert.sl2", "gamma1p_generate", "sl2.gamma1p_generate"),
    ("sp4cert.decompose", "decompose", "decompose.decompose"),
    ("sp4cert.decompose", "reduce_first_row", "decompose.reduce_first_row"),
    ("sp4cert.decompose", "GeneratorWord.replay", "decompose.replay"),
    ("sp4cert.certificates", "normal_closure_witness", "certificates.witness"),
    ("sp4cert.certificates", "cert_verify", "certificates.verify"),
    ("sp4cert.certificates", "serialize", "certificates.serialize"),
    ("sp4cert.certificates", "parse", "certificates.parse"),
    ("sp4cert.certificates", "CertBuilder.mul", "certificates.builder"),
    ("sp4cert.certificates", "CertBuilder.inv", "certificates.builder"),
    ("sp4cert.certificates", "CertBuilder.conj", "certificates.builder"),
    ("sp4cert.sampling", "sample", "sampling.sample"),
)

# per-layer metric -> (span name, what); "calls" and "ms" are per operation
CALLS_AND_MS = (
    ("matrices.pow4", "pow4"),
    ("matrices.mul4", "mul4"),
    ("matrices.inv4", "inv4"),
    ("groups.member", "member"),
    ("generators.generator", "generator"),
    ("sl2.sl2_decompose", "sl2_decompose"),
    ("sl2.gamma1p_generate", "gamma1p_generate"),
    ("decompose.replay", "replay"),
)
MS_ONLY = (
    ("matrices.parse", "parse"),
    ("matrices.format", "format"),
    ("groups.symplectic_check", "symplectic_check"),
    ("decompose.decompose", "decompose"),
    ("decompose.reduce_first_row", "reduce_first_row"),
    ("certificates.witness", "witness"),
    ("certificates.verify", "verify"),
    ("certificates.serialize", "serialize"),
    ("certificates.parse", "parse"),
)
NODE_KINDS = {"mul": "mul", "inv": "inv", "conj": "conj", "seed_m0": "seed", "seed_p2": "seed"}


def _entry_bits(m) -> int:
    rows = getattr(m, "rows", None)
    if rows is None:
        return 0
    best = 0
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
            else:
                best = max(best, abs(x).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- aggregates ---------------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregates; recorded spans are kept."""
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self._depth = [0] * n
        self.count = {
            "mul4_in_pow": 0,
            "entry_bits_max": 0,
            "builder_new_nodes": 0,
            **{f"verify_nodes_{k}": 0 for k in set(NODE_KINDS.values())},
        }

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self._depth.append(0)
        return nid

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(sid)
            self.calls[nid] += 1
            self._depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                self._depth[nid] -= 1
                if self._depth[nid] == 0:
                    self.incl[nid] += t1 - t0
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, span: str):
        """Extra counts taken when a call of ``span`` returns."""
        if span in ("matrices.mul4", "matrices.pow4", "matrices.inv4", "matrices.parse"):
            pow_id = self._id("matrices.pow4")
            is_mul = span == "matrices.mul4"

            def entry_bits(args, result):
                if is_mul and self._depth[pow_id]:
                    self.count["mul4_in_pow"] += 1
                bits = _entry_bits(result)
                if bits > self.count["entry_bits_max"]:
                    self.count["entry_bits_max"] = bits

            return entry_bits
        if span == "certificates.verify":

            def node_kinds(args, result):
                for node in args[0].nodes:
                    self.count[f"verify_nodes_{NODE_KINDS[node.op]}"] += 1

            return node_kinds
        return None

    def _wrap_builder(self, name: str, fn):
        """CertBuilder.mul/inv/conj: a request is new work when the node
        list grows; otherwise the memo returned an existing node and the
        product computed for it was thrown away."""
        inner = self._wrap(name, fn)

        def counted(builder, *args):
            before = len(builder.nodes)
            result = inner(builder, *args)
            if len(builder.nodes) > before:
                self.count["builder_new_nodes"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        if self._patched:
            return
        modules = [m for k, m in sys.modules.items() if k == "sp4cert" or k.startswith("sp4cert.")]
        for module_name, path, span in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if span == "certificates.builder":
                wrapped = self._wrap_builder(span, original)
            else:
                wrapped = self._wrap(span, original, self._after(span))
            if outer:  # a method: one binding, on its class
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:  # every module-level binding of the function
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def _get(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.incl[nid])

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per operation, from the aggregates."""
        out: dict[str, tuple[float, str]] = {}
        for span, short in CALLS_AND_MS:
            calls, secs = self._get(span)
            layer = span.split(".")[0]
            out[f"{layer}.{short}_calls"] = (calls / ops, "calls/op")
            out[f"{layer}.{short}_ms"] = (1000 * secs / ops, "ms/op")
        for span, short in MS_ONLY:
            out[f"{span.split('.')[0]}.{short}_ms"] = (1000 * self._get(span)[1] / ops, "ms/op")
        out["matrices.pow4_mul4_calls"] = (self.count["mul4_in_pow"] / ops, "calls/op")
        out["matrices.entry_bits_max"] = (self.count["entry_bits_max"], "bits")
        requests = self._get("certificates.builder")[0]
        new = self.count["builder_new_nodes"]
        out["certificates.builder_requests"] = (requests / ops, "calls/op")
        out["certificates.builder_new_nodes"] = (new / ops, "nodes/op")
        out["certificates.builder_new_node_ratio"] = (new / requests if requests else 0.0, "ratio")
        kinds = {k: self.count[f"verify_nodes_{k}"] for k in ("mul", "inv", "conj", "seed")}
        out["certificates.verify_nodes"] = (sum(kinds.values()) / ops, "nodes/op")
        for k, v in kinds.items():
            out[f"certificates.verify_nodes_{k}"] = (v / ops, "nodes/op")
        return out

    def sampling_metrics(self, setups: int) -> dict[str, tuple[float, str]]:
        calls, secs = self._get("sampling.sample")
        return {
            "sampling.sample_calls": (calls / setups, "calls"),
            "sampling.sample_ms": (1000 * secs / setups, "ms"),
        }

    def write(self, path) -> None:
        """All spans as gzipped JSON: a name table and one column per field."""
        payload = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
