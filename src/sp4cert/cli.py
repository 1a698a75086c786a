"""Command-line interface.

Every capability is reachable as a deterministic subcommand; matrices
travel through files (or stdin) in the interchange format, never on the
command line, because entries can be arbitrarily large.

Exit codes: 0 success, 1 mathematical failure (non-member, failed
verification, failed identity or fuzz trial), 2 I/O, parse or usage
errors.  Reports are line-oriented UTF-8 text ending in PASS or FAIL.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificates as certs
from .decompose import decompose
from .errors import (
    BadPrime,
    DomainError,
    MalformedDag,
    NotInGroup,
    ParseError,
    Sp4CertError,
)
from .groups import (
    GroupLabel,
    TWO_BY_TWO_LABELS,
    VectorClass,
    member,
    r_conjugate,
    require_odd_prime,
    vector_class,
)
from .matrices import load_json, mat2_from_lists, mat4_from_lists
from .sampling import SampleSpec, sample
from .siegel import section4_check

EXIT_OK = 0
EXIT_MATH = 1
EXIT_IO = 2


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return load_json(text, path)


def _write_text(path: str | None, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from exc


def _prime(value: str) -> int:
    p = _integer(value)
    try:
        require_odd_prime(p)
    except BadPrime as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return p


def _positive(value: str) -> int:
    n = _integer(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not positive")
    return n


def _cmd_member(args) -> int:
    label = GroupLabel(args.group)
    obj = _read_json(args.infile)
    m = mat2_from_lists(obj) if label in TWO_BY_TWO_LABELS else mat4_from_lists(obj)
    verdict = member(m, label, args.p)
    print("true" if verdict else "false")
    return EXIT_OK if verdict else EXIT_MATH


def _cmd_decompose(args) -> int:
    m = mat4_from_lists(_read_json(args.infile))
    try:
        word = decompose(m, args.p, tilde=args.coords == "tilde")
    except NotInGroup as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return EXIT_MATH
    # decompose has replayed the word; a mismatch raised ShapeAssertionFailed
    _write_text(args.out, json.dumps(word.to_json_obj(), indent=1))
    return EXIT_OK


def _cmd_certify_generators(args) -> int:
    table = certs.build_generator_certs(args.p)
    # {name: certificate} with indent=1: each certificate one space deeper
    entries = [
        f' "{name}": ' + certs.serialize(cert).replace("\n", "\n ")
        for name, cert in table.items()
    ]
    text = "{\n" + ",\n".join(entries) + "\n}"
    _write_text(args.out, text)
    all_ok = True
    for name, obj in load_json(text).items():  # what was written, read back
        cert = certs.certificate_from_json_obj(obj)
        report = certs.cert_verify(cert)
        all_ok = all_ok and report.passed
        print(
            f"{'pass' if report.passed else 'FAIL'}  {name}  "
            f"({cert.node_count} nodes)"
        )
    print("PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_MATH


def _cmd_witness(args) -> int:
    m = mat4_from_lists(_read_json(args.infile))
    try:
        cert = certs.normal_closure_witness(m, args.p)
    except NotInGroup as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return EXIT_MATH
    text = certs.serialize(cert)
    _write_text(args.out, text)
    report = certs.cert_verify(certs.parse(text))  # what was written, read back
    print(f"{cert.node_count} nodes")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_MATH


def _cmd_verify(args) -> int:
    cert = certs.certificate_from_json_obj(_read_json(args.cert))
    report = certs.cert_verify(cert)
    ok = report.passed
    lines = report.lines()
    if args.target is not None:
        expected = mat4_from_lists(_read_json(args.target))
        match = expected == cert.target
        lines.insert(-1, f"  {'pass' if match else 'FAIL'}  target matches --target file")
        if ok and not match:  # a failed report keeps its failure locus
            lines[-1] = "FAIL"
        ok = ok and match
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_MATH


def _cmd_check_identities(args) -> int:
    report = certs.verify_identities(args.p)
    print("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_MATH


def _cmd_section4(args) -> int:
    report = section4_check(args.c, args.samples, args.tol)
    print("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_MATH


def _fuzz_trial(suite: str, p: int, spec: SampleSpec) -> bool:
    if suite == "decompose":
        # decompose replays its word; a mismatch raises ShapeAssertionFailed
        decompose(sample(spec), p, tilde=False)
        return True
    if suite == "witness":
        text = certs.serialize(certs.normal_closure_witness(sample(spec), p))
        return certs.cert_verify(certs.parse(text)).passed  # what a witness file reads back as
    if suite == "predicates":
        m = sample(spec)
        if not member(m, GroupLabel.GAMMA_1P, p):
            return False
        tilde = r_conjugate(m, p)
        if not member(tilde, GroupLabel.GAMMA_TILDE_1P, p):
            return False
        e = tilde.scaled()[1]  # d = 1: members are integral
        return (
            vector_class(e[:4], p) is VectorClass.SHORT
            and vector_class(e[4:8], p) is VectorClass.LONG
        )
    # identities: same exact replay for every trial; sampling is moot
    return certs.verify_identities(p).passed


def _cmd_fuzz(args) -> int:
    for i in range(args.n):
        spec = SampleSpec(
            group=GroupLabel.GAMMA_1P,
            p=args.p,
            seed=args.seed + i,
            word_length=5 + (i % 16),
        )
        try:
            ok = _fuzz_trial(args.suite, args.p, spec)
        except Exception as exc:  # a crash is a failure too, reported with its spec
            print(f"FAIL at trial {i}: {spec.describe()} ({type(exc).__name__}: {exc})")
            return EXIT_MATH
        if not ok:
            print(f"FAIL at trial {i}: {spec.describe()}")
            return EXIT_MATH
    print(f"{args.n} trials")
    print("PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sp4cert",
        description=(
            "Exact-arithmetic membership tests, word decomposition and "
            "normal-closure certificates for the congruence subgroups of "
            "Sp(4) attached to (1,p)-polarised abelian surfaces."
        ),
        epilog="exit codes: 0 ok, 1 mathematical failure, 2 I/O or usage error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("member", _cmd_member, "membership verdict for a matrix")
    sp.add_argument("--group", required=True,
                    choices=[g.value for g in GroupLabel])
    sp.add_argument("--p", required=True, type=_prime)
    sp.add_argument("--in", dest="infile", default="-",
                    help="matrix JSON file, or - for stdin")

    sp = add("decompose", _cmd_decompose,
             "write a generator word replaying to the input matrix")
    sp.add_argument("--p", required=True, type=_prime)
    sp.add_argument("--coords", choices=("tilde", "untilded"), default="untilded")
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--out", default="-")

    sp = add("certify-generators", _cmd_certify_generators,
             "build and verify the generator certificate table")
    sp.add_argument("--p", required=True, type=_prime)
    sp.add_argument("--out", default="-")

    sp = add("witness", _cmd_witness,
             "seed-level certificate for a gamma_1p element")
    sp.add_argument("--p", required=True, type=_prime)
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--out", default="-")

    sp = add("verify", _cmd_verify, "replay and check a certificate file")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--target", default=None,
                    help="optional matrix JSON that must equal the target")

    sp = add("check-identities", _cmd_check_identities,
             "replay the six generating identities at p")
    sp.add_argument("--p", required=True, type=_prime)

    sp = add("fuzz", _cmd_fuzz, "seeded randomized suites")
    sp.add_argument("--p", required=True, type=_prime)
    sp.add_argument("--n", type=_positive, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suite", required=True,
                    choices=("decompose", "witness", "predicates", "identities"))

    sp = add("section4", _cmd_section4, "sampled boundary-formula checks")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--tol", type=float, default=1e-10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, MalformedDag, BadPrime, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Sp4CertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
