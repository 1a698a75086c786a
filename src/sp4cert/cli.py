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
    MalformedDag,
    NotInGroup,
    ParseError,
    Sp4CertError,
)
from .generators import verify_identities
from .groups import (
    GroupLabel,
    TWO_BY_TWO_LABELS,
    member,
    require_odd_prime,
)
from .matrices import mat2_from_lists, mat4_from_lists
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
        return json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad JSON at offset {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # a number past the int/str conversion limit
        raise ParseError(f"{path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _prime(value: str) -> int:
    try:
        p = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from exc
    try:
        require_odd_prime(p)
    except BadPrime as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return p


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
    payload = {
        name: certs.certificate_to_json_obj(cert) for name, cert in table.items()
    }
    _write_text(args.out, json.dumps(payload, indent=1))
    all_ok = True
    for name, cert in table.items():
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
    report = certs.cert_verify(cert)
    _write_text(args.out, certs.serialize(cert))
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
        ok = ok and match
        lines[-1] = "PASS" if ok else "FAIL"
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_MATH


def _cmd_check_identities(args) -> int:
    report = verify_identities(args.p)
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
        m = sample(spec)
        return certs.cert_verify(certs.normal_closure_witness(m, p)).passed
    if suite == "predicates":
        from .groups import VectorClass, r_conjugate, vector_class

        m = sample(spec)
        if not member(m, GroupLabel.GAMMA_1P, p):
            return False
        tilde = r_conjugate(m, p)
        if not member(tilde, GroupLabel.GAMMA_TILDE_1P, p):
            return False
        row1 = tuple(int(x) for x in tilde[0])
        row2 = tuple(int(x) for x in tilde[1])
        return (
            vector_class(row1, p) is VectorClass.SHORT
            and vector_class(row2, p) is VectorClass.LONG
        )
    # identities: same exact replay for every trial; sampling is moot
    return verify_identities(p).passed


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
        except (Sp4CertError, ArithmeticError) as exc:
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
    sp.add_argument("--n", type=int, default=50)
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
    except (ParseError, MalformedDag) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BadPrime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Sp4CertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
