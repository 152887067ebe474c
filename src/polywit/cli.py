"""Command line front end.

Exit codes: 0 success (for ``witness`` and ``verify`` this includes the
verification passing), 2 verification or selftest failure, 3 input
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .construct import hollow_similarity, reduce_step
from .errors import (
    CommutativityError,
    InputDecodeError,
    InternalInvariantError,
    PolywitError,
    PreconditionError,
)
from .harness import format_selftest, run_witness, selftest, verify
from .parsing import parse_poly, parse_omega
from .polynomials import _check_omega, enumerate_partitions, from_multilinear
from .serialize import (
    matrix_from_json,
    matrix_to_json,
    partitions_to_json,
    reduction_to_json,
    witness_from_json,
    witness_to_json,
)

DEFAULT_SEED = 1789

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INPUT = 3
EXIT_INVARIANT = 4


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputDecodeError(f"{path} is not UTF-8 text: {exc}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or the bare ValueError json raises for an
        # integer literal past the interpreter's digit limit.
        raise InputDecodeError(f"{path} is not valid JSON: {exc}") from None


def _load_poly(args):
    if getattr(args, "poly_str", None) is not None:
        return parse_poly(args.poly_str)
    return parse_poly(_read_text(args.poly))


def _add_poly_options(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--poly-str", metavar="STR", help="polynomial text")
    group.add_argument("--poly", metavar="FILE", help="file holding polynomial text")


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_witness(args) -> int:
    f = _load_poly(args)
    a = matrix_from_json(_read_json(args.target))
    w, report = run_witness(f, a, do_verify=not args.no_verify)
    _emit(witness_to_json(w, a, report.verified), args.out)
    print(json.dumps(report.to_dict()), file=sys.stderr)
    if args.no_verify:
        return EXIT_OK
    return EXIT_OK if report.verified else EXIT_MISMATCH


def _cmd_verify(args) -> int:
    f = _load_poly(args)
    a = matrix_from_json(_read_json(args.target))
    try:
        w, _, _ = witness_from_json(_read_json(args.witness))
        ok = verify(f, w, a)
    except CommutativityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    if ok:
        print("verified: evaluation matches the embedded target")
        return EXIT_OK
    print("verification failed: evaluation differs from the embedded target")
    return EXIT_MISMATCH


def _cmd_hollow(args) -> int:
    a = matrix_from_json(_read_json(args.matrix))
    p, p_inv, h = hollow_similarity(a)
    _emit(
        {"p": matrix_to_json(p), "p_inv": matrix_to_json(p_inv), "h": matrix_to_json(h)},
        None,
    )
    return EXIT_OK


def _cmd_partitions(args) -> int:
    omega = _check_omega(parse_omega(args.omega), args.n)
    parts = enumerate_partitions(omega, args.n)
    _emit(partitions_to_json(parts), None)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    f = _load_poly(args)
    step = reduce_step(from_multilinear(f))
    _emit(reduction_to_json(step), None)
    return EXIT_OK


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PW_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(f"PW_SEED must be an integer, got {env!r}") from None


def _cmd_selftest(args) -> int:
    ok, rows = selftest(cases=args.cases, seed=_resolve_seed(args))
    print(format_selftest(rows))
    print("result: PASS" if ok else "result: FAIL")
    return EXIT_OK if ok else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywit",
        description=(
            "Construct and check exact matrix witnesses showing that a "
            "multilinear polynomial attains a given trace-zero matrix."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="construct a witness for a target")
    _add_poly_options(p)
    p.add_argument("--target", metavar="FILE", required=True)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("verify", help="re-check a stored witness")
    _add_poly_options(p)
    p.add_argument("--witness", metavar="FILE", required=True)
    p.add_argument("--target", metavar="FILE", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("hollow", help="conjugate a trace-zero matrix hollow")
    p.add_argument("--matrix", metavar="FILE", required=True)
    p.set_defaults(handler=_cmd_hollow)

    p = sub.add_parser("partitions", help="list slot assignments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", default="", metavar="LIST")
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("reduce", help="show one variable-elimination step")
    _add_poly_options(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("selftest", help="run the randomized suites")
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are input errors here.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PolywitError, OSError) as exc:
        # Undecodable files and bad literals arrive here as PolywitErrors;
        # any other exception is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())
