"""Command-line surface: `main` parses --field and then each matrix or
element argument with hopforders.parse, in the order its subcommand declares
them; the handlers compute and print.

Any matrix or element argument may be @file, reading the same grammar from a
UTF-8 text file of at most MAX_INPUT_CHARS characters.  Exit codes: 0
mathematical yes/success, 1 mathematical no, 2 usage or parse error or a
closed stdout, 3 internal error (the sweep's cylinder walk disagreed with the
matrix oracle).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from io import BytesIO, TextIOWrapper
from pathlib import Path

from .families import (BatchMismatchError, Family, enumerate_orders, family_matrix,
                       oracle_check_family, rank1_orders, theta_for_record)
from .orders import (NotIntegralError, ddl_normalize, embedding_generators,
                     is_ddl, order_from_theta, presentation_from_matrix,
                     same_order, special_fibre, verify_twisted_equation)
from .parse import ParseError, parse_element, parse_field_spec, parse_int, parse_matrix

# The most characters an @file argument may hold.
MAX_INPUT_CHARS = 2 ** 20


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo_v, hi_v = parse_int(lo), parse_int(hi if sep else lo)
    except ParseError as exc:
        raise ParseError(f"bad range {text!r} (use lo..hi)") from exc
    if hi_v < lo_v:
        raise ParseError(f"empty range {text!r}")
    return range(lo_v, hi_v + 1)


def _int_arg(text: str) -> int:
    """An integer flag's value, read by the grammar's integer rule."""
    try:
        return parse_int(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve(arg: str) -> str:
    """@file indirection for matrix/element arguments."""
    if not arg.startswith("@"):
        return arg
    limit = 4 * MAX_INPUT_CHARS         # bytes: a UTF-8 character takes at most 4
    try:
        with Path(arg[1:]).open("rb") as f:
            raw = f.read(limit + 1)
    except OSError as exc:
        raise ParseError(f"cannot read {arg[1:]!r}: {exc}") from exc
    # decoded whole, as Path.read_text decodes, so that a decoding error names the same position
    text = "" if len(raw) > limit else TextIOWrapper(BytesIO(raw), encoding="utf-8").read()
    if len(raw) > limit or len(text) > MAX_INPUT_CHARS:
        raise ParseError(f"{arg[1:]!r} holds more than MAX_INPUT_CHARS = {MAX_INPUT_CHARS} "
                         f"characters")
    return text.strip()


# -- commands --

def _cmd_check(args, spec, B, theta) -> int:
    try:
        result = order_from_theta(B, theta)
    except NotIntegralError as exc:
        if args.json:
            print(json.dumps({
                "field": spec.spec_text(),
                "integral": False,
                "witness": exc.witness.to_json(),
            }))
        else:
            print(f"not integral: {exc.witness}")
        return 1
    fibre = special_fibre(result.A)
    if args.json:
        print(json.dumps({
            "field": spec.spec_text(),
            "integral": True,
            "witness": None,
            "A": result.A.to_strings(),
            "presentation": result.presentation.to_json(),
            "embedding": result.embedding.to_json(),
            "fibre": fibre.to_json(),
        }))
    else:
        print(f"A = {result.A}")
        print("integral: yes")
        print(f"presentation: {result.presentation.text()}")
        gens = embedding_generators(result.embedding)
        pairs = "; ".join(f"{u} = {g}" for u, g in zip(result.embedding.source_gens, gens))
        print(f"embedding: {pairs}")
        print(f"fibre: ranks={list(fibre.fpower_ranks)} classification={fibre.classification}")
    return 0


def _cmd_verify(args, spec, theta, A, B) -> int:
    ok = verify_twisted_equation(theta, A, B)
    print(f"twisted equation holds: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_normalize(args, spec, theta) -> int:
    ddl = ddl_normalize(theta)
    unit = theta.inv() @ ddl
    print(f"ddl = {ddl}")
    print(f"unit = {unit}")
    print(f"is_ddl: {'yes' if is_ddl(ddl) else 'no'}")
    print(f"same_order: {'yes' if unit.is_unit() else 'no'}")
    return 0


def _cmd_same_order(args, spec, theta, theta2) -> int:
    ok = same_order(theta, theta2)
    print(f"same order: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_fibre(args, spec, A) -> int:
    rep = special_fibre(A)
    abar = "[" + ";".join(",".join(str(c) for c in row) for row in rep.abar) + "]"
    print(f"abar = {abar}")
    print(f"ranks={list(rep.fpower_ranks)} etale_rank={rep.etale_rank} "
          f"classification={rep.classification}")
    return 0


def _cmd_present(args, spec, A) -> int:
    print(presentation_from_matrix(A).text())
    return 0


def _family_arg(text: str) -> Family:
    try:
        return Family(text)
    except ValueError:
        raise ParseError(f"unknown family {text!r}; choose from "
                         f"{[f.value for f in Family]}")


def _cmd_enumerate(args, spec) -> int:
    family = _family_arg(args.family)
    records = enumerate_orders(family, spec, _parse_range(args.i),
                               _parse_range(args.j), depth=args.depth)
    B = family_matrix(family, spec)
    payload = []
    for rec in records:
        try:
            A = order_from_theta(B, theta_for_record(rec)).A
        except NotIntegralError:        # a listed row that no spot check re-decided
            raise BatchMismatchError(rec, [False, None], [True, None])
        fibre = special_fibre(A)
        if args.json:
            payload.append({**rec.to_json(), "fibre": fibre.to_json()})
        else:
            print(f"family={rec.family} p={rec.p} i={rec.i} j={rec.j} "
                  f"theta={rec.theta} monogenic={'yes' if rec.monogenic else 'no'} "
                  f"fibre={list(fibre.fpower_ranks)}:{fibre.classification}")
    if args.json:
        print(json.dumps(payload))
    return 0


def _cmd_oracle_check(args, spec) -> int:
    family = _family_arg(args.family)
    report = oracle_check_family(family, spec, _parse_range(args.i),
                                 _parse_range(args.j), depth=args.depth)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
        for d in report.disagreements:
            wit = f" witness={d.witness}" if d.witness else ""
            print(f"disagreement: i={d.record.i} j={d.record.j} "
                  f"theta={d.record.theta} predicate={d.predicate_verdict} "
                  f"oracle={d.oracle_verdict}{wit}")
    return 0 if report.all_agree else 1


def _cmd_rank1(args, spec, b) -> int:
    res = rank1_orders(b, args.i)
    print(res.description)
    print(f"order: {'yes' if res.is_order else 'no'}")
    return 0 if res.is_order else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopforders",
        description="Construct, verify, normalize, compare and enumerate "
                    "Hopf orders via the twisted matrix equation over F_q(T).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        # a flag given a parse function is required; main parses its value with that
        # function, read from the module globals each time main builds the parser
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **(req if callable(kwargs) else kwargs))
        p.set_defaults(fn=fn, values=[(f, k) for f, k in flags.items() if callable(k)])

    req, M = {"required": True}, parse_matrix
    add("check", _cmd_check, field=req, B=M, theta=M, json={"action": "store_true"})
    add("verify", _cmd_verify, field=req, theta=M, A=M, B=M)
    add("normalize", _cmd_normalize, field=req, theta=M)
    add("same-order", _cmd_same_order, field=req, theta=M, theta2=M)
    add("fibre", _cmd_fibre, field=req, A=M)
    add("present", _cmd_present, field=req, A=M)
    sweep = dict(family=req, field=req, i=req, j=req,
                 depth={"type": _int_arg, "default": None}, json={"action": "store_true"})
    add("enumerate", _cmd_enumerate, **sweep)
    add("oracle-check", _cmd_oracle_check, **sweep)
    add("rank1", _cmd_rank1, field=req, b=parse_element, i={"type": _int_arg, "required": True})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        spec = parse_field_spec(args.field)
        values = [parse(_resolve(getattr(args, flag)), spec) for flag, parse in args.values]
        return args.fn(args, spec, *values)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BatchMismatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:     # stdout's reader is gone; the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    sys.exit(status)


if __name__ == "__main__":
    entry()
