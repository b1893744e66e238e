"""Command-line interface.

Subcommands: expand, verify, scan, period-check, check-congruence,
paper-suite.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse/evaluation error.  Output is byte-identical across runs for fixed
inputs; timing appears only in JSON reports.
"""

import argparse
import sys

from . import dsl, verify
from .errors import RRSeriesError
from .report import int_text, reports_to_json, reports_to_text
from .series import require_modulus

SERIES_CHOICES = ("A", "B", "C", "D", "c", "d", "G", "H", "R")

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _parse_exceptions(text):
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("exceptions must be comma-separated ints")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rrseries",
        description="Exact q-series expansion and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print coefficients of an expression")
    p.set_defaults(handler=cmd_expand)
    p.add_argument("expr", help="expression in the identity DSL, e.g. 'R(q)'")
    p.add_argument("-N", "--order", type=int, default=500)
    p.add_argument("--mod", type=int, default=None, help="reduce coefficients mod m")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="verify an identity manifest")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--manifest", default=None, help="manifest path (default: bundled)")
    p.add_argument("-N", "--order", type=int, default=500)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("scan", help="sign scan along an arithmetic progression")
    p.set_defaults(handler=cmd_scan, mod=None)
    _add_target_arguments(p)
    p.add_argument("--sign", choices=("pos", "neg"), required=True)
    p.add_argument("--exceptions", type=_parse_exceptions, default=())
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-congruence",
                       help="divisibility scan along an arithmetic progression")
    p.set_defaults(handler=cmd_scan)
    _add_target_arguments(p)
    p.add_argument("--mod", type=int, required=True, help="required divisor")
    p.add_argument("--exceptions", type=_parse_exceptions, default=())
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("period-check", help="check sign periodicity of coefficients")
    p.set_defaults(handler=cmd_period_check)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--series", choices=SERIES_CHOICES)
    group.add_argument("--expr")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--prefix", type=int, default=None,
                   help="largest allowed prefix (default: half the scan range)")
    p.add_argument("--max-n", type=int, default=2000)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("paper-suite", help="run the full verification suite")
    p.set_defaults(handler=cmd_paper_suite)
    p.add_argument("-N", "--order", type=int, default=500)
    p.add_argument("--scan-n", type=int, default=2000)
    p.add_argument("--manifest", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _add_target_arguments(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--series", choices=SERIES_CHOICES)
    group.add_argument("--expr", help="expression in the identity DSL")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--max-n", type=int, default=2000)


def _target(args):
    if args.series is not None:
        return args.series, args.series
    return dsl.parse(args.expr), args.expr


def cmd_expand(args, out):
    if args.mod is not None:
        require_modulus(args.mod)
    series = dsl.evaluate(dsl.parse(args.expr), args.order)
    coeffs = series.coeffs
    if args.mod is not None:
        coeffs = series.reduce_mod(args.mod).coeffs
    digits = [int_text(c) for c in coeffs]
    if args.format == "csv":
        out.write("index,coefficient\n")
        for n, c in enumerate(digits):
            out.write(f"{n},{c}\n")
    elif args.format == "json":
        import json

        # Written by hand so that coefficients of any size print exactly.
        out.write(f'{{"expr": {json.dumps(args.expr)}, "order": {series.order}, '
                  f'"coefficients": [{", ".join(digits)}]}}\n')
    else:
        out.write(", ".join(digits))
        out.write("\n")
    return EXIT_OK


def _emit_reports(reports, fmt, out):
    if fmt == "json":
        out.write(reports_to_json(reports))
    else:
        out.write(reports_to_text(reports))
    out.write("\n")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY_FAIL


def cmd_verify(args, out):
    path = args.manifest or verify.default_manifest_path()
    return _emit_reports(verify.verify_manifest(path, args.order), args.format, out)


def cmd_scan(args, out):
    """A sign scan, or with ``--mod`` (check-congruence) a divisibility scan."""
    target, label = _target(args)
    divisor = args.mod
    if divisor is None:
        sign = verify.SIGN_POS if args.sign == "pos" else verify.SIGN_NEG
        claim = "> 0" if args.sign == "pos" else "< 0"
    else:
        sign, claim = None, f"= 0 (mod {divisor})"
    spec = verify.ScanSpec(
        name=f"{label}[{args.period}n+{args.residue}] {claim}",
        target=target, period=args.period, residue=args.residue, sign=sign,
        divisor=divisor, exceptions=args.exceptions, max_n=args.max_n,
    )
    return _emit_reports([verify.scan(spec)], args.format, out)


def cmd_period_check(args, out):
    prefix = args.prefix if args.prefix is not None else args.max_n // 2
    verify.check_period_args(args.period, prefix, args.max_n)
    target, label = _target(args)
    series = verify.resolve_target(target, args.max_n)
    report = verify.period_check(
        series, args.period, prefix,
        name=f"sign periodicity of {label}, period {args.period}",
    )
    return _emit_reports([report], args.format, out)


def cmd_paper_suite(args, out):
    reports = verify.run_paper_suite(
        order=args.order, scan_order=args.scan_n, manifest_path=args.manifest
    )
    return _emit_reports(reports, args.format, out)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except (RRSeriesError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
