"""Command-line front end.

Subcommands:

  pbw      map a symmetric-tensor expression forward (``--direction fwd``)
           or an operator expression backward (``inv``)
  fedosov  build the flat structure and print the correction-form records
           plus a flatness residual line, D^2 on the fiber generators
           read off the correction solve's own products
  tau      print the jet augmentation of a base function, by either route
  verify   run a named identity suite and report PASS/FAIL lines

Exit codes: 0 success, 1 ran, and a verify identity failed or the
fedosov D2_RESIDUAL is nonzero, 2 parse/load error or a --max-weight
below 1 or above ``chart.FIELD_MAX``, 3 truncation overflow (from any
subcommand), 4 precondition violation (e.g. torsionful chart where
torsion-freeness is required).  Output is
deterministic: identical inputs produce byte-identical output.

Each subcommand imports the modules it runs when it runs: ``pbw`` loads
``pbw``, ``tau`` and ``fedosov`` load ``fedosov`` (with ``pbw`` and
``perturbation``), and only ``verify`` loads ``verify`` and
``randomgen``.  Each ``jetexp`` call is a fresh process, so a short
command does not pay to compile the modules it never reaches.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .chart import FIELD_MAX
from .chartfile import ChartFileError, load_chart_file
from .enveloping import TruncationOverflowError
from .grammar import (ExprSyntaxError, format_diffop, format_poly,
                      format_symtensor, parse_diffop, parse_poly,
                      parse_symtensor)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TRUNCATION = 3
EXIT_PRECONDITION = 4

# ``verify.SUITE_NAMES``, spelt out so that building the parser does not
# import ``verify`` (tests/test_verify.py checks that the two agree)
SUITE_NAMES = ("coalgebra", "symbols", "flat-connection", "resolution",
               "perturbation")


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str):
    try:
        return load_chart_file(path)
    except ChartFileError as exc:
        raise _Failure(EXIT_PARSE, "chart file error: %s" % exc)
    except OSError as exc:
        raise _Failure(EXIT_PARSE, "cannot read chart file: %s" % exc)


def _weight(chart, arg):
    if arg is None:
        return chart.truncation.max_sym_weight
    if arg < 1:
        raise _Failure(EXIT_PARSE, "--max-weight must be at least 1, got %d"
                       % arg)
    if arg > FIELD_MAX:
        raise _Failure(EXIT_PARSE, "--max-weight must be at most %d, got %d"
                       % (FIELD_MAX, arg))
    return arg


def cmd_pbw(args, out) -> int:
    from .pbw import PbwContext
    chart, conn = _load(args.chart)
    weight = _weight(chart, args.max_weight)
    ctx = PbwContext(chart, conn, max_weight=weight)
    try:
        if args.direction == "fwd":
            tensor = parse_symtensor(chart, args.expression)
            out.write(format_diffop(ctx.map(tensor)) + "\n")
        else:
            op = parse_diffop(chart, args.expression, max_order=weight)
            out.write(format_symtensor(ctx.inv(op)) + "\n")
    except ExprSyntaxError as exc:
        raise _Failure(EXIT_PARSE, "parse error: %s" % exc)
    return EXIT_OK


def cmd_fedosov(args, out) -> int:
    from .fedosov import FedosovData, vvf_records
    chart, conn = _load(args.chart)
    if not conn.torsion_free:
        raise _Failure(EXIT_PRECONDITION,
                       "flat structure requires a torsion-free chart")
    weight = _weight(chart, args.max_weight)
    fd = FedosovData(conn, weight)
    # the residual first: it releases the solve's products before the
    # correction's top layer is formed
    residual = _flatness_residual(fd)
    records = vvf_records(fd.correction) if any(fd.correction) else []
    if args.output == "records":
        for i, fiber, k, poly in records:
            out.write("A i=%d J=(%s) k=%d coeff=%s\n"
                      % (i, ",".join(str(e) for e in fiber), k,
                         format_poly(poly)))
    else:
        if not records:
            out.write("correction form: 0\n")
        for i, fiber, k, poly in records:
            names = chart.coords
            fiber_txt = "*".join(
                "%s^%d" % (chart.gen_names[chart.y_slot(s)], e) if e > 1
                else chart.gen_names[chart.y_slot(s)]
                for s, e in enumerate(fiber) if e)
            out.write("d%s (x) %s d/d%s : %s\n"
                      % (names[i - 1].name, fiber_txt,
                         chart.gen_names[chart.y_slot(k - 1)],
                         format_poly(poly)))
    out.write("D2_RESIDUAL %s\n" % residual)
    return EXIT_OK if residual == "0" else 1


def _flatness_residual(fd) -> str:
    """The D2_RESIDUAL text: "0", or the nonzero values of D^2 on the
    fiber generators joined by "; ".  They are read off the correction
    solve's own products (``FedosovData.fiber_squares``), so no product
    of D is formed again; D^2 on a base generator x_k is D(dx_k), 0 by
    the construction of D's table, and is not probed."""
    bad = [format_poly(r) for r in fd.fiber_squares() if r]
    return "0" if not bad else "; ".join(bad)


def cmd_tau(args, out) -> int:
    from .fedosov import FedosovData, tau_pbw
    from .pbw import PbwContext
    chart, conn = _load(args.chart)
    weight = _weight(chart, args.max_weight)
    try:
        f = parse_poly(chart, args.expression)
    except ExprSyntaxError as exc:
        raise _Failure(EXIT_PARSE, "parse error: %s" % exc)
    if not f.is_base_only():
        raise _Failure(EXIT_PARSE,
                       "augmentation argument must be a base function")
    if not conn.torsion_free and args.route == "series":
        raise _Failure(EXIT_PRECONDITION,
                       "series route requires a torsion-free chart")
    if args.route == "series":
        value = FedosovData(conn, weight).tau_series(f)
    else:
        ctx = PbwContext(chart, conn, max_weight=weight)
        value = tau_pbw(ctx, f, weight)
    out.write(format_poly(value) + "\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from .verify import run_suite
    chart, conn = _load(args.chart)
    weight = _weight(chart, args.max_weight)
    results = run_suite(args.suite, chart, conn, seed=args.seed,
                        weight=weight)
    for r in results:
        out.write(r.line() + "\n")
    failed = [r for r in results if r.status == "FAIL"]
    out.write("VERIFY %s %s\n"
              % (args.suite, "FAIL" if failed else "PASS"))
    return EXIT_OK if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetexp",
        description="Exact jet-level exponential map and flat-structure "
                    "calculator for graded polynomial charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--chart", required=True, help="chart file path")
        p.add_argument("--max-weight", type=int, default=None,
                       help="override the chart's symmetric-weight bound")

    p = sub.add_parser("pbw", help="apply the exponential map or its inverse")
    add_common(p)
    p.add_argument("expression")
    p.add_argument("--direction", choices=("fwd", "inv"), default="fwd")
    p.set_defaults(func=cmd_pbw)

    p = sub.add_parser("fedosov", help="build and print the flat structure")
    add_common(p)
    p.add_argument("--output", choices=("text", "records"), default="records")
    p.set_defaults(func=cmd_fedosov)

    p = sub.add_parser("tau", help="jet augmentation of a base function")
    add_common(p)
    p.add_argument("expression")
    p.add_argument("--route", choices=("pbw", "series"), default="pbw")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("verify", help="run an identity suite")
    add_common(p)
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of ``main`` and then reused:
    parsing leaves no state in it."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except _Failure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except TruncationOverflowError as exc:
        print("error: truncation overflow: %s" % exc, file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
