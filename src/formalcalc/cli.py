"""Command-line front end.

Subcommands::

    expand --expr E --order N [--via engine|closed-form]
    lift --expr E --order N
    stirling-table --max K
    verify {automorphism|intertwine|lubell|s-identity|faa-di-bruno} [bounds]
    faa-di-bruno --order N
    umbral --B b1,b2,... --depth N

with a global ``--format text|json|latex``.  Exit status: 0 on success or
a passing verification, 1 when a verification fails, 2 on usage or parse
errors.  A reader that closes stdout early (``| head``) ends the command
quietly: with its own exit code when the command had finished, else 141.
Diagnostics go to stderr; results to stdout.  The only
environment knobs are NO_COLOR / FORMALCALC_COLOR, which affect coloring
of pass/FAIL words in text output and nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import jsonio, latexio
from .algebra import YSeries
from .checks import verify_automorphism, verify_composition
from .combinatorics import stirling_rows, verify_chain_product, verify_lubell
from .derivations import d_dx
from .diffrep import lifted_exp, verify_intertwining
from .expansions import closed_form_series
from .faadibruno import taylor_coefficients, umbral_shift
from .parser import ParseError, parse_element
from .qpoly import to_string as qpoly_str
from .report import VerifyReport

_GREEN, _RED, _RESET = "\x1b[32m", "\x1b[31m", "\x1b[0m"

# The exit code when stdout closes before the command has finished: the
# code a shell reports for a writer stopped by SIGPIPE (128 + 13).
_EPIPE_EXIT = 141


def _color_enabled() -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    pref = os.environ.get("FORMALCALC_COLOR", "").lower()
    if pref in ("1", "always", "yes", "on"):
        return True
    if pref in ("0", "never", "no", "off"):
        return False
    return sys.stdout.isatty()


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="formalcalc",
        description="Exact formal calculus on the iterated-log generator tower.",
    )
    top.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
        help="output format (default: text)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an expression in powers of y")
    p.add_argument("--expr", required=True, help="expression to expand")
    p.add_argument("--order", type=int, required=True, help="truncation order in y")
    p.add_argument(
        "--via",
        choices=("engine", "closed-form"),
        default="engine",
        help="derivation engine or the closed summation formulas",
    )
    p.set_defaults(run=_run_expand)

    p = sub.add_parser("lift", help="expand under x*d/dx via the index shift")
    p.add_argument("--expr", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=_run_lift)

    p = sub.add_parser("stirling-table", help="table of Stirling cycle numbers")
    p.add_argument("--max", type=int, required=True, help="largest row index")
    p.set_defaults(run=_run_table)

    v = sub.add_parser("verify", help="run an identity sweep")
    v.set_defaults(run=_run_verify)
    vsub = v.add_subparsers(dest="check", required=True)
    # each sweep looks its verifier up by name when it runs, so a replaced one is used

    p = vsub.add_parser("automorphism", help="exp(yD) multiplicativity")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--max-index", type=int, default=3)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(
        sweep=lambda a: verify_automorphism(
            trials=a.trials, order=a.order, max_index=a.max_index, seed=a.seed
        )
    )

    p = vsub.add_parser("intertwine", help="index shift vs the two derivations")
    p.add_argument("--max-index", type=int, default=6)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(
        sweep=lambda a: verify_intertwining(
            max_index=a.max_index, product_trials=a.trials, seed=a.seed
        )
    )

    p = vsub.add_parser("lubell", help="two-index chain/Stirling/symmetric-sum equality")
    p.add_argument("--max", type=int, default=6)
    p.add_argument("--pair-sum", type=int, default=None)
    p.set_defaults(sweep=lambda a: verify_lubell(max_n=a.max, max_pair_sum=a.pair_sum))

    p = vsub.add_parser("s-identity", help="chain recursion vs Stirling products")
    p.add_argument("--max-k", type=int, default=6)
    p.add_argument("--max-n", type=int, default=3)
    p.set_defaults(sweep=lambda a: verify_chain_product(max_k=a.max_k, max_n=a.max_n))

    p = vsub.add_parser("faa-di-bruno", help="dual-path composite expansion")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(
        sweep=lambda a: verify_composition(
            trials=a.trials, max_degree=a.degree, order=a.order, seed=a.seed
        )
    )

    p = sub.add_parser(
        "faa-di-bruno", help="coefficients of the composite-derivative exponential"
    )
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=_run_fdb)

    p = sub.add_parser("umbral", help="solve the weight-sequence shift operator")
    p.add_argument("--B", required=True, help="comma-separated weights, e.g. 1,0")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(run=_run_umbral)

    return top


def _emit_series(args: argparse.Namespace, command: str, series: YSeries) -> int:
    if args.format == "json":
        print(jsonio.dumps(jsonio.series_doc(command, args.expr, series)))
    elif args.format == "latex":
        print(latexio.display(latexio.latex_yseries(series)))
    else:
        print(series)
    return 0


def _run_expand(args: argparse.Namespace) -> int:
    if args.order < 0:
        print("formalcalc: --order must be nonnegative", file=sys.stderr)
        return 2
    element = parse_element(args.expr)
    if args.via == "closed-form":
        try:
            series = closed_form_series(element, args.order)
        except ValueError as exc:
            print(f"formalcalc: {exc}", file=sys.stderr)
            return 2
    else:
        series = d_dx().exp_series(element, args.order)
    return _emit_series(args, "expand", series)


def _run_lift(args: argparse.Namespace) -> int:
    if args.order < 0:
        print("formalcalc: --order must be nonnegative", file=sys.stderr)
        return 2
    return _emit_series(args, "lift", lifted_exp(parse_element(args.expr), args.order))


def _run_table(args: argparse.Namespace) -> int:
    if args.max < 0:
        print("formalcalc: --max must be nonnegative", file=sys.stderr)
        return 2
    rows = stirling_rows(args.max)
    if args.format == "json":
        print(jsonio.dumps(jsonio.table_doc(args.max, rows)))
    elif args.format == "latex":
        print(latexio.display(latexio.latex_table(rows)))
    else:
        width = max(len(str(v)) for row in rows for v in row)
        for row in rows:
            print(" ".join(f"{v:>{width}}" for v in row).rstrip())
    return 0


# The least value of each sweep bound, checked before any work.  Below it a
# sweep either has no case and would pass vacuously, or has no valid input.
# A bound left at its default of None is not checked.
_SWEEP_MINIMUMS = {
    "automorphism": {"trials": 1, "order": 0, "max_index": 0},
    "intertwine": {"max_index": 0, "trials": 1},
    "lubell": {"max": 1, "pair_sum": 1},
    "s-identity": {"max_k": 1, "max_n": 1},
    "faa-di-bruno": {"trials": 1, "order": 0, "degree": 0},
}


def _run_verify(args: argparse.Namespace) -> int:
    for dest, least in _SWEEP_MINIMUMS[args.check].items():
        value = getattr(args, dest)
        if value is not None and value < least:
            flag = "--" + dest.replace("_", "-")
            print(f"formalcalc: {flag} must be at least {least}", file=sys.stderr)
            return 2
    report: VerifyReport = args.sweep(args)
    if args.format == "json":
        print(jsonio.dumps(jsonio.report_to_json(report)))
    elif args.format == "latex":
        print(latexio.display(f"\\text{{{report.summary()}}}"))
    else:
        line = report.summary()
        if _color_enabled():
            line = (
                line.replace(": pass", f": {_GREEN}pass{_RESET}")
                if report.passed
                else line.replace(": FAIL", f": {_RED}FAIL{_RESET}")
            )
        print(line)
    return 0 if report.passed else 1


def _run_fdb(args: argparse.Namespace) -> int:
    if args.order < 0:
        print("formalcalc: --order must be nonnegative", file=sys.stderr)
        return 2
    coeffs = taylor_coefficients(args.order)
    if args.format == "json":
        print(jsonio.dumps(jsonio.fdb_doc(args.order, coeffs)))
    elif args.format == "latex":
        lines = [
            f"z^{{{n}}} &: {latexio.latex_fdbpoly(p)} \\\\"
            for n, p in enumerate(coeffs)
        ]
        print(latexio.display("\n".join(["\\begin{aligned}", *lines, "\\end{aligned}"])))
    else:
        for n, p in enumerate(coeffs):
            print(f"z^{n}: {p}")
    return 0


def _run_umbral(args: argparse.Namespace) -> int:
    try:
        weights = [Fraction(part.strip()) for part in args.B.split(",") if part.strip()]
    except ValueError:
        print(f"formalcalc: could not read weights from {args.B!r}", file=sys.stderr)
        return 2
    try:
        shift = umbral_shift(weights, args.depth)
    except ValueError as exc:
        print(f"formalcalc: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(jsonio.dumps(jsonio.umbral_doc(shift)))
    elif args.format == "latex":
        lines = [
            f"x^{{{k}}} &\\mapsto {latexio.latex_qpoly(img)} \\\\"
            for k, img in enumerate(shift.images)
        ]
        print(latexio.display("\n".join(["\\begin{aligned}", *lines, "\\end{aligned}"])))
    else:
        for k, img in enumerate(shift.images):
            print(f"x^{k} -> {qpoly_str(img)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ParseError, OverflowError) as exc:  # OverflowError: a documented cap
        print(f"formalcalc: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = _EPIPE_EXIT
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does.  Send the rest
        # to devnull so the interpreter's final flush stays quiet, and keep
        # the command's own exit code: a closed pipe is no counterexample.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
