"""Command-line front end.

Computation commands parse diagrams or element expressions and print
canonical results; ``verify`` runs named identity suites and reports in text
or JSON.  Exit codes: 0 all checks passed, 1 a check failed, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import bigon_skein as B
from .diagram import MAX_CLI_WIDTH, UNIT_TANGLE, StatedWord
from .diagram import reduce as reduce_diagram
from .report import Report
from .scalar import format_scalar, validate_generic_point
from .suites import DEFAULT_SPECS, MAX_CLI_DEGREE, SUITES, run_suite
from .syntax import format_element, parse_diagram, parse_element

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class _Usage(Exception):
    pass


def _parse_spec_points(values: list[str] | None, seed: int | None) -> tuple[Fraction, ...]:
    if not values:
        points = list(DEFAULT_SPECS)
    else:
        try:
            points = [Fraction(v) for v in values]
        except (ValueError, ZeroDivisionError) as exc:
            raise _Usage(f"bad specialization point: {exc}") from exc
    for p in points:
        validate_generic_point(p)
    if seed is not None:
        import random

        rng = random.Random(seed)
        while True:
            extra = Fraction(rng.randint(2, 99), rng.randint(2, 99))
            if extra not in points and extra not in (0, 1, -1):
                points.append(extra)
                break
    return tuple(points)


def degree(text: str) -> int:
    """A --max-degree: non-negative, since a negative one would pass vacuously, and at most
    ``MAX_CLI_DEGREE``, since the suites grow exponentially in it."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if value > MAX_CLI_DEGREE:
        raise argparse.ArgumentTypeError(f"degree {value} exceeds the bound {MAX_CLI_DEGREE}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="Exact computations in the stated skein algebra of the bigon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a stated diagram to the canonical basis")
    p.add_argument("diagram")

    p = sub.add_parser("bracket", help="Kauffman bracket of a closed diagram")
    p.add_argument("diagram")

    for name in ("comul", "counit", "antipode", "rot", "ht"):
        p = sub.add_parser(name, help=f"{name} of an element expression")
        p.add_argument("expr")

    p = sub.add_parser("mul", help="product of two element expressions")
    p.add_argument("expr", nargs=2)

    p = sub.add_parser("inv", help="inversion along a boundary edge")
    p.add_argument("expr")
    p.add_argument("--edge", choices=("east", "west"), default="east")
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("functional", help="evaluate a structure functional")
    p.add_argument("which", choices=("R", "theta", "t", "tinv"))
    p.add_argument("expr", nargs="+")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--max-degree", type=degree, default=3,
                   help=f"strand bound, at most {MAX_CLI_DEGREE}; for st, an arc bound "
                   "(2D boundary points)")
    p.add_argument("--spec", action="append", metavar="S0",
                   help="specialization point (rational, repeatable; default 7/5 and 11/7)")
    p.add_argument("--seed", type=int, default=None,
                   help="adds one pseudorandom extra specialization point and seeds random cases")
    p.add_argument("--json", action="store_true")
    return parser


def _print_element(x) -> None:
    print(format_element(x))


def _parse_bounded_diagram(text: str) -> StatedWord:
    """Parse a diagram, refusing widths whose reduction would not finish
    promptly: resolution is exponential in width (see ``MAX_CLI_WIDTH``)."""
    stated = parse_diagram(text)
    width = stated.word.width
    if width > MAX_CLI_WIDTH:
        raise _Usage(f"diagram width {width} exceeds the bound {MAX_CLI_WIDTH}")
    return stated


def _run_computation(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "reduce":
        _print_element(reduce_diagram(_parse_bounded_diagram(args.diagram)))
        return EXIT_PASS
    if cmd == "bracket":
        stated = _parse_bounded_diagram(args.diagram)
        if stated.word.west_arity or stated.word.east_arity:
            raise _Usage("bracket needs a closed diagram (no boundary points)")
        print(format_scalar(reduce_diagram(stated).coefficient(UNIT_TANGLE)))
        return EXIT_PASS
    if cmd == "mul":
        x = parse_element(args.expr[0])
        y = parse_element(args.expr[1])
        _print_element(B.mul(x, y))
        return EXIT_PASS
    if cmd == "comul":
        print(str(B.comul(parse_element(args.expr))))
        return EXIT_PASS
    if cmd == "counit":
        print(format_scalar(B.counit(parse_element(args.expr))))
        return EXIT_PASS
    if cmd == "antipode":
        _print_element(B.antipode(parse_element(args.expr)))
        return EXIT_PASS
    if cmd == "rot":
        _print_element(B.rot_star(parse_element(args.expr)))
        return EXIT_PASS
    if cmd == "ht":
        _print_element(B.ht_coaction(parse_element(args.expr)))
        return EXIT_PASS
    if cmd == "inv":
        _print_element(B.inv_edge(parse_element(args.expr), args.edge, args.inverse))
        return EXIT_PASS
    if cmd == "functional":
        exprs = [parse_element(e) for e in args.expr]
        if args.which == "R":
            if len(exprs) != 2:
                raise _Usage("functional R needs two element expressions")
            print(format_scalar(B.r_form(exprs[0], exprs[1])))
        else:
            if len(exprs) != 1:
                raise _Usage(f"functional {args.which} needs one element expression")
            fn = {"theta": B.theta_form, "t": B.t_form, "tinv": B.t_inv_form}[args.which]
            print(format_scalar(fn(exprs[0])))
        return EXIT_PASS
    raise _Usage(f"unknown command {cmd!r}")


def _emit_report(report: Report, as_json: bool) -> int:
    print(report.to_json() if as_json else report.to_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.command == "verify":
            report = run_suite(
                args.suite,
                max_degree=args.max_degree,
                specs=_parse_spec_points(args.spec, args.seed),
                seed=args.seed or 0,
            )
            return _emit_report(report, args.json)
        return _run_computation(args)
    except (_Usage, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
