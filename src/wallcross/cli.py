"""Command-line front end.

Subcommands: ``complete``, ``check``, ``wcf``, ``bch``, ``plot``, ``demo``.
Exit codes: 0 success/consistent, 1 inconsistent, 2 input error, 3 internal
convention violation.  ``SCATTER_MAX_ORDER`` caps the truncation order
(default 16).  Outputs are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import groupoid, report, scattering, serialize
from .exceptions import ConventionError, SchemaError
from .series import TruncationContext

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_SCHEMA = 2
EXIT_CONVENTION = 3

DEFAULT_MAX_ORDER = 16

FIXTURES = {
    "example1": ("bps", "example1.json"),
    "example2": ("bps", "example2.json"),
    "pentagon": ("diagram", "pentagon.json"),
    "rand1": ("diagram", "rand1.json"),
    "rand2": ("diagram", "rand2.json"),
    "rand3": ("diagram", "rand3.json"),
}


def max_order() -> int:
    raw = os.environ.get("SCATTER_MAX_ORDER", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        raise SchemaError(f"bad SCATTER_MAX_ORDER {raw!r}") from None


def check_order(n: int):
    cap = max_order()
    if n < 1:
        raise SchemaError("truncation order must be >= 1")
    if n > cap:
        raise SchemaError(f"truncation order {n} exceeds SCATTER_MAX_ORDER={cap}")


def load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"bad JSON in {path}: {e}") from None


def write_text(path: str, text: str):
    Path(path).write_text(text)


def convention_audit() -> str:
    lines = [
        "convention audit",
        "  primitive normal: 90-degree counterclockwise rotation, reduced",
        "  dirac pairing: determinant det(g, g2)",
        f"  loop orientation: {scattering.LOOP_ORIENTATION} from the base direction",
        f"  path product: first wall crossed {scattering.FIRST_CROSSED}",
        f"  line expansion: {scattering.LINE_EXPANSION}",
        f"  produced walls: {scattering.PRODUCED_WALLS}",
        f"  bridge matrix sign: {groupoid.UPSILON_MATRIX_SIGN:+d} "
        "(S generator maps to -mu t E[i,j] z^m)",
        "  groupoid twisting default: dirac; wall-crossing pipeline: trivial",
        f"  max truncation order: {max_order()}",
    ]
    return "\n".join(lines) + "\n"


def cmd_complete(args) -> int:
    data = load_json(args.input)
    d = serialize.diagram_from_json(data, args.order)
    check_order(d.ctx.order)
    completed = scattering.complete(d)
    consistent = scattering.is_consistent(completed)
    text = report.completion_report(d, completed, consistent)
    sys.stdout.write(text)
    if args.output:
        write_text(args.output, serialize.dumps(serialize.diagram_to_json(completed)))
    _emit_plots(args, completed)
    return EXIT_OK


def cmd_check(args) -> int:
    data = load_json(args.input)
    d = serialize.diagram_from_json(data, args.order)
    check_order(d.ctx.order)
    product = scattering.path_ordered_product(d)
    _emit_plots(args, d)
    if product.is_identity():
        sys.stdout.write("consistent\n")
        return EXIT_OK
    from .vertexlie import log

    sys.stdout.write(report.defect_report(log(product)))
    return EXIT_INCONSISTENT


def cmd_wcf(args) -> int:
    data = load_json(args.input)
    problem, n = serialize.bps_from_json(data, args.order)
    check_order(n)
    sol = groupoid.solve_wcf(problem)
    sys.stdout.write(report.wcf_report(sol))
    if args.output:
        write_text(args.output, serialize.dumps(serialize.diagram_to_json(sol.completed)))
    _emit_plots(args, sol.completed)
    return EXIT_OK if sol.consistent else EXIT_INCONSISTENT


def cmd_bch(args) -> int:
    data = load_json(args.input)
    if not isinstance(data, dict):
        raise SchemaError("bch input must be a JSON object")
    try:
        n = args.order if args.order is not None else data["truncation"]
        rank = data["rank"]
    except KeyError as e:
        raise SchemaError(f"bch input missing key {e}") from None
    check_order(serialize._int(n, "truncation"))
    try:
        ctx = TruncationContext(n, serialize._int(rank, "rank"))
    except ValueError as e:
        raise SchemaError(str(e)) from None
    from .vertexlie import bch

    x = serialize.lie_terms_from_json(ctx, data.get("x", []))
    y = serialize.lie_terms_from_json(ctx, data.get("y", []))
    result = {
        "rank": ctx.rank,
        "truncation": ctx.order,
        "result": serialize.lie_terms_to_json(bch(x, y)),
    }
    text = serialize.dumps(result)
    sys.stdout.write(text)
    if args.output:
        write_text(args.output, text)
    return EXIT_OK


def cmd_plot(args) -> int:
    data = load_json(args.input)
    d = serialize.diagram_from_json(data, args.order)
    if not args.emit_svg and not args.emit_csv:
        raise SchemaError("plot needs --emit-svg and/or --emit-csv")
    _emit_plots(args, d)
    return EXIT_OK


def _emit_plots(args, d):
    if getattr(args, "emit_svg", None):
        write_text(args.emit_svg, report.diagram_svg(d))
    if getattr(args, "emit_csv", None):
        write_text(args.emit_csv, report.diagram_csv(d))


def fixture_text(name: str) -> str:
    return resources.files("wallcross.fixtures").joinpath(name).read_text()


def cmd_demo(args) -> int:
    outdir = Path(args.outdir) if args.outdir else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for name, (kind, fname) in FIXTURES.items():
        data = json.loads(fixture_text(fname))
        if kind == "bps":
            problem, _n = serialize.bps_from_json(data, None)
            sol = groupoid.solve_wcf(problem)
            text = report.wcf_report(sol)
            ok = sol.consistent
        else:
            d = serialize.diagram_from_json(data, None)
            completed = scattering.complete(d)
            ok = scattering.is_consistent(completed)
            text = report.completion_report(d, completed, ok)
        sys.stdout.write(f"== {name}\n{text}")
        if outdir:
            write_text(str(outdir / f"{name}.report.txt"), text)
        if not ok:
            worst = EXIT_INCONSISTENT
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wallcross",
        description="Exact scattering-diagram completions and 2d-4d wall-crossing solves.",
    )
    parser.add_argument(
        "--convention-audit",
        action="store_true",
        help="print all orientation/sign constants and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, needs_input=True):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="input JSON file")
        p.add_argument("--order", type=int, default=None, help="truncation order N")
        p.add_argument("--output", default=None, help="write the result JSON here")
        p.add_argument("--emit-svg", default=None, help="write an SVG plot here")
        p.add_argument("--emit-csv", default=None, help="write a CSV summary here")
        p.set_defaults(fn=fn)
        return p

    add("complete", cmd_complete)
    add("check", cmd_check)
    add("wcf", cmd_wcf)
    add("bch", cmd_bch)
    add("plot", cmd_plot)
    demo = sub.add_parser("demo")
    demo.add_argument("--outdir", default=None, help="write fixture reports here")
    demo.set_defaults(fn=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.convention_audit:
        sys.stdout.write(convention_audit())
        return EXIT_OK
    if not getattr(args, "fn", None):
        parser.print_help()
        return EXIT_SCHEMA
    try:
        return args.fn(args)
    except SchemaError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_SCHEMA
    except ConventionError as e:
        sys.stderr.write(f"convention violation: {e}\n")
        return EXIT_CONVENTION


if __name__ == "__main__":
    sys.exit(main())
