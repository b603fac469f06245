"""Command-line front end.

Subcommands: ``complete``, ``check``, ``wcf``, ``bch``, ``plot``, ``demo``;
every file format they read or write lives in :mod:`serialize`.  Exit codes:
0 success/consistent, 1 inconsistent, 2 input error (an input that cannot be
read or decoded, bad JSON, a JSON integer longer than Python's digit limit
or nesting deeper than its recursion limit, a malformed value or rational,
a rank above ``serialize.MAX_RANK`` (64; for a BPS file, more vacua), and
an output that cannot be written, included), 3 convention
violation (among others, a completion that would change an initial wall),
5 internal error (any other exception, reported as one ``internal error:``
line on stderr).
The plots are written first, ``--output`` next and stdout last, so a run
that exits 2 leaves no ``--output`` file and nothing on stdout, and one that
exits 3 writes nothing.  ``SCATTER_MAX_ORDER`` caps the truncation order
(default 16).  Outputs are byte-identical across runs and hash seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import groupoid, report, scattering, serialize, vertexlie
from .exceptions import ConventionError, SchemaError

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_SCHEMA = 2
EXIT_CONVENTION = 3
EXIT_INTERNAL = 5  # 4 is kept for budget limits

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
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:
        # besides JSONDecodeError: an integer over Python's digit limit, or nesting too deep
        raise SchemaError(f"bad JSON in {path}: {e}") from None


def write_text(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise SchemaError(f"cannot write {path}: {e}") from None


def convention_audit() -> str:
    lines = [
        "convention audit",
        "  primitive normal: 90-degree counterclockwise rotation, reduced",
        "  dirac pairing: determinant det(g, g2)",
        f"  loop orientation: {scattering.LOOP_ORIENTATION} from the positive x-axis",
        f"  path product: first wall crossed {scattering.FIRST_CROSSED}",
        f"  line expansion: {scattering.LINE_EXPANSION}",
        f"  produced walls: {scattering.PRODUCED_WALLS}",
        f"  bridge matrix sign: {groupoid.UPSILON_MATRIX_SIGN:+d} "
        "(S generator maps to -mu t E[i,j] z^m)",
        "  wall-crossing ring: untwisted groupoid ring (twisting \"trivial\")",
        f"  max truncation order: {max_order()}",
    ]
    return "\n".join(lines) + "\n"


def _completion(d) -> tuple:
    """Complete ``d``: the completed diagram, its report and its consistency."""
    completed = scattering.complete(d)
    consistent = scattering.is_consistent(completed)
    return completed, report.completion_report(d, completed, consistent), consistent


def _solution(problem) -> tuple:
    """Solve ``problem``: the completed diagram, its report and its consistency."""
    sol = groupoid.solve_wcf(problem)
    return sol.completed, report.wcf_report(sol), sol.consistent


def _write_results(args, completed, text: str):
    _emit_plots(args, completed)
    if args.output:
        write_text(args.output, serialize.dumps(serialize.diagram_to_json(completed)))
    sys.stdout.write(text)


def cmd_complete(args) -> int:
    d = serialize.diagram_from_json(load_json(args.input), args.order)
    check_order(d.ctx.order)
    completed, text, consistent = _completion(d)
    _write_results(args, completed, text)
    return EXIT_OK if consistent else EXIT_INCONSISTENT


def cmd_check(args) -> int:
    d = serialize.diagram_from_json(load_json(args.input), args.order)
    check_order(d.ctx.order)
    defect = scattering.defect(d)
    _emit_plots(args, d)
    if defect is None:
        sys.stdout.write("consistent\n")
        return EXIT_OK
    scattering.require_half_plane(d)
    sys.stdout.write(report.defect_report(defect))
    return EXIT_INCONSISTENT


def cmd_wcf(args) -> int:
    problem, n = serialize.bps_from_json(load_json(args.input), args.order)
    check_order(n)
    completed, text, consistent = _solution(problem)
    _write_results(args, completed, text)
    return EXIT_OK if consistent else EXIT_INCONSISTENT


def cmd_bch(args) -> int:
    x, y = serialize.bch_from_json(load_json(args.input), args.order)
    check_order(x.ctx.order)
    text = serialize.dumps(serialize.bch_to_json(vertexlie.bch(x, y)))
    if args.output:
        write_text(args.output, text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_plot(args) -> int:
    d = serialize.diagram_from_json(load_json(args.input), args.order)
    if not args.emit_svg and not args.emit_csv:
        raise SchemaError("plot needs --emit-svg and/or --emit-csv")
    _emit_plots(args, d)
    return EXIT_OK


def _emit_plots(args, d):
    if args.emit_svg:
        write_text(args.emit_svg, report.diagram_svg(d))
    if args.emit_csv:
        write_text(args.emit_csv, report.diagram_csv(d))


def cmd_demo(args) -> int:
    """Run every bundled fixture; the order cap does not apply to them."""
    outdir = Path(args.outdir) if args.outdir else None
    if outdir:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise SchemaError(f"cannot write {outdir}: {e}") from None
    worst = EXIT_OK
    reports = []
    for name, (kind, fname) in FIXTURES.items():
        data = json.loads(resources.files("wallcross.fixtures").joinpath(fname).read_text())
        if kind == "bps":
            _completed, text, ok = _solution(serialize.bps_from_json(data)[0])
        else:
            _completed, text, ok = _completion(serialize.diagram_from_json(data))
        if outdir:
            write_text(str(outdir / f"{name}.report.txt"), text)
        reports.append(f"== {name}\n{text}")
        if not ok:
            worst = EXIT_INCONSISTENT
    sys.stdout.write("".join(reports))
    return worst


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
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

    def add(name, fn, output, plots):
        p = sub.add_parser(name)
        p.add_argument("input", help="input JSON file")
        p.add_argument("--order", type=int, default=None, help="truncation order N")
        if output:
            p.add_argument("--output", default=None, help="write the result JSON here")
        if plots:
            p.add_argument("--emit-svg", default=None, help="write an SVG plot here")
            p.add_argument("--emit-csv", default=None, help="write a CSV summary here")
        p.set_defaults(fn=fn)

    add("complete", cmd_complete, output=True, plots=True)
    add("check", cmd_check, output=False, plots=True)
    add("wcf", cmd_wcf, output=True, plots=True)
    add("bch", cmd_bch, output=True, plots=False)
    add("plot", cmd_plot, output=False, plots=True)
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
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
