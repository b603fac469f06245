"""The wallcross benchmark: seeded workloads timed through the CLI commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kronecker-r1 --seed 1 --seconds 36 --trace 0

Each input is one operation of a closed loop with a single client: the
``complete`` (or ``wcf``) command with ``--output``, then ``check`` on that
output, both run in-process through ``wallcross.cli.main``.  The loop runs
for ``--seconds``; afterwards every output is verified (exit codes, ``check``
printing ``consistent``, initial walls unchanged, digests against
``reference.json`` where it has the input).  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

The traced run times a fixed number of inputs twice each, untraced and with
the wrappers of ``layertrace.py`` installed, in alternating order.  Its
timings are per input, and its counts repeat exactly for a given seed and
``--seconds``.  Spans are written to
``.bench_work/spans-<workload>-seed<seed>.jsonl``.

``--smoke`` runs a few small inputs per workload in seconds.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from layertrace import COUNTS, FUNCTIONS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9
BATCH_PER_SECOND = 8  # inputs generated per second of run time (a run stops early if used up)
TAIL_PERCENTILE = 75
TAIL_BEYOND = 10  # the tail percentile must leave at least this many inputs beyond it
SMOKE_INPUTS = 3
# Inputs timed by a traced run per second of --seconds (each is run untraced and traced).
TRACE_INPUTS_PER_SECOND = 0.6


class BenchError(Exception):
    """The benchmark cannot run here."""


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# -- host speed ----------------------------------------------------------------------
#
# On a shared host the speed of a core swings by up to 2x over spells of a few
# seconds, and CPU time swings with it.  So every timed span is bracketed by a
# fixed calibration kernel, and the span is reported in reference seconds: its
# seconds divided by the host's slowness, the kernel's time over its nominal
# time, averaged over the two brackets.  A reference second is a second on a
# host that runs the kernel in CALIBRATION_NOMINAL_S.

CALIBRATION_REPEATS = 5
CALIBRATION_NOMINAL_S = 0.002  # about the kernel's time in the fast spells of a 2-vCPU VM
_CALIBRATION_SERIES = {(t, k): Fraction(t + 1, k + 2) for t in range(8) for k in range(4)}


def _calibration_kernel() -> dict:
    """A truncated product of two sparse Fraction series, the program's typical inner loop."""
    prod: dict = {}
    for (t1, k1), c1 in _CALIBRATION_SERIES.items():
        for (t2, k2), c2 in _CALIBRATION_SERIES.items():
            if t1 + t2 <= 8:
                key = (t1 + t2, k1 + k2)
                prod[key] = prod.get(key, 0) + c1 * c2
    return prod


def host_slowness() -> float:
    """Median kernel time over its nominal time; GC is off, so the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / CALIBRATION_NOMINAL_S


# -- set-up --------------------------------------------------------------------------


def import_wallcross():
    """(Re-)import the package from ``src`` of this checkout; return its ``cli``."""
    if not (SRC / "wallcross" / "cli.py").is_file():
        raise BenchError(f"no wallcross sources under {SRC}")
    for name in [m for m in sys.modules if m == "wallcross" or m.startswith("wallcross.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wallcross.cli

    if Path(wallcross.cli.__file__).resolve().parent != (SRC / "wallcross").resolve():
        raise BenchError(f"imported wallcross from {wallcross.cli.__file__}, not from {SRC}")
    return wallcross.cli


def set_up(workload, seed: int, count: int, order: int, workdir: Path):
    """Import the package, generate the seeded batch and write the input files."""
    cli = import_wallcross()
    docs = workload.generate(random.Random(seed), count, order)
    if workdir.exists():
        shutil.rmtree(workdir)
    (workdir / "in").mkdir(parents=True)
    (workdir / "out").mkdir()
    paths = []
    for i, doc in enumerate(docs):
        path = workdir / "in" / f"{i:05d}.json"
        path.write_text(canonical(doc))
        paths.append(path)
    return cli, docs, paths


# -- the closed loop -----------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One in-process CLI call: (exit code or None on an exception, stdout, error)."""
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # an input that raises counts as failed, the loop goes on
        return None, out.getvalue(), f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def run_one(cli, command: str, src: Path, dst: Path) -> dict:
    """Run one input; times are in reference seconds, ``*_raw_s`` in seconds."""
    clock = time.perf_counter
    slow0 = host_slowness()
    t0 = clock()
    code, report, err = run_cli(cli, [command, str(src), "--output", str(dst)])
    t1 = clock()
    slow1 = host_slowness()
    rec = {"complete_s": (t1 - t0) / ((slow0 + slow1) / 2), "complete_raw_s": t1 - t0,
           "slowness": [slow0, slow1], "complete_exit": code, "report": sha256(report),
           "error": err}
    if code == 0:
        t2 = clock()
        ccode, ctext, cerr = run_cli(cli, ["check", str(dst)])
        t3 = clock()
        slow2 = host_slowness()
        rec.update(check_s=(t3 - t2) / ((slow1 + slow2) / 2), check_raw_s=t3 - t2,
                   check_exit=ccode, check_out=ctext, error=err + cerr)
        rec["slowness"].append(slow2)
        rec["output"] = sha256(dst.read_bytes())
    return rec


def run_loop(cli, workload, paths, outdir: Path, seconds: float) -> list[dict]:
    """Closed loop over the batch until ``seconds`` have passed or the batch is used up."""
    records = []
    start = time.perf_counter()
    for src in paths:
        if records and time.perf_counter() - start >= seconds:
            break
        records.append(run_one(cli, workload.command, src, outdir / src.name))
    return records


# -- verification --------------------------------------------------------------------


def _wall_key(wall: dict):
    terms = sorted(
        (t["t"], t["k"], tuple(tuple(Fraction(x) for x in row) for row in t.get("matrix") or ()),
         Fraction(t.get("derivation", "0")))
        for t in wall["terms"]
    )
    # a zero matrix and an absent one mean the same
    terms = [(t, k, m if any(x for row in m for x in row) else (), d) for t, k, m, d in terms]
    return tuple(wall["direction"]), wall["geometry"], tuple(terms)


def initial_walls(workload, doc: dict) -> list[dict]:
    """The walls the output must contain unchanged."""
    if workload.command == "complete":
        return doc["walls"]
    # A BPS problem's lines are built by the program; build them outside any timing.
    from wallcross import groupoid, serialize
    from wallcross.series import TruncationContext

    problem, n = serialize.bps_from_json(doc)
    lie_ctx = TruncationContext(n, max(1, len(problem.context.vacua)))
    return serialize.diagram_to_json(groupoid.build_initial_diagram(problem, lie_ctx))["walls"]


def verify(workload, docs, records, outdir: Path, reference: dict) -> list[str]:
    """Return one problem string per failed input (empty when all passed)."""
    problems = []
    for i, rec in enumerate(records):
        why = None
        if rec["complete_exit"] != 0:
            why = f"{workload.command} exit {rec['complete_exit']} {rec['error'].strip()}"
        elif rec["check_exit"] != 0 or rec["check_out"] != "consistent\n":
            why = f"check exit {rec['check_exit']}: {rec['check_out'].strip()!r}"
        else:
            out = json.loads((outdir / f"{i:05d}.json").read_text())
            have = {_wall_key(w) for w in out["walls"]}
            missing = [w["direction"] for w in initial_walls(workload, docs[i])
                       if _wall_key(w) not in have]
            ref = reference.get(sha256(canonical(docs[i])))
            if missing:
                why = f"initial walls changed or missing: {missing}"
            elif ref is not None and ref != {"output": rec["output"], "report": rec["report"]}:
                why = "output digest differs from the reference"
        if why:
            problems.append(f"input {i:05d}: {why}")
    return problems


def coeff_bits_max(outdir: Path, count: int) -> int:
    """Largest numerator or denominator bit length in the completed outputs."""
    best = 0
    for i in range(count):
        out = json.loads((outdir / f"{i:05d}.json").read_text())
        for wall in out["walls"]:
            for term in wall["terms"]:
                for c in [x for row in term["matrix"] for x in row] + [term["derivation"]]:
                    q = Fraction(c)
                    best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def load_reference(workload_name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload_name, {})


# -- metrics -------------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """p75, or the highest percentile leaving TAIL_BEYOND inputs beyond it; never below p50.

    p75 is the highest that leaves ten of 40 inputs, about the fewest a run
    of the slowest workload holds at this commit.
    """
    return max(50, min(TAIL_PERCENTILE, math.floor(100 * (n - TAIL_BEYOND) / n)))


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(records, setup_s: float) -> tuple[dict, list[str]]:
    done = [r for r in records if r["complete_exit"] == 0 and "check_s" in r]
    if not done:
        raise BenchError("no input completed")
    complete = [r["complete_s"] for r in done]
    check = [r["check_s"] for r in done]
    n = len(done)
    p = tail_percentile(n)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "complete_s.p50": metric(statistics.median(complete), "s"),
        "complete_s.tail": metric(percentile(complete, p), "s"),
        "check_s.p50": metric(statistics.median(check), "s"),
        "check_s.tail": metric(percentile(check, p), "s"),
        "inputs_per_s": metric(n / (sum(complete) + sum(check)), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    slowness = [x for r in records for x in r["slowness"]]
    notes = [f"tail = p{p} over n={n} inputs; times are in reference seconds (see host_slowness)",
             f"host slowness: median {statistics.median(slowness):.3f}, "
             f"range {min(slowness):.3f}-{max(slowness):.3f} over {len(slowness)} brackets",
             f"raw medians: complete {statistics.median(r['complete_raw_s'] for r in done):.6g} s, "
             f"check {statistics.median(r['check_raw_s'] for r in done):.6g} s"]
    return metrics, notes


def layer_metrics(tracer: Tracer, k: int, untraced_s: float, traced_s: float,
                  bits: int) -> dict:
    out = {}
    for name in FUNCTIONS:
        calls, s, self_s = tracer.stats[name]
        out[f"{name}.calls"] = metric(calls / k, "count")
        out[f"{name}.s"] = metric(s / k, "s")
        out[f"{name}.self_s"] = metric(self_s / k, "s")
    counts = tracer.counts
    for name in COUNTS:
        if name != "series.SeriesElem.mul.kept_pairs":
            out[name] = metric(counts[name] / k, "count")
    pairs = counts["series.SeriesElem.mul.term_pairs"]
    kept = counts["series.SeriesElem.mul.kept_pairs"]
    out["series.SeriesElem.mul.kept_ratio"] = metric(kept / pairs if pairs else 1.0, "ratio")
    out["series.coeff_bits_max"] = metric(bits, "bits")
    out["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    return out


def op_seconds(records) -> float:
    return sum(r["complete_s"] + r.get("check_s", 0.0) for r in records)


# -- main ----------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run {SMOKE_INPUTS} small inputs at the workload's smoke order")
    return parser.parse_args(argv)


def timed_set_up(workload, seed: int, count: int, order: int, workdir: Path):
    """Set up SETUP_REPEATS times; return the median in reference seconds.

    The first repeat counts from the start of this script.  Each repeat is
    divided by the host's slowness measured around it (after it, for the first).
    """
    times = []
    start, before = _T_START, None
    for _ in range(SETUP_REPEATS):
        cli, docs, paths = set_up(workload, seed, count, order, workdir)
        seconds = time.perf_counter() - start
        after = host_slowness()
        times.append(seconds / (after if before is None else (before + after) / 2))
        before = after
        start = time.perf_counter()
    return cli, docs, paths, statistics.median(times)


def untraced_run(cli, workload, docs, paths, workdir: Path, seconds: float, setup_s: float,
                 reference: dict):
    records = run_loop(cli, workload, paths, workdir / "out", seconds)
    problems = verify(workload, docs, records, workdir / "out", reference)
    metrics, notes = end_to_end_metrics(records, setup_s)
    return records, problems, metrics, notes


def traced_run(cli, workload, docs, paths, workdir: Path, seed: int, reference: dict):
    """Run each input untraced and traced, in alternating order; compare the outputs."""
    tracer = Tracer()
    traced_dir = workdir / "traced"
    traced_dir.mkdir()
    untraced, records = [], []
    for i, src in enumerate(paths):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.trace_id += 1  # the spans of one input share a trace id
                with tracer.installed():
                    records.append(run_one(cli, workload.command, src, traced_dir / src.name))
            else:
                untraced.append(run_one(cli, workload.command, src, workdir / "out" / src.name))
    problems = verify(workload, docs, untraced, workdir / "out", reference)
    problems += verify(workload, docs, records, traced_dir, reference)
    for i, (a, b) in enumerate(zip(untraced, records)):
        if (a.get("output"), a["report"]) != (b.get("output"), b["report"]):
            problems.append(f"input {i:05d}: traced output differs from untraced")
    n = len(records)
    metrics = layer_metrics(tracer, n, op_seconds(untraced), op_seconds(records),
                            coeff_bits_max(traced_dir, n))
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    notes = [f"per-layer values are per input over n={n} inputs; "
             f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}"]
    return records, problems, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    order = workload.smoke_order if args.smoke else workload.order
    if args.smoke:
        count = SMOKE_INPUTS
    elif args.trace:
        count = max(2, round(args.seconds * TRACE_INPUTS_PER_SECOND))
    else:
        count = int(BATCH_PER_SECOND * args.seconds) + 16
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        cli, docs, paths, setup_s = timed_set_up(workload, args.seed, count, order, workdir)
        reference = load_reference(workload.name)
        if args.trace:
            records, problems, metrics, notes = traced_run(
                cli, workload, docs, paths, workdir, args.seed, reference)
        else:
            records, problems, metrics, notes = untraced_run(
                cli, workload, docs, paths, workdir, args.seconds, setup_s, reference)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = len({p.split(":")[0] for p in problems})
    lines = [f"workload {workload.name}: seed {args.seed}, N={order}, {len(paths)} inputs "
             f"generated, {workload.command} + check", *notes,
             f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}"]
    lines += [f"  FAILED {p}" for p in problems[:20]]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(lines))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
