"""Measure the benchmark's own steadiness and write ``baseline.json``.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --sets 21-30,31-40 --seconds 36 [--write]

Runs ``run.py --trace 0`` once per seed of each set on every workload, one
run at a time, and prints for each end-to-end metric the median of the runs
and their spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  It flags a spread (``setup_s``
excepted) above a third of the metric's bound in ``BENCHMARK.json``, and a
median of a later set worse than the first set's by more than the bound.
With ``--write`` it also makes one traced run (seed 1) per workload and
writes everything to ``baseline.json``.  Exits 1 when a run fails or a
check is flagged.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return result


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"unit": unit, "median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 4)}


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", default="21-30,31-40",
                        help="comma-separated seed ranges, one set each")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--write", action="store_true", help="write baseline.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    sets, flagged = {}, []
    for label, seed_range in zip("ABCDEFGH", args.sets.split(",")):
        seeds = seeds_of(seed_range)
        per_workload = {}
        for workload in workloads:
            results = [run(workload, seed, args.seconds, 0) for seed in seeds]
            entry = {"inputs_per_run": [r["attempted"] for r in results]}
            for name, m in bounds.items():
                entry[name] = summary([r["metrics"][name]["value"] for r in results], m["unit"])
                s = entry[name]
                line = (f"set {label} {workload:13s} {name:16s} median {s['median']:<10.6g} "
                        f"spread {s['spread']:.4f}")
                if name != "setup_s" and s["spread"] > m["bound"] / 3:
                    flagged.append(line)
                    line += f"  > bound/3 = {m['bound'] / 3:.4f}"
                if sets:
                    first = next(iter(sets.values()))["end_to_end"][workload][name]["median"]
                    worse = (s["median"] - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    line += f"  vs set A {worse:+.3f}"
                    if worse > m["bound"]:
                        flagged.append(line)
                print(line, flush=True)
            per_workload[workload] = entry
        sets[label] = {"seeds": seeds, "end_to_end": per_workload}
    if args.write:
        traced = {w: {k: round(v["value"], 6) for k, v in run(w, 1, args.seconds, 1)["metrics"]
                      .items()} for w in workloads}
        baseline = {
            "about": "End-to-end medians over one run per seed in each set (times in reference "
                     "seconds), and per-layer values of one traced run (seed 1; seconds as "
                     f"measured), on Python {platform.python_version()}. spread = (q3 - q1) / "
                     "median, quartiles from statistics.quantiles(values, n=4).",
            "run_seconds": args.seconds,
            "sets": sets,
            "per_layer_seed1": traced,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    for line in flagged:
        print("FLAGGED", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
