"""Regenerate ``reference.json``: output digests for the default seed's inputs.

Usage, from the root of a checkout::

    python3 perfbench/reference.py

For every workload it runs the first ``REFERENCE_INPUTS`` inputs of seed
``DEFAULT_SEED`` at the workload's order and the smoke inputs at its smoke
order, checks them as a benchmark run does, and records the sha256 of each
``--output`` file and stdout report under the sha256 of the input file.
Benchmark runs then require identical digests for every input found there.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

DEFAULT_SEED = 0
REFERENCE_INPUTS = 100


def digests(workload, count: int, order: int) -> dict:
    workdir = run.WORK / f"reference-{workload.name}-N{order}"
    try:
        cli, docs, paths = run.set_up(workload, DEFAULT_SEED, count, order, workdir)
        records = run.run_loop(cli, workload, paths, workdir / "out", math.inf)
        problems = run.verify(workload, docs, records, workdir / "out", {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        raise SystemExit("\n".join(problems))
    return {
        run.sha256(run.canonical(doc)): {"output": rec["output"], "report": rec["report"]}
        for doc, rec in zip(docs, records)
    }


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS.values():
        entries = digests(workload, REFERENCE_INPUTS, workload.order)
        entries.update(digests(workload, run.SMOKE_INPUTS, workload.smoke_order))
        reference[workload.name] = dict(sorted(entries.items()))
        print(f"{workload.name}: {len(entries)} inputs", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
