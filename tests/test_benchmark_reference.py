"""The benchmark's pinned digests, checked by the test suite.

``perfbench/reference.json`` holds the sha256 of the ``--output`` file and of
the stdout report for the first inputs of seed 0 of every workload, and a
benchmark run counts an input whose digests differ as failed.  Running the
first few of those inputs here makes a change to output or report text fail
the tests before it shows up in the benchmark as failed inputs.
"""

import importlib
import random
from pathlib import Path

import pytest

from wallcross import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPUTS = 3


@pytest.mark.parametrize("name", ["kronecker-r1", "random-r3", "bps-r4"])
def test_first_seed0_inputs_match_the_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workload = importlib.import_module("workloads").WORKLOADS[name]
    reference = run.load_reference(name)
    for i, doc in enumerate(workload.generate(random.Random(0), INPUTS, workload.order)):
        text = run.canonical(doc)
        src, dst = tmp_path / f"{i}.json", tmp_path / f"{i}.out.json"
        src.write_text(text)
        code, report, err = run.run_cli(cli, [workload.command, str(src), "--output", str(dst)])
        assert code == 0, err
        digests = {"output": run.sha256(dst.read_bytes()), "report": run.sha256(report)}
        assert reference[run.sha256(text)] == digests, f"input {i} of seed 0"
