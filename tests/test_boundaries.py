"""The production path's import boundary, and the names the benchmark hooks into.

``perfbench/layertrace.py`` wraps functions by module and attribute name, and
``perfbench/run.py`` rebuilds the initial walls of BPS inputs through the
solver; a refactor that moves either fails here before it breaks the
benchmark.
"""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

from wallcross import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
EXAMPLE1 = Path(cli.__file__).parent / "fixtures" / "example1.json"


def test_cli_imports_no_verification_code():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, wallcross.cli; "
        "print([m for m in ('wallcross.groupoid_ring', 'wallcross.trees') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_benchmark_layer_hooks_resolve_and_see_the_solver(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert cli.main(["wcf", str(EXAMPLE1), "--order", "4"]) == 0
    capsys.readouterr()
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert calls["groupoid.solve_wcf"] == 1
    assert calls["groupoid.build_initial_diagram"] == 1
    assert calls["scattering.complete"] == 1
    for module_name, path, _metric, _hot in layertrace.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), path


def test_benchmark_rebuilds_bps_initial_walls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workload = importlib.import_module("workloads").WORKLOADS["bps-r4"]
    (doc,) = workload.generate(random.Random(0), 1, workload.smoke_order)
    walls = run.initial_walls(workload, doc)
    directions = {tuple(f["gamma"]) for f in doc["factors"]}
    assert sorted(tuple(w["direction"]) for w in walls) == sorted(directions)
    assert all(w["geometry"] == "line" for w in walls)


def test_completion_runs_truncated_rounds_without_log(monkeypatch, capsys):
    # one product per degree, and the defect is read off the product without
    # a log: a return to full-order rounds with a log each fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert cli.main(["wcf", str(EXAMPLE1), "--order", "4"]) == 0
    capsys.readouterr()
    assert 1 <= tracer.counts["scattering.rounds"] <= 4
    assert tracer.counts["scattering.defect_terms"] == 0
