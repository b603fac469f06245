"""The benchmark's own tests, on the smoke path (a few small inputs per workload).

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layertrace import TARGETS  # noqa: E402
from workloads import BPS_VACUA, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["unit"] in ("count", "bits") or m["name"].endswith("kept_ratio")]


def bench(*argv: str) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generators_are_seeded_distinct_and_truncated(name):
    w = WORKLOADS[name]
    a = w.generate(random.Random(7), 40, w.order)
    assert a == w.generate(random.Random(7), 40, w.order)
    assert a != w.generate(random.Random(8), 40, w.order)
    assert len({run.canonical(doc) for doc in a}) == len(a) == 40
    assert all(doc["truncation"] == w.order <= 16 for doc in a)


def test_bps_inputs_have_two_directions_and_ordered_pairs():
    w = WORKLOADS["bps-r4"]
    for doc in w.generate(random.Random(3), 60, w.order):
        gammas = sorted({tuple(f["gamma"]) for f in doc["factors"]})
        assert len(gammas) == 2
        (a, b), (c, d) = gammas
        assert a * d - b * c != 0
        for gamma in gammas:
            kinds = sorted(f["type"] for f in doc["factors"] if tuple(f["gamma"]) == gamma)
            assert kinds == ["K", "S", "S"]
        for f in doc["factors"]:
            if f["type"] == "S":
                i, j = (BPS_VACUA.index(v) for v in f["pair"])
                assert i < j


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name):
    lines, result = bench("--workload", name, "--smoke", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SMOKE_INPUTS
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_ratio = 0/") for line in lines)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_repeats_its_counts(name):
    _, first = bench("--workload", name, "--smoke", "--trace", "1")
    _, second = bench("--workload", name, "--smoke", "--trace", "1")
    assert first["correct"] and second["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key
    m = first["metrics"]
    solves = m["groupoid.solve_wcf.calls"]["value"]
    assert (solves > 0) == (name == "bps-r4")
    assert m["scattering.complete.calls"]["value"] == 1
    assert m["cli.main.calls"]["value"] == 2


def test_wrappers_are_removed_after_the_traced_run():
    bench("--workload", "random-r3", "--smoke", "--trace", "1")
    import importlib

    for module_name, path, _metric, _hot in TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), path


def test_a_changed_output_digest_counts_as_failed():
    w = WORKLOADS["kronecker-r1"]
    workdir = run.WORK / "test-digest"
    try:
        cli, docs, paths = run.set_up(w, 0, run.SMOKE_INPUTS, w.smoke_order, workdir)
        records = run.run_loop(cli, w, paths, workdir / "out", math.inf)
        reference = run.load_reference(w.name)
        assert run.verify(w, docs, records, workdir / "out", reference) == []
        key = run.sha256(run.canonical(docs[1]))
        assert key in reference
        tampered = dict(reference, **{key: {"output": "0" * 64, "report": "0" * 64}})
        problems = run.verify(w, docs, records, workdir / "out", tampered)
        assert problems == ["input 00001: output digest differs from the reference"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_without_the_program_sources_it_fails_without_a_result():
    bare = run.WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in run.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "bps-r4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_bps_blocks_hold_every_direction_and_omega_combination_once():
    w = WORKLOADS["bps-r4"]
    docs = w.generate(random.Random(5), 48, w.order)
    for start in range(0, 48, 16):
        combos = {
            tuple((tuple(f["gamma"]), f["Omega"]) for f in doc["factors"] if f["type"] == "K")
            for doc in docs[start:start + 16]
        }
        assert len(combos) == 16


def test_host_slowness_is_positive_and_leaves_gc_as_it_was():
    import gc

    assert gc.isenabled()
    assert run.host_slowness() > 0
    assert gc.isenabled()
