"""Toy-size smoke test of the benchmark: python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one second, plain and traced, and checks that the
result line names every metric of BENCHMARK.json with its unit, that every
output check passed, and that span counts repeat exactly for one seed; and
checks that the benchmark's clock leaves out the time of its own readings.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("play", "train", "imagine")
SEED = 5

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(lines[-2])["record"]
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert result["attempted"] >= 1
    return result


def check_names(result: dict, specs: list) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    check_names(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    check_names(first, SPEC["per_layer"])
    counts = [name for name in first["metrics"] if name.endswith((".calls", ".rows"))]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    busy = {"play": "store.EpisodeStore.append.calls", "train": "optim.Adam.step.calls",
            "imagine": "diffusion.ddpm_sample.calls"}[workload]
    assert first["metrics"][busy]["value"] > 0
    # the set-up runs under the spans too, so its curation reports everywhere
    assert first["metrics"]["curation.embed_store_windows.calls"]["value"] > 0


def test_tracer_reaches_by_name_imports():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        from playwm import bench, diffusion, dsrl, policies, render, worldmodel
        from tracing import Tracer

        originals = (render.render, diffusion.ddpm_sample, policies.act)
        with Tracer():
            assert bench.render is render.render is worldmodel.render
            assert bench.ddpm_sample is diffusion.ddpm_sample is worldmodel.ddpm_sample
            assert bench.act is policies.act is dsrl.act
            assert render.render is not originals[0]
        assert (render.render, diffusion.ddpm_sample, policies.act) == originals
        assert bench.render is originals[0] and dsrl.act is originals[2]
    finally:
        del sys.path[:2]


def test_yardstick_leaves_out_its_readings():
    sys.path.insert(0, HERE)
    try:
        from yardstick import PERIOD, Yardstick, now

        with Yardstick() as clock:
            t0 = now()
            while now() - t0 < 20 * PERIOD:
                pass
            t1 = now()
        assert len(clock.durations) >= 10
        raw = clock.raw_seconds(t0, t1)
        # each reading takes a few percent of its period, warm-up pass included
        assert 0.8 * (t1 - t0) < raw < t1 - t0 - sum(clock.durations)
        scales = clock.scales
        assert min(scales) * raw <= clock.seconds(t0, t1) <= max(scales) * raw
    finally:
        del sys.path[0]
