"""Tests of the benchmark itself: metric names, smoke runs, negative control.

    python -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import supermaps
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _first_of_each_kind(items) -> list:
    """The first item of every kind, e.g. 'pipeline 1,1,1,1' for 'pipeline'."""
    seen, out = set(), []
    for item in items:
        kind = item.key.split()[0]
        if kind not in seen:
            seen.add(kind)
            out.append(item)
    return out


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def tiny(request, tmp_path_factory):
    wl = workloads.build(request.param, 0, tmp_path_factory.mktemp(request.param))
    return wl.name, _first_of_each_kind(wl.items), harness.SpeedProbe(wl.reference_task)


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert SPEC["paths"] == ["bench"]
    assert len(SPEC["per_layer"]) <= 128
    assert _units("per_layer") == tracing.metric_units()


def test_smoke_end_to_end_metrics(tiny):
    name, items, probe = tiny
    record = harness.measure(items, probe, seconds=0.0, pass_estimate=0.0)
    metrics = harness.end_to_end(record, setup_s=1.0, peak_rss_mb=1.0)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert record.passes == harness.MIN_PASSES
    assert record.failed == 0, name
    assert metrics["pass_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in metrics.values())


def test_smoke_traced_metrics(tiny):
    name, items, probe = tiny
    tracer = tracing.Tracer()
    record = harness.PassRecord([item.key for item in items])
    tracer.install()
    try:
        harness.run_pass(items, probe, record, tracer.on_item)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics([1.0] * len(items))
    assert record.failed == 0
    assert set(layer) | {m for m in _units("per_layer") if m.endswith(".peak_mb")} | {
        "trace.overhead_frac"
    } == set(_units("per_layer"))
    assert tracer.spans and all(span[4] >= 0 for span in tracer.spans)
    busiest = {
        "small-d": "supermap.is_deterministic.calls",
        "large-d": "supermap.is_deterministic_effectwise.calls",
        "cli-json": "io.load_json.calls",
    }[name]
    assert layer[busiest] > 0


def test_tracer_patches_every_namespace_and_restores():
    original = supermaps.supermap.is_deterministic
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for holder in (supermaps, supermaps.supermap, supermaps.realization, supermaps.cli):
            assert holder.is_deterministic is not original
        supermaps.identity_supermap(2, 2)
    finally:
        tracer.uninstall()
    for holder in (supermaps, supermaps.supermap, supermaps.realization, supermaps.cli):
        assert holder.is_deterministic is original
    assert [span[0] for span in tracer.spans] == ["supermap.identity_supermap", "supermap.Supermap.validate"]
    assert tracer.spans[1][3] == 0  # the validator's parent is the constructor call


def test_corrupted_item_raises_fail_fraction(tmp_path):
    """Negative control: a realized V perturbed by 1e-3 must be caught."""
    wl = workloads.build("small-d", 0, tmp_path)
    item = next(i for i in wl.items if i.key.startswith("pipeline 2,2,2,2"))
    clean_run = item.run

    def corrupted():
        result = clean_run()
        v = result["v"].copy()
        v[0, 0] += 1e-3
        return dict(result, v=v)

    item.run = corrupted
    record = harness.measure([item], harness.SpeedProbe("interpreter"), seconds=0.0, pass_estimate=0.0)
    metrics = harness.end_to_end(record, setup_s=1.0, peak_rss_mb=1.0)
    assert record.failed == record.attempted > 0
    assert metrics["pass_frac"]["value"] < 1.0


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("cli-json", 3, tmp_path / "a").digest
    b = workloads.build("cli-json", 3, tmp_path / "b").digest
    c = workloads.build("cli-json", 4, tmp_path / "c").digest
    assert a == b != c


def test_item_latency_is_median_of_passes_and_tail_has_ten_beyond():
    record = harness.PassRecord([f"item {i}" for i in range(40)])
    record.pass_ms = [[float(i) + d for i in range(40)] for d in (5.0, 0.0, -1.0)]
    record.attempted = 120
    metrics = harness.end_to_end(record, setup_s=1.0, peak_rss_mb=1.0)
    assert record.item_ms() == [float(i) for i in range(40)]
    assert metrics["item_p50_ms"]["value"] == 19.0
    assert metrics["item_tail_ms"]["value"] == 29.0  # items 30..39 lie beyond it
    assert metrics["items_per_s"]["value"] == pytest.approx(40 / (sum(range(40)) / 1e3))
    assert harness.tail_info(record)["percentile"] == 75.0


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
