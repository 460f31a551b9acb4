"""One benchmark process: set up a workload, then optionally measure it.

    python3 bench/worker.py --workload W --seed N --seconds S --mode setup|measure|trace

``bench/run.py`` starts this script with the BLAS thread count already fixed
in the environment, so it holds before numpy is first imported.  The
package is imported from the checkout's ``src/`` directory and nowhere else.

Set-up time runs from just before ``import supermaps`` to the end of one
warm-up pass over the item list; it covers the import, fixture generation,
input files and the first-call costs (BLAS thread start-up, lazy imports)
that the warm-up pass absorbs.

Modes:
- ``setup``: set up and report the set-up time only.
- ``measure``: set up, then time whole passes for about ``--seconds``.
- ``trace``: set up, time untraced passes for about ``--seconds``, then one
  traced pass for the per-layer spans, then one untimed pass that records
  numpy allocation peaks.  Spans are written to ``bench/out/``.

The last stdout line is one JSON object for ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def _import_package():
    sys.path.insert(0, str(SRC))
    import supermaps

    where = Path(supermaps.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported supermaps from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    _import_package()
    # These import numpy and supermaps too, so they belong inside set-up time.
    import harness
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        probe = harness.SpeedProbe(wl.reference_task)
        warm_s = harness.run_pass(wl.items, probe)
        setup_wall_s = time.perf_counter() - start
        # Scaled like the latencies, by the probes taken during the warm-up pass.
        setup_s = setup_wall_s * probe.setup_scale()
        result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "input_sha256": wl.digest}
        if args.mode != "setup":
            # The fixtures live as long as the process: keep the collector from
            # rescanning them at random points inside timed items.
            gc.collect()
            gc.freeze()
            result.update(_measure(wl, args, probe, warm_s, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(wl, args, probe, warm_s: float, setup_s: float) -> dict:
    import harness
    import tracing

    record = harness.measure(wl.items, probe, args.seconds, warm_s)
    out = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": record.attempted,
        "failed": record.failed,
        "tail": harness.tail_info(record),
        "breakdown_ms": harness.breakdown(record),
        "environment": harness.environment(ROOT, args.seed),
        "scaling": {
            "reference_task": wl.reference_task,
            "reference_ms": probe.reference_ms,
            "probe_ms_median": statistics.median(probe.samples_ms),
            "probes": len(probe.samples_ms),
            "items_per_s_wall_clock": record.items_per_s(record.raw_ms),
            "pass_s": record.pass_seconds,
        },
    }
    if args.mode == "measure":
        out["metrics"] = harness.end_to_end(record, setup_s, out["peak_rss_mb"])
        return out

    keys = [item.key for item in wl.items]
    tracer = tracing.Tracer()
    traced = harness.PassRecord(keys)
    tracer.install()
    try:
        harness.run_pass(wl.items, probe, traced, tracer.on_item)
    finally:
        tracer.uninstall()
    peaks = tracing.PeakMemory()
    peak_pass = harness.PassRecord(keys)
    peaks.install()
    try:
        harness.run_pass(wl.items, probe, peak_pass)
    finally:
        peaks.uninstall()

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path, keys)
    layer = tracer.layer_metrics([s / r for s, r in zip(traced.pass_ms[0], traced.raw_ms[0])])
    layer.update(peaks.metrics())
    layer["trace.overhead_frac"] = record.items_per_s() / traced.items_per_s() - 1.0
    units = tracing.metric_units()
    out["metrics"] = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    out["attempted"] += traced.attempted + peak_pass.attempted
    out["failed"] += traced.failed + peak_pass.failed
    out["trace"] = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "items_per_s_untraced": record.items_per_s(),
        "items_per_s_traced": traced.items_per_s(),
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
