"""Benchmark of the ``supermaps`` package, run from the root of a checkout:

    python3 bench/run.py --workload small-d|large-d|cli-json --seed N --seconds S --trace 0|1

Workload inputs are generated from ``--seed`` (the same seed gives the same
inputs; their sha256 is reported) and every item's output is checked.  The
workloads and why each exists are described in workloads.py.  A run times
whole passes over the workload's fixed item list, one caller in a closed
loop, for about ``--seconds`` and at least harness.MIN_PASSES passes.

The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones:

- ``items_per_s``: items of the list per second at their latencies;
- ``item_p50_ms``: median item latency;
- ``item_tail_ms``: item latency with ten items of the list beyond it;
- ``pass_frac``: share of attempted items whose output check passed;
- ``setup_s``: import, fixtures, input files and one warm-up pass;
- ``peak_rss_mb``: peak resident memory of the measuring process.

Times are scaled to a reference machine speed measured by a probe beside
each item (see harness.py); raw wall-clock figures are in the record.  With
``--trace 1`` the metrics are the per-layer ones of tracing.py.  The line
before the last holds the details (environment, input hash, tail percentile
and sample counts, speed scaling, tracing overhead); the full record, with a
median latency per item kind and size class, is written to ``bench/out/``.

With ``--trace 0`` the set-up is run in SETUPS separate processes, each
paying the package import and first-call costs, and ``setup_s`` is their
median; the last of them runs alone and goes on to measure.  With
``--trace 1`` one process measures untraced passes, then one traced pass
(see worker.py).

BLAS runs with BLAS_THREADS thread, fixed through the environment before
any process imports numpy: one thread keeps every process on one core, so a
slow spell of the machine slows the items and the speed probe alike.  The
benchmark exits with a non-zero code, and prints no result, when the
checkout has no ``src/supermaps`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("small-d", "large-d", "cli-json")
SETUPS = 3
BLAS_THREADS = 1
# Every run must end well within the 180 s a run is allowed.
DEADLINE_S = 170.0


def _start(args, mode: str, env: dict) -> subprocess.Popen:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    return subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen, deadline: float) -> dict:
    """Wait for a worker, forward its stderr and return its result line."""
    out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {proc.args[-1]} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _run_workers(args, env: dict) -> tuple[list, dict]:
    """Set-up-only results and the measuring worker's result.

    The set-up-only workers run side by side, one per core; their set-up
    times are scaled by their own speed probes like every other time.
    """
    deadline = time.monotonic() + DEADLINE_S
    procs = []
    try:
        if args.trace:
            setups = []
        else:
            procs = [_start(args, "setup", env) for _ in range(SETUPS - 1)]
            setups = [_finish(p, deadline) for p in procs]
        procs = [_start(args, "trace" if args.trace else "measure", env)]
        return setups, _finish(procs[0], deadline)
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="supermaps benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supermaps" / "__init__.py").is_file():
        print(f"error: no supermaps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = str(BLAS_THREADS)
    # A fixed hash seed gives every process the same dict and set layouts.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    try:
        setups, result = _run_workers(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_samples = [s["setup_s"] for s in setups] + [result["setup_s"]]
    setup_wall = [s["setup_wall_s"] for s in setups] + [result["setup_wall_s"]]
    digests = {s["input_sha256"] for s in setups} | {result["input_sha256"]}
    if len(digests) != 1:
        print(f"error: one seed generated different inputs: {sorted(digests)}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(setup_samples)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": result["input_sha256"],
        "environment": result["environment"],
        "setup_s_samples": setup_samples,
        "setup_wall_s_samples": setup_wall,
        "tail": result["tail"],
        "scaling": result["scaling"],
    }
    if args.trace:
        details["tracing"] = result["trace"]
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(details, metrics=metrics, breakdown_ms=result["breakdown_ms"])
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    details["record"] = str(record_path.relative_to(ROOT))

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
