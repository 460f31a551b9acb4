"""Closed-loop timing of a workload's fixed item list, and its statistics.

One caller runs the item list in order, pass after pass; an item starts when
the previous one has finished.  Only whole passes are measured.

Latencies are scaled to a reference machine speed.  The shared machines
this runs on change speed by up to 1.8x for seconds to minutes at a time
(other tenants contend for the cores), which moved whole runs by 40%.  A
fixed reference task that uses numpy but not ``supermaps`` is timed before
and after each item (at most every PROBE_EVERY_S), and the item's wall time
is multiplied by the task's reference time over the mean of those two probe
times.  The result is the item's latency on a machine where the reference
task takes its reference time: it follows every change to the program's
work, while a slow spell of the machine slows the probe about as much as the
item and cancels out.  Each workload names the reference task closest to its
own mix of work.  Raw wall times are kept beside the scaled ones in the
result record.

An item's latency is the median over the run's passes; the latency
statistics are taken over the item list.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

# A run measures at least this many passes, even past its time budget.
MIN_PASSES = 4
# The tail is the highest percentile of the item list with this many items beyond it.
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.05

_EYE2 = np.eye(2)
_SMALL = (np.arange(64).reshape(8, 8) % 7 - 3.0) + 1j * (np.arange(64).reshape(8, 8) % 5 - 2.0)
_JSON = json.dumps({"data": [[i / 7.0, -i / 3.0] for i in range(64)]})
_M64 = np.kron(_SMALL, _SMALL[:, ::-1]) / 16.0
_M100 = np.kron(_SMALL[:5, :5], np.kron(_SMALL[:4, :4], _SMALL[:5, :5].T))


def _interpreter_task() -> str:
    """Python loops over small complex arrays (kron, einsum, norms,
    eigenvalues), then JSON parsing and 17-digit float formatting."""
    acc = 0.0
    for a in range(4):
        for b in range(4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[a, b] = 1.0
            x = np.kron(_EYE2, unit) + 0.1 * _SMALL
            t = np.einsum("iaib->ab", x.reshape(2, 4, 2, 4))
            acc += float(np.linalg.norm(x - np.kron(_EYE2, t))) / max(1.0, float(np.linalg.norm(t)))
        acc += float(np.linalg.eigvalsh(x + x.conj().T)[0])
    data = json.loads(_JSON)["data"]
    return format(acc, ".17g") + ", ".join(format(x, ".17g") for pair in data for x in pair)


def _blas_task() -> float:
    """64 x 64 complex products and partial traces, then a 100 x 100 SVD."""
    acc = 0.0
    for _ in range(6):
        x = _M64 @ _M64 @ _M64.conj().T
        acc += float(np.linalg.norm(np.einsum("iaib->ab", x.reshape(8, 8, 8, 8))))
    return acc + float(np.linalg.svd(_M100, compute_uv=False)[0])


# Reference tasks with their time (ms) on a quiet 2-core x86-64 sandbox with
# numpy 2.4 and one OpenBLAS thread.  Timed beside the library's items, the
# interpreter task followed small and JSON-bound items within 1-5% while
# their raw times moved 65%; the BLAS task followed large items better
# (per-item spread 7-10% against 10-15%).
REFERENCE_TASKS = {
    "interpreter": (_interpreter_task, 0.85),
    "blas": (_blas_task, 1.45),
}


class SpeedProbe:
    """A reference task's current time in ms, re-measured when stale."""

    def __init__(self, task: str):
        self._task, self.reference_ms = REFERENCE_TASKS[task]
        self._at = -math.inf
        self._ms = 0.0
        self.samples_ms: list[float] = []

    def current_ms(self) -> float:
        if time.perf_counter() - self._at >= PROBE_EVERY_S:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                self._task()
                best = min(best, time.perf_counter() - t0)
            self._ms = best * 1e3
            self._at = time.perf_counter()
            self.samples_ms.append(self._ms)
        return self._ms

    def setup_scale(self) -> float:
        """Factor that scales a time spent while the probes so far were taken."""
        return self.reference_ms / statistics.median(self.samples_ms)


class PassRecord:
    """Latencies and verdicts of measured passes."""

    def __init__(self, keys: list):
        self.keys = keys
        self.pass_ms: list[list[float]] = []  # scaled latencies, one row per pass
        self.raw_ms: list[list[float]] = []  # wall-clock latencies, likewise
        self.pass_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0

    @property
    def passes(self) -> int:
        return len(self.pass_ms)

    def item_ms(self, rows=None) -> list[float]:
        """Per item, the median of its scaled latencies over the passes."""
        return [statistics.median(column) for column in zip(*(rows or self.pass_ms))]

    def items_per_s(self, rows=None) -> float:
        """Items per second of the item list at its per-item latencies."""
        return len(self.keys) / (sum(self.item_ms(rows)) / 1e3)


def run_pass(items, probe: SpeedProbe, record: PassRecord | None = None, on_item=None) -> float:
    """Run every item once, check its output, and return the pass's wall time.

    A failed check or an exception counts as one failed item; the item's
    traceback goes to stderr so the failure can be read after the run.
    ``on_item(index)`` is called before each item (the tracer uses it to tag
    spans with the item they belong to).
    """
    scaled, raw = [], []
    before = probe.current_ms()
    start = time.perf_counter()
    for index, item in enumerate(items):
        if on_item is not None:
            on_item(index)
        t0 = time.perf_counter()
        try:
            result = item.run()
            t1 = time.perf_counter()
            ok = bool(item.check(result))
        except Exception:  # any raise is a failed item, never a crashed benchmark
            t1 = time.perf_counter()
            ok = False
            print(f"item {item.key!r} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        if not ok:
            print(f"item {item.key!r} failed its output check", file=sys.stderr)
            if record is not None:
                record.failed += 1
        after = probe.current_ms()
        raw.append((t1 - t0) * 1e3)
        scaled.append(raw[-1] * probe.reference_ms / ((before + after) / 2.0))
        before = after
    elapsed = time.perf_counter() - start
    if record is not None:
        record.pass_ms.append(scaled)
        record.raw_ms.append(raw)
        record.pass_seconds.append(elapsed)
        record.attempted += len(items)
    return elapsed


def measure(items, probe: SpeedProbe, seconds: float, pass_estimate: float,
            on_item=None) -> PassRecord:
    """Run whole passes for about ``seconds``: another pass starts only if it
    is expected to end within the budget, and at least MIN_PASSES run."""
    record = PassRecord([item.key for item in items])
    start = time.perf_counter()
    last = pass_estimate
    while record.passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        last = run_pass(items, probe, record, on_item)
    return record


def _tail_index(n: int) -> int:
    return max(0, n - TAIL_BEYOND - 1)


def end_to_end(record: PassRecord, setup_s: float, peak_rss_mb: float) -> dict:
    """The six end-to-end metrics, by name, each with its unit.

    The median is the lower median of the item latencies; the tail is the
    latency with TAIL_BEYOND items slower than it.  ``tail_info`` records its
    percentile and the sample counts beside the result.
    """
    lat = sorted(record.item_ms())
    return {
        "items_per_s": {"value": record.items_per_s(), "unit": "items/s"},
        "item_p50_ms": {"value": lat[math.ceil(len(lat) / 2) - 1], "unit": "ms"},
        "item_tail_ms": {"value": lat[_tail_index(len(lat))], "unit": "ms"},
        "pass_frac": {
            "value": (record.attempted - record.failed) / record.attempted,
            "unit": "ratio",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def tail_info(record: PassRecord) -> dict:
    n = len(record.keys)
    return {
        "percentile": 100.0 * (_tail_index(n) + 1) / n,
        "items": n,
        "passes": record.passes,
        "samples": n * record.passes,
    }


def breakdown(record: PassRecord) -> dict:
    """Median item latency (ms) per item kind and size class, e.g. 'pipeline 2,3,1,4'."""
    by_key = defaultdict(list)
    for key, ms in zip(record.keys, record.item_ms()):
        by_key[key].append(ms)
    return {key: statistics.median(v) for key, v in by_key.items()}


def _openblas_version() -> str | None:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }
