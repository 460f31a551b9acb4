"""Per-layer spans recorded from outside the library, for the traced run only.

The tracer wraps every public function of the layers below, and the
``__post_init__`` validator of each of their dataclasses (reported as
``<module>.<Class>.validate``), in every module namespace of the package
that holds it: ``realization`` and ``cli`` import functions by name, so
patching only the defining module would miss their calls.  ``cli.cmd_*``
functions are reported under their subcommand, e.g. ``cli.check-op``.

Each call records one span (name, start, end, parent span, item) in memory;
``uninstall`` puts the original functions back.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

PACKAGE = "supermaps"
LAYERS = (
    "linalg",
    "operations",
    "supermap",
    "realization",
    "testers",
    "applications",
    "io",
    "cli",
    "selftest",
)

# Spans reported with calls and self time per pass.  Each should move a
# named end-to-end metric on a named workload; see BENCHMARK.json's whys.
REPORTED = (
    "supermap.is_deterministic_effectwise",
    "supermap.action_distance",
    "supermap.is_deterministic",
    "supermap.effect_map_of",
    "supermap.Supermap.validate",
    "supermap.dual_supermap",
    "supermap.apply_supermap",
    "applications.is_faithful",
    "applications.tomography_supermap",
    "applications.informationally_complete_tester_for",
    "applications.sandwich_supermap",
    "applications.programmable_channel",
    "realization.realize",
    "realization.realize_probabilistic",
    "realization.circuit_to_supermap",
    "realization.run_circuit",
    "realization.delayed_reading_check",
    "operations.QuantumOperation.validate",
    "operations.choi_to_kraus",
    "operations.kraus_to_choi",
    "operations.apply_operation",
    "operations.tensor",
    "linalg.eigh_sorted",
    "linalg.partial_trace",
    "testers.make_tester",
    "testers.evaluate",
    "testers.is_informationally_complete",
    "testers.tester_from_circuit",
    "testers.as_supermap_parts",
    "testers.discrimination_probability",
    "io.load_json",
    "io.matrix_from_json",
    "io.dumps17",
    "io.save_json",
    "selftest.run_selftest",
    "cli.check-op",
    "cli.choi2kraus",
    "cli.kraus2choi",
    "cli.apply",
    "cli.program-channel",
    "cli.tester-eval",
    "cli.tester-check",
    "cli.supermap",
    "cli.realize",
    "cli.realize-prob",
    "cli.tomography-check",
    "cli.selftest",
)
# Spans whose raised exceptions are also reported: the workloads' negative
# items make the first four raise on purpose; the validators and loaders
# are where rejected input shows up.
REPORTED_FAIL = (
    "realization.realize",
    "cli.realize",
    "cli.check-op",
    "io.matrix_from_json",
    "io.load_json",
    "supermap.effect_map_of",
    "supermap.Supermap.validate",
    "operations.QuantumOperation.validate",
    "testers.make_tester",
)
# Largest numpy allocation peak inside one call, from a separate pass.
PEAK_MEMORY = (
    "supermap.is_deterministic_effectwise",
    "supermap.action_distance",
    "applications.is_faithful",
)
COUNTERS = ("io.bytes_read", "io.bytes_written", "cli.stdout_bytes")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in REPORTED_FAIL:
        units[f"{name}.fail"] = "count"
    for name in PEAK_MEMORY:
        units[f"{name}.peak_mb"] = "MB"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes"
    units["trace.overhead_frac"] = "ratio"
    return units


# One-line helpers called hundreds of thousands of times per pass: a span
# would cost more than the call, so their time stays in the caller's.
UNWRAPPED = ("linalg.dag", "linalg.frob")


def _targets():
    """(span name, owner, attribute) for each wrapped function or validator.

    Generator functions are skipped: a span would time only the creation of
    the generator, and the iteration already counts to the caller.
    """
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if f"{layer}.{attr}" in UNWRAPPED or inspect.isgeneratorfunction(obj):
                continue
            if inspect.isfunction(obj):
                if layer == "cli" and attr.startswith("cmd_"):
                    name = "cli." + attr[4:].replace("_", "-")
                else:
                    name = f"{layer}.{attr}"
                yield name, module, attr
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                yield f"{layer}.{attr}.validate", obj, "__post_init__"


class _Patcher:
    """Replace functions everywhere the package holds them; undo on ``restore``."""

    def __init__(self):
        self._undo = []

    def install(self, make_wrapper) -> None:
        replacement = {}
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            wrapper = make_wrapper(name, original)
            replacement[id(original)] = (original, wrapper)
            self._set(owner, attr, original, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, obj, hit[1])

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """Spans in memory: (name, start_ns, end_ns, parent index, item, failed)."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.counters = defaultdict(int)
        self._stack: list[int] = []
        self._patcher = _Patcher()

    def on_item(self, index: int) -> None:
        self.item = index

    def install(self) -> None:
        self._patcher.install(self._wrap)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTING.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = False
            mark = counter.before(args) if counter else None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item, failed)
                if counter:
                    self.counters[counter.metric] += counter.after(args, mark)

        return wrapper

    def layer_metrics(self, item_scale: list) -> dict:
        """Calls, self time and failures of the reported spans in one traced pass.

        ``item_scale[i]`` is item i's speed factor (scaled over wall-clock
        latency, see harness.py); self times are scaled by it like latencies.
        """
        child_ns = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_s, fails = defaultdict(int), defaultdict(float), defaultdict(int)
        layer_s = defaultdict(float)
        for index, (name, start, end, _, item, failed) in enumerate(self.spans):
            own = (end - start - child_ns[index]) / 1e9 * (item_scale[item] if item >= 0 else 1.0)
            calls[name] += 1
            self_s[name] += own
            fails[name] += failed
            layer_s[name.split(".", 1)[0]] += own
        out = {}
        for name in REPORTED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in REPORTED_FAIL:
            out[f"{name}.fail"] = fails[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out

    def write_spans(self, path: Path, item_keys: list) -> None:
        """JSON lines: a header naming the columns, span names and item keys,
        then one array per span, its id being its line number minus two."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "columns": ["name", "start_ns", "end_ns", "parent", "item", "fail"],
                "names": names,
                "items": item_keys,
            }) + "\n")
            for name, start, end, parent, item, failed in self.spans:
                fh.write(f"[{code[name]},{start},{end},{parent},{item},{int(failed)}]\n")


class _FileBytes:
    """Size of the file named by the call's first argument, once it returns."""

    def __init__(self, metric: str):
        self.metric = metric

    def before(self, args):
        return None

    def after(self, args, mark) -> int:
        try:
            return os.path.getsize(args[0])
        except OSError:  # the wrapped call reports the missing file itself
            return 0


class _StdoutChars:
    """Characters a ``cli.main`` call printed; workloads capture stdout in a StringIO."""

    metric = "cli.stdout_bytes"

    def before(self, args):
        return sys.stdout.tell()

    def after(self, args, mark) -> int:
        return sys.stdout.tell() - mark


_COUNTING = {
    "io.load_json": _FileBytes("io.bytes_read"),
    "io.save_json": _FileBytes("io.bytes_written"),
    "cli.main": _StdoutChars(),
}


class PeakMemory:
    """Largest tracemalloc peak (MB) seen inside one call of each PEAK_MEMORY span.

    Installed for a separate untimed pass, because tracemalloc slows every
    allocation while it runs.
    """

    def __init__(self):
        self.peak_mb = dict.fromkeys(PEAK_MEMORY, 0.0)
        self._patcher = _Patcher()

    def install(self) -> None:
        self._patcher.install(self._wrap)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, name: str, fn):
        if name not in self.peak_mb:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb[name], peak / 2**20)

        return wrapper

    def metrics(self) -> dict:
        return {f"{name}.peak_mb": mb for name, mb in self.peak_mb.items()}
