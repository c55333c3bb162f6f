"""Spans around the calls into qutritimg's layers, recorded from outside src/.

`Recorder.install` rebinds every reference to a traced public function that
it finds in the namespaces of the loaded `qutritimg` modules (module globals,
dispatch dicts and the attribute dicts of package-defined objects), so calls
made inside `cli.main` are seen as well as the harness's own calls.  The same
wrappers run with tracing on and off: with tracing off they only keep each
call's arguments and result for the output checks, which run after the item's
clock has stopped.  With tracing on they also record a span per call.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

# (module, public function) -> span name.  `gates` and `ternary` run only
# inside these calls and are counted in their callers' time.  The fqrqci
# measurement circuits are circuit preparation, so they count as `encode`.
SPAN_NAMES = {
    ("cli", "main"): "cli",
    ("images", "read_pgm"): "images.read",
    ("images", "read_ppm"): "images.read",
    ("images", "write_pgm"): "images.write",
    ("images", "write_ppm"): "images.write",
    ("encode", "encode_fqri"): "encode",
    ("encode", "encode_fqrri"): "encode",
    ("encode", "encode_fqrqci"): "encode",
    ("encode", "encode_mcqri"): "encode",
    ("encode", "encode_qrciq"): "encode",
    ("decode", "fqrqci_measurement_circuits"): "encode",
    ("simulator", "run"): "simulator.run",
    ("simulator", "sample"): "simulator.sample",
    ("simulator", "circuit_to_json"): "simulator.circuit_json.write",
    ("simulator", "circuit_from_json"): "simulator.circuit_json.read",
    ("simulator", "histogram_to_csv"): "simulator.histogram_csv.write",
    ("simulator", "histogram_from_csv"): "simulator.histogram_csv.read",
    ("decode", "decode_fqri"): "decode",
    ("decode", "decode_fqrri"): "decode",
    ("decode", "decode_fqrqci"): "decode",
    ("decode", "decode_mcqri"): "decode",
    ("decode", "decode_qrciq"): "decode",
    ("metrics", "mae"): "metrics.mae",
    ("metrics", "psnr"): "metrics.psnr",
}

ROOT = "harness.item"

# Spans and items are timed in CPU time of the process (user + system).  The
# program is single-threaded and waits on nothing but the page cache, so on
# an idle host this equals wall time; on a shared host it leaves out the
# time the scheduler gives to other tenants.
clock_ns = time.process_time_ns


def layer_of(span_name: str) -> str:
    """Layer that a span belongs to: the module, with simulator split by job."""
    parts = span_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "simulator" else parts[0]


class Recorder:
    """Captures calls per item and, when tracing, spans for every item.

    A span is `[span_id, parent_id, item_id, name, start_ns, end_ns, failed]`;
    span ids index `spans`.  Spans stay in memory until the run ends.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.calls: list[tuple] = []  # (span name, args, result) of the item
        self.item = None
        self.tracing = False
        self._stack: list[int] = []
        self._undo: list[tuple[dict, object, object]] = []

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            if not self.tracing:
                result = fn(*args, **kwargs)
                self.calls.append((name, args, result))
                return result
            span = [len(self.spans), self._stack[-1], self.item, name, 0, 0, True]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = clock_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock_ns()
                self._stack.pop()
            # cli.main reports errors through its exit code.
            span[6] = name == "cli" and result != 0
            self.calls.append((name, args, result))
            return result

        return traced

    def install(self):
        """Rebind every reference to a traced function in qutritimg."""
        wrappers = {}
        for (module, attr), name in SPAN_NAMES.items():
            fn = getattr(sys.modules[f"qutritimg.{module}"], attr)
            wrappers[fn] = self._wrap(name, fn)
        seen: set[int] = set()
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qutritimg" or mod_name.startswith("qutritimg."):
                self._rebind(vars(module), wrappers, seen)

    def _rebind(self, namespace: dict, wrappers: dict, seen: set[int]):
        if id(namespace) in seen:
            return
        seen.add(id(namespace))
        for key, value in list(namespace.items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                namespace[key] = wrappers[value]
                self._undo.append((namespace, key, value))
            for inner in _namespaces_in(value):
                self._rebind(inner, wrappers, seen)

    def uninstall(self):
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    # -- items -------------------------------------------------------------

    def run_item(self, item_id, traced: bool, fn, *args):
        """Call `fn(*args)` as one item; return (result, seconds, calls).

        The calls list is handed over for checking after the clock stops.
        """
        self.calls = []
        self.item = item_id
        self.tracing = traced
        root = None
        if traced:
            root = [len(self.spans), None, item_id, ROOT, 0, 0, True]
            self.spans.append(root)
            self._stack.append(root[0])
        start = clock_ns()
        try:
            result = fn(*args)
        finally:
            end = clock_ns()
            self.item = None
            self.tracing = False
            if root is not None:
                root[4], root[5] = start, end
                self._stack.pop()
        if root is not None:
            root[6] = False
        return result, (end - start) / 1e9, self.calls


def _namespaces_in(value):
    """Dicts reachable from `value` that may hold function references."""
    if isinstance(value, dict):
        yield value
    elif isinstance(value, (list, tuple)):
        for entry in value:
            yield from _namespaces_in(entry)
    elif type(value).__module__.startswith("qutritimg") and hasattr(value, "__dict__"):
        yield vars(value)


def self_times(spans: list[list]) -> dict:
    """item id -> {span name: [self ns summed, calls, failed calls]}.

    Self time is a span's duration minus the durations of its children.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] += span[5] - span[4]
    per_item: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for span in spans:
        entry = per_item[span[2]][span[3]]
        entry[0] += span[5] - span[4] - child_ns[span[0]]
        entry[1] += 1
        entry[2] += int(bool(span[6]))
    return per_item
