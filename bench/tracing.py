"""Per-layer timing from outside the program.

The traced run calls the public function of each layer on the inputs of
each operation, right after the operation, and keeps one record per
operation and layer in memory; ``write`` stores them as JSON lines when
the run ends.  Layers that are the operation itself (the minor descent
and the recovery solvers) take the operation's own time and add none.

``layer_metrics`` turns the records into the per-layer metrics named in
``PER_LAYER``.  A layer that no operation of the workload reaches is
timed on a fixed reference case (``families.REFERENCE``) so that every
traced run reports every metric; its records are marked
``source: reference``.
"""

import json
import time


class NullTracer:
    """Untraced runs: calls pass straight through."""

    def call(self, layer, fn, source=None, calls=1):
        return fn()


class Tracer:
    def __init__(self):
        self.records = []
        self.last = None
        self.op = None             # id of the operation being probed
        self.family = None
        self.op_span = (0.0, 0.0)
        self.source = "op"
        self.overhead_s = 0.0      # time in probes after operations

    def call(self, layer, fn, source=None, calls=1):
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        if self.source == "reference":
            source = "reference"
        self._add(layer, start, end, source or self.source, calls)
        return out

    def operation(self, start, end):
        """The span of operation ``self.op``; the layer records that
        follow, until the next operation, are caused by it."""
        self.op_span = (start, end)
        self._add("operation", start, end, self.source, 1)

    def record(self, layer, **counts):
        """A layer that is the operation itself: no extra call."""
        self._add(layer, *self.op_span, self.source, 1, own=True)
        self.last.update(counts)

    def _add(self, layer, start, end, source, calls, own=False):
        self.last = {"layer": layer, "op": self.op, "family": self.family,
                     "source": source, "start": start, "end": end,
                     "calls": calls, "own": own}
        self.records.append(self.last)

    def write(self, path):
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")


# (layer, metric suffix, unit, how, count); the metric is
# "<layer>.<suffix>" and ``how`` is one of
#   per_call   time per call
#   per_count  total time over the total of ``count``
#   mean_of    ``count`` per record
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
_PROJECT = ("varieties.project.low_rank_c", "varieties.project.low_rank_r",
            "varieties.project.sparse", "varieties.project.herm_sig",
            "varieties.project.low_rank_c1")
_METRICS = [(layer, "us", "us", "per_call", None) for layer in _PROJECT] + [
    ("sampling.generate", "s", "s", "per_call", None),
    ("sampling.lift_ensemble", "ms", "ms", "per_call", None),
    ("sampling.apply", "us", "us", "per_call", None),
    ("injectivity.witness_search", "s", "s", "per_call", None),
    ("injectivity.witness_search", "iters", "count", "mean_of", "iters"),
    ("injectivity.witness_search", "us_per_iter", "us", "per_count",
     "iters"),
    ("injectivity.witness_search", "restarts", "count", "mean_of",
     "restarts"),
    ("injectivity.complement_property", "s", "s", "per_call", None),
    ("injectivity.minor_descent.r2", "ms_per_restart", "ms", "per_count",
     "restarts"),
    ("injectivity.minor_descent.r3", "ms_per_restart", "ms", "per_count",
     "restarts"),
]
for _solver in ("recovery.recover_phase", "recovery.recover_low_rank"):
    _METRICS += [(_solver, "s", "s", "per_call", None),
                 (_solver, "iters", "count", "mean_of", "iters"),
                 (_solver, "us_per_iter", "us", "per_count", "iters")]

PER_LAYER = {f"{layer}.{suffix}": (layer, unit, how, count)
             for layer, suffix, unit, how, count in _METRICS}

OVERHEAD = "trace.overhead_pct"

def _value(records, unit, how, count):
    seconds = sum(r["end"] - r["start"] for r in records)
    if how == "per_call":
        return seconds / sum(r["calls"] for r in records) * _SCALE[unit]
    if how == "per_count":
        return seconds / sum(r[count] for r in records) * _SCALE[unit]
    return sum(r[count] for r in records) / len(records)


def missing_layers(records):
    seen = {r["layer"] for r in records}
    return sorted({layer for layer, *_ in PER_LAYER.values()} - seen)


def layer_metrics(records, scale=1.0):
    """Per-layer metrics; records of the workload's own operations and
    set-up come first, reference records fill the layers they miss.
    Times are multiplied by ``scale``."""
    by_layer = {}
    for r in records:
        by_layer.setdefault(r["layer"], {}).setdefault(
            r["source"] == "reference", []).append(r)
    out = {}
    for name, (layer, unit, how, count) in PER_LAYER.items():
        groups = by_layer.get(layer, {})
        recs = groups.get(False) or groups.get(True)
        if recs:
            value = _value(recs, unit, how, count)
            if unit in _SCALE:
                value *= scale
            out[name] = {"value": value, "unit": unit}
    return out
