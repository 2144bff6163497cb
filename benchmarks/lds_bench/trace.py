"""Outside-in wall-time tracer: per-layer self time without editing ``src/``.

The tracer wraps the public entry points of each runtime layer (the
``WRAP_POINTS`` table) with a *span*: start, end, and the span that caused
it, kept on a stack.  A span's self time is its duration minus the time
its child spans cover; a layer's self time is the sum over its spans.  It
also wraps ``schedule_at`` of both event queues so every event callback
runs inside a span whose layer is the ``repro.<layer>`` of the callback's
``__module__`` -- which attributes private closures (lag deliveries, repair
slots, deliveries) to the layer that wrote them without touching them.

Spans are folded into per-wrap-point totals as they close (calls, total
and self seconds, child spans, an optional size such as vector bytes), so
memory stays flat over millions of spans; :meth:`Tracer.report` hands the
table out when the run ends.

Span cost is taken out, not ignored.  :meth:`Tracer.calibrate` times an
empty function bare and wrapped: the part of a span's cost that falls
between its two clock reads (``inside_s``) inflates the span's own layer,
the rest (``outside_s``: frame push/pop and bookkeeping) inflates its
parent's.  :func:`layer_self_times` then spreads the *measured* overhead
(traced run minus timed run) over the layers in those proportions.
:func:`coverage` uses the raw self times: "how much of the traced run was
inside a named layer's span" must not depend on the calibration.

Known limits: a layer whose entry points are called very often with very
little work each (``gf`` vector primitives) carries the largest
correction and therefore the largest error; wrapping an event callback
costs a closure that is charged like any other span although the
scheduling layer pays it; work a layer does through a function that is
*not* a wrap point is charged to the caller's layer; and the overhead is
the difference of two separate runs, so it carries their host noise.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Dict, List, Optional

#: The runtime layers, in the order the README tables use.
LAYERS = ("gf", "codes", "core", "net", "sim", "cluster", "consistency", "obs")

#: ``(layer, module, class, method, index of the argument whose len() is
#: summed as the span's size, or None)``.  For classmethods the index
#: counts ``cls`` as argument 0.
WRAP_POINTS = (
    ("gf", "repro.gf.gf256", "GF256", "scale_vec", 2),
    ("gf", "repro.gf.gf256", "GF256", "mul_vec", 1),
    ("gf", "repro.gf.gf256", "GF256", "add_vec", 1),
    ("gf", "repro.gf.gf256", "GF256", "dot", 1),
    ("gf", "repro.gf.gf256", "GF256", "matmul", None),
    ("gf", "repro.gf.matrix", "GFMatrix", "matmul", None),
    ("gf", "repro.gf.matrix", "GFMatrix", "matvec", None),
    ("gf", "repro.gf.matrix", "GFMatrix", "inverse", None),
    ("gf", "repro.gf.matrix", "GFMatrix", "solve", None),
    ("codes", "repro.codes.layered", "LayeredCode", "encode_for_backend", 1),
    ("codes", "repro.codes.layered", "LayeredCode", "helper_data", None),
    ("codes", "repro.codes.layered", "LayeredCode", "regenerate_l1_element",
     None),
    ("codes", "repro.codes.layered", "LayeredCode", "decode_from_l1", None),
    ("codes", "repro.codes.layered", "LayeredCode", "decode_from_backend",
     None),
    ("core", "repro.core.server_l1", "L1Server", "on_message", None),
    ("core", "repro.core.server_l2", "L2Server", "on_message", None),
    ("core", "repro.core.writer", "Writer", "on_message", None),
    ("core", "repro.core.reader", "Reader", "on_message", None),
    ("net", "repro.net.network", "Network", "send", None),
    ("net", "repro.net.simulator", "Simulator", "step", None),
    ("sim", "repro.sim.kernel", "GlobalScheduler", "step", None),
    ("sim", "repro.sim.kernel", "GlobalScheduler", "run_until_idle", None),
    ("cluster", "repro.cluster.router", "ObjectRouter", "invoke_write", None),
    ("cluster", "repro.cluster.router", "ObjectRouter", "invoke_read", None),
    ("cluster", "repro.cluster.router", "ObjectRouter", "add_workload", None),
    ("cluster", "repro.cluster.router", "ObjectRouter", "flush", None),
    ("cluster", "repro.cluster.router", "ObjectRouter",
     "notify_replica_completion", None),
    ("cluster", "repro.cluster.router", "ObjectRouter", "migrate", None),
    ("cluster", "repro.cluster.router", "ObjectRouter", "failover_shard",
     None),
    ("cluster", "repro.cluster.replicas", "ReplicaCoordinator", "invoke_read",
     None),
    ("cluster", "repro.cluster.replicas", "ReplicaCoordinator",
     "invoke_write", None),
    ("cluster", "repro.cluster.repair", "RepairScheduler",
     "schedule_node_repairs", None),
    ("consistency", "repro.consistency.history", "OperationRecorder",
     "invoke", None),
    ("consistency", "repro.consistency.history", "OperationRecorder",
     "respond", None),
)

#: Event queues whose ``schedule_at`` gets its callbacks wrapped.
SCHEDULE_POINTS = (
    ("repro.net.simulator", "Simulator"),
    ("repro.sim.kernel", "GlobalScheduler"),
)

# Indices into a wrap point's running totals.
_CALLS, _TOTAL, _SELF, _CHILDREN, _SIZE = range(5)


def point_name(class_name: str, method: str) -> str:
    return f"{class_name}.{method}"


class Tracer:
    """Installs, runs and reports one traced execution."""

    def __init__(self) -> None:
        #: Spans are recorded only while this is set (around ``apply``).
        self.active = False
        #: name -> [calls, total_s, self_s, child_spans, size]
        self.points: Dict[str, list] = {}
        self._layer_of: Dict[str, str] = {}
        #: Wrap points that did not resolve at install time.
        self.missing: List[str] = []
        #: Open spans, innermost last: [child_seconds, child_spans].
        self._stack: List[list] = []
        self._undo = []
        #: Callback ``__module__`` -> the totals of its layer's event spans.
        self._event_totals: Dict[Optional[str], list] = {}
        #: Every span closure shares this code object.
        self._span_code = self._spanned([], None).__code__
        self.inside_s = 0.0
        self.outside_s = 0.0

    # -- spans ----------------------------------------------------------------

    def _totals(self, name: str, layer: str) -> list:
        totals = self.points.get(name)
        if totals is None:
            totals = self.points[name] = [0, 0.0, 0.0, 0, 0]
            self._layer_of[name] = layer
        return totals

    def _spanned(self, totals: list, function, size_arg: Optional[int] = None):
        stack = self._stack

        def span(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            frame = [0.0, 0]
            stack.append(frame)
            started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started  # simlint: disable=ND02 -- host timing is the measurement
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                totals[_CALLS] += 1
                totals[_TOTAL] += elapsed
                totals[_SELF] += elapsed - frame[0]
                totals[_CHILDREN] += frame[1]
                if size_arg is not None and len(args) > size_arg:
                    totals[_SIZE] += len(args[size_arg])

        return span

    def _event(self, callback):
        """Wrap one event callback in a span of its defining layer."""
        if getattr(callback, "__code__", None) is self._span_code:
            # Already wrapped: one queue's schedule_at delegated to another's.
            return callback
        module = getattr(callback, "__module__", None)
        totals = self._event_totals.get(module)
        if totals is None:
            parts = (module or "").split(".")
            layer = parts[1] if len(parts) > 1 and parts[0] == "repro" \
                else "other"
            totals = self._event_totals[module] = \
                self._totals(f"event:{layer}", layer)
        return self._spanned(totals, callback)

    # -- installation ---------------------------------------------------------

    @staticmethod
    def _resolve(module: str, class_name: str):
        try:
            return getattr(importlib.import_module(module), class_name)
        except (ImportError, AttributeError):
            return None

    def install(self) -> None:
        """Patch every wrap point that resolves; note the ones that do not.

        Must run before the simulation is built: ``LDSSystem`` captures
        ``code.encode_for_backend`` in its encode cache at construction,
        and only a class patched by then is seen through that cache (so
        ``encode_for_backend`` spans are cache *misses*, real encodes).
        """
        for layer, module, class_name, method, size_arg in WRAP_POINTS:
            name = point_name(class_name, method)
            owner = self._resolve(module, class_name)
            raw = None if owner is None else owner.__dict__.get(method)
            if raw is None:
                self.missing.append(name)
                print(f"lds_bench trace: wrap point {module}.{name} does not "
                      "exist; its metrics are reported as missing",
                      file=sys.stderr)
                continue
            totals = self._totals(name, layer)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(
                    self._spanned(totals, raw.__func__, size_arg))
            else:
                patched = self._spanned(totals, raw, size_arg)
            setattr(owner, method, patched)
            self._undo.append((owner, method, raw))
        for module, class_name in SCHEDULE_POINTS:
            owner = self._resolve(module, class_name)
            raw = None if owner is None else owner.__dict__.get("schedule_at")
            if raw is None:
                self.missing.append(point_name(class_name, "schedule_at"))
                continue
            setattr(owner, "schedule_at", self._scheduling(raw))
            self._undo.append((owner, "schedule_at", raw))

    def _scheduling(self, schedule_at):
        def traced_schedule_at(queue, time, callback):
            if self.active:
                callback = self._event(callback)
            return schedule_at(queue, time, callback)

        return traced_schedule_at

    def uninstall(self) -> None:
        while self._undo:
            owner, method, raw = self._undo.pop()
            setattr(owner, method, raw)

    # -- calibration ----------------------------------------------------------

    def calibrate(self, calls: int = 100_000) -> None:
        """Measure how one span's cost splits at its two clock reads."""
        def empty(sender, message):
            return None

        totals = [0, 0.0, 0.0, 0, 0]
        spanned = self._spanned(totals, empty)
        was_active, self.active = self.active, True
        try:
            started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
            for _ in range(calls):
                empty(None, None)
            bare = perf_counter() - started  # simlint: disable=ND02 -- host timing is the measurement
            started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
            for _ in range(calls):
                spanned(None, None)
            wrapped = perf_counter() - started  # simlint: disable=ND02 -- host timing is the measurement
        finally:
            self.active = was_active
        per_span = max(0.0, (wrapped - bare) / calls)
        self.inside_s = min(per_span, totals[_TOTAL] / calls)
        self.outside_s = per_span - self.inside_s

    # -- reporting ------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer and per-wrap-point totals of everything traced so far.

        A layer's ``span_cost_weight`` is the calibrated cost of the spans
        it carries: its own spans' inside part plus its child spans'
        outside part (see :func:`layer_self_times`).
        """
        layers = {}
        points = {}
        for name, totals in self.points.items():
            layer = layers.setdefault(
                self._layer_of[name],
                {"raw_self_s": 0.0, "spans": 0, "span_cost_weight": 0.0})
            layer["raw_self_s"] += totals[_SELF]
            layer["spans"] += totals[_CALLS]
            layer["span_cost_weight"] += (totals[_CALLS] * self.inside_s
                                          + totals[_CHILDREN] * self.outside_s)
            points[name] = {"calls": totals[_CALLS], "total_s": totals[_TOTAL],
                            "self_s": totals[_SELF], "size": totals[_SIZE]}
        return {"layers": layers, "points": points, "missing": self.missing}


def layer_self_times(report: dict, traced_run_s: float,
                     timed_run_s: float) -> Dict[str, float]:
    """Each named layer's self time with the tracer's own cost taken out.

    The *size* of the tracing overhead is measured, not modelled: it is the
    traced run minus the timed run of the same seed.  The calibration only
    gives its *shape* -- each layer is charged the share of the overhead
    that its ``span_cost_weight`` has in the total -- because an empty
    calibration call understates what a span costs in a real run (argument
    packing, a deeper stack, colder caches) by a factor that is about the
    same for every span.
    """
    layers = report["layers"]
    overhead = max(0.0, traced_run_s - timed_run_s)
    total_weight = sum(layer["span_cost_weight"] for layer in layers.values())
    times = {}
    for name in LAYERS:
        layer = layers.get(name)
        if layer is None:
            times[name] = 0.0
            continue
        weight = layer["span_cost_weight"]
        share = weight / total_weight if total_weight else 0.0
        times[name] = max(0.0, layer["raw_self_s"] - overhead * share)
    return times


def coverage(report: dict, traced_run_s: float) -> float:
    """Share of the traced run spent inside a named layer's span (raw self
    times, so the answer does not depend on the calibration)."""
    return sum(layer["raw_self_s"] for name, layer in report["layers"].items()
               if name in LAYERS) / traced_run_s
