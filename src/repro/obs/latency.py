"""Streaming tail-latency observability: quantile sketches + decomposition.

Two pieces live here:

* :class:`QuantileSketch` -- a deterministic, mergeable, log-bucketed
  quantile sketch (DDSketch-style): values land in geometric buckets
  ``(gamma^(i-1), gamma^i]`` with ``gamma = (1+a)/(1-a)``, so any
  reported quantile is within relative error ``a`` of the true order
  statistic, memory is bounded by the value *range* (not the sample
  count), and two sketches over disjoint streams merge by adding bucket
  counts.  The registry's one distribution instrument, registered via
  :meth:`MetricsRegistry.quantile_sketch`.

* :class:`LatencyTracker` -- the live consumer of the router/replica
  span stream.  It implements the same sink surface as
  :class:`~repro.obs.trace.TraceRecorder` (``begin_op`` / ``end_op`` /
  ``child_span`` / ``child_instant``), so the cluster layers emit one
  stream and :class:`~repro.obs.telemetry.Telemetry` fans it out to the
  trace recorder and/or this tracker (:class:`SpanSinkFanout`).  Every
  completed operation is classified (write / forwarded write / protocol
  read / quorum read / follower read), decomposed into the phase
  taxonomy of :mod:`repro.obs.critical_path`, and folded into per-class
  and per-(class, phase) sketches plus a compact per-op record used for
  percentile-band attribution ("ops in the p99+ band spend X% in phase
  Y").

Like everything in :mod:`repro.obs` the tracker is pure observation:
it is fed by the same calls that feed the trace recorder (which the
telemetry-on/off byte-identity gate already covers), holds only its
own dicts, and never touches simulators, clocks or protocol state --
``examples/latency_tour.py`` CI-gates fingerprint identity with
latency tracking on vs off.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.critical_path import (
    OP_CLASSES,
    PHASE_FALLBACK,
    PHASE_PROTOCOL,
    PHASE_REPLICATION,
    attribute,
    child_phase,
    classify_op,
    critical_path,
    dominant,
    phase_durations,
)
from repro.obs.registry import MetricsRegistry

#: Default sketch accuracy: quantile estimates within 1% relative error.
DEFAULT_RELATIVE_ERROR = 0.01

#: The percentiles every export surface reports.
REPORTED_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999),
)

#: Latency bands the report's phase breakdown uses: ``[lo, hi)`` in
#: quantile space, ``None`` meaning unbounded above.
BANDS: Tuple[Tuple[str, float, Optional[float]], ...] = (
    ("p50-", 0.0, 0.50),
    ("p50-p90", 0.50, 0.90),
    ("p90-p99", 0.90, 0.99),
    ("p99+", 0.99, None),
)


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch with bounded error.

    Deterministic by construction: bucket indices are a pure function of
    the value, quantile queries walk the buckets in sorted index order,
    and merging is commutative/associative integer addition -- the same
    samples give the same answers in any ingestion or merge order.
    """

    kind = "sketch"
    __slots__ = ("name", "help", "relative_error", "_gamma", "_log_gamma",
                 "_buckets", "_zero", "count", "sum", "_minimum", "_maximum")

    def __init__(self, name: str, help: str = "",
                 relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        self.name = name
        self.help = help
        self.relative_error = float(relative_error)
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> count; index i covers (gamma^(i-1), gamma^i].
        self._buckets: Dict[int, int] = {}
        #: Exact count of non-positive observations (durations of 0).
        self._zero = 0
        self.count = 0
        self.sum = 0.0
        self._minimum: Optional[float] = None
        self._maximum: Optional[float] = None

    # -- ingestion ---------------------------------------------------------------

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self._minimum is None or value < self._minimum:
            self._minimum = value
        if self._maximum is None or value > self._maximum:
            self._maximum = value
        if value <= 0.0:
            self._zero += 1
            return
        index = int(math.ceil(math.log(value) / self._log_gamma))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place); returns self."""
        if abs(other.relative_error - self.relative_error) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different accuracy "
                f"({self.relative_error} vs {other.relative_error})"
            )
        self.count += other.count
        self.sum += other.sum
        self._zero += other._zero
        for index in sorted(other._buckets):
            self._buckets[index] = (self._buckets.get(index, 0)
                                    + other._buckets[index])
        for bound in (other._minimum, other._maximum):
            if bound is None:
                continue
            if self._minimum is None or bound < self._minimum:
                self._minimum = bound
            if self._maximum is None or bound > self._maximum:
                self._maximum = bound
        return self

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(self.name, self.help,
                             relative_error=self.relative_error)
        out.merge(self)
        return out

    # -- queries -----------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (within the relative error bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = int(math.floor(q * (self.count - 1)))
        if rank < self._zero:
            return 0.0
        cumulative = self._zero
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                # The bucket's midpoint in relative terms: within
                # ``relative_error`` of every value the bucket covers.
                return 2.0 * self._gamma ** index / (self._gamma + 1.0)
        return self._maximum if self._maximum is not None else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return 0.0 if self._minimum is None else self._minimum

    @property
    def maximum(self) -> float:
        return 0.0 if self._maximum is None else self._maximum

    @property
    def bucket_count(self) -> int:
        """Occupied buckets -- bounded by the value range, not ``count``."""
        return len(self._buckets) + (1 if self._zero else 0)

    @property
    def value(self) -> Dict[str, object]:
        """The registry export view (mirrors :meth:`to_dict`)."""
        return self.to_dict()

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "relative_error": self.relative_error,
        }
        for label, q in REPORTED_QUANTILES:
            out[label] = self.quantile(q)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantileSketch({self.name!r}, count={self.count}, "
                f"p99={self.p99:.2f})")


# -- the live tracker ------------------------------------------------------------------


class _OpenOp:
    """In-flight bookkeeping for one operation's span stream."""

    __slots__ = ("kind", "key", "begin", "intervals", "fallback",
                 "read_repairs")

    def __init__(self, kind: str, key: str, begin: float) -> None:
        self.kind = kind
        self.key = key
        self.begin = begin
        self.intervals: List[Tuple[str, float, float]] = []
        self.fallback = False
        self.read_repairs = 0


@dataclass(frozen=True)
class OpLatency:
    """One completed operation's latency decomposition."""

    handle: str
    op_class: str
    key: str
    begin: float
    end: float
    #: phase -> duration; partitions ``[begin, end]`` exactly.
    phases: Dict[str, float]
    read_repairs: int = 0

    @property
    def total(self) -> float:
        return self.end - self.begin


@dataclass
class PhaseAttribution:
    """Aggregated "where did the time go" for one class and band."""

    op_class: str
    band: str
    ops: int
    threshold: float
    #: phase -> fraction of the band's total time (sums to 1).
    fractions: Dict[str, float]

    @property
    def dominant_phase(self) -> Optional[str]:
        top = dominant(self.fractions)
        return None if top is None else top[0]


class LatencyTracker:
    """Per-op-class / per-phase latency sketches fed by the span stream.

    Presents the :class:`TraceRecorder` sink surface so the router and
    replica layers need no second instrumentation path; the telemetry
    facade hands them a :class:`SpanSinkFanout` over both sinks.
    """

    def __init__(self, *, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._open: Dict[str, _OpenOp] = {}
        self.records: List[OpLatency] = []
        #: Operations that never responded (store crash / stranded quorum).
        self.stranded = 0
        #: kind ("write"/"read") -> invoked / completed counts, for the
        #: SLO layer's availability accounting.
        self.invoked_by_kind: Dict[str, int] = {"write": 0, "read": 0}
        self.completed_by_kind: Dict[str, int] = {"write": 0, "read": 0}
        registry = self.registry
        self._class_sketches = registry.quantile_sketch(
            "op_latency", "end-to-end latency per operation class",
            labels=("op_class",))
        self._phase_sketches = registry.quantile_sketch(
            "op_phase_latency",
            "per-phase time on the operation's critical path",
            labels=("op_class", "phase"))
        self._apply_sketch = registry.quantile_sketch(
            "replication_apply_latency",
            "commit -> follower apply (post-ack, off the client path)")

    # -- the TraceRecorder sink surface -------------------------------------------

    def begin_op(self, handle: str, kind: str, key: str, time: float,
                 args: Optional[dict] = None) -> None:
        self._open[handle] = _OpenOp(kind, key, float(time))
        if kind in self.invoked_by_kind:
            self.invoked_by_kind[kind] += 1

    def child_span(self, handle: str, name: str, cat: str, start: float,
                   end: float, args: Optional[dict] = None) -> None:
        phase = child_phase(name)
        if phase is None:
            return
        if phase == PHASE_REPLICATION:
            # Replication fans out after the ack: the root op is usually
            # closed by the time a record lands on a follower.  Tracked
            # as its own distribution, never on the client path.
            self._apply_sketch.observe(float(end) - float(start))
            return
        op = self._open.get(handle)
        if op is not None:
            op.intervals.append((phase, float(start), float(end)))

    def child_instant(self, handle: str, name: str, cat: str, time: float,
                      args: Optional[dict] = None) -> None:
        op = self._open.get(handle)
        if op is None:
            return
        token = name.split(" ", 1)[0]
        if token in ("quorum-fallback", "session-fallback"):
            op.fallback = True
        elif token == "read-repair":
            op.read_repairs += 1
        elif token in ("store-crashed", "quorum-stranded"):
            # The operation will never respond; drop it so the open map
            # drains and the stranded count tells the truth.
            del self._open[handle]
            self.stranded += 1

    def end_op(self, handle: str, time: float,
               args: Optional[dict] = None) -> None:
        op = self._open.pop(handle, None)
        if op is None:
            return
        end = float(time)
        intervals = []
        for phase, start, stop in op.intervals:
            if phase == PHASE_PROTOCOL and op.fallback:
                phase = PHASE_FALLBACK
            intervals.append((phase, start, stop))
        op_class = classify_op(op.kind,
                               (phase for phase, _, _ in intervals))
        phases = phase_durations(critical_path(op.begin, end, intervals))
        record = OpLatency(handle=handle, op_class=op_class, key=op.key,
                           begin=op.begin, end=end, phases=phases,
                           read_repairs=op.read_repairs)
        self.records.append(record)
        if op.kind in self.completed_by_kind:
            self.completed_by_kind[op.kind] += 1
        self._class_sketches.labels(op_class=op_class).observe(record.total)
        for phase in sorted(phases):
            self._phase_sketches.labels(
                op_class=op_class, phase=phase).observe(phases[phase])

    # -- queries -------------------------------------------------------------------

    def sketch(self, op_class: str) -> QuantileSketch:
        """The end-to-end latency sketch of one operation class."""
        return self._class_sketches.labels(op_class=op_class)

    @property
    def replication_apply(self) -> QuantileSketch:
        """The post-ack commit -> follower-apply latency sketch."""
        return self._apply_sketch

    def phase_sketch(self, op_class: str, phase: str) -> QuantileSketch:
        """The critical-path time sketch of one (class, phase) pair."""
        return self._phase_sketches.labels(op_class=op_class, phase=phase)

    def classes(self) -> List[str]:
        """Operation classes observed so far, in canonical order."""
        present = {record.op_class for record in self.records}
        return [cls for cls in OP_CLASSES if cls in present]

    def open_count(self) -> int:
        """Operations begun but not yet completed (in flight)."""
        return len(self._open)

    def attribution(self, op_class: str, lo: float = 0.99,
                    hi: Optional[float] = None,
                    band: Optional[str] = None) -> PhaseAttribution:
        """Phase attribution over the ops in the ``[lo, hi)`` quantile
        band of ``op_class`` (default: the p99+ band).

        Band membership is by *rank* over the retained records (stable
        sort by total, so ties resolve by completion order): the p99+
        band is exactly the slowest 1% of ops, even when the latency
        distribution has heavy ties at the threshold."""
        ranked = [record for record in self.records
                  if record.op_class == op_class]
        ranked.sort(key=lambda record: record.total)
        n = len(ranked)
        lo_rank = int(math.floor(lo * (n - 1))) if n else 0
        hi_rank = n if hi is None else int(math.floor(hi * (n - 1)))
        rows = ranked[lo_rank:hi_rank]
        threshold = ranked[lo_rank].total if rows else 0.0
        fractions = attribute(record.phases for record in rows)
        if band is None:
            band = f"p{lo * 100:g}+" if hi is None else f"[{lo:g}, {hi:g})"
        return PhaseAttribution(op_class=op_class, band=band, ops=len(rows),
                                threshold=threshold, fractions=fractions)

    def band_attributions(self, op_class: str) -> List[PhaseAttribution]:
        """One attribution per latency band (see :data:`BANDS`)."""
        return [self.attribution(op_class, lo, hi, band=label)
                for label, lo, hi in BANDS]

    def dominant_phase(self, op_class: str,
                       lo: float = 0.99) -> Optional[str]:
        """The phase the ``lo``+ band of ``op_class`` spends most time in."""
        return self.attribution(op_class, lo).dominant_phase

    # -- export --------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON row per completed operation (phase vector included)."""
        rows = []
        for record in self.records:
            rows.append(json.dumps({
                "handle": record.handle,
                "op_class": record.op_class,
                "key": record.key,
                "begin": record.begin,
                "end": record.end,
                "total": record.total,
                "phases": {phase: record.phases[phase]
                           for phase in sorted(record.phases)},
                "read_repairs": record.read_repairs,
            }, sort_keys=True))
        return "".join(row + "\n" for row in rows)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-class percentile summary plus the p99+ dominant phase."""
        out: Dict[str, Dict[str, object]] = {}
        for op_class in self.classes():
            sketch = self.sketch(op_class)
            row: Dict[str, object] = {"count": sketch.count}
            for label, q in REPORTED_QUANTILES:
                row[label] = sketch.quantile(q)
            row["dominant_p99_phase"] = self.dominant_phase(op_class)
            out[op_class] = row
        return out


class SpanSinkFanout:
    """Forward the op span stream to several sinks (trace + latency)."""

    __slots__ = ("_sinks",)

    def __init__(self, *sinks) -> None:
        self._sinks = tuple(sink for sink in sinks if sink is not None)

    def begin_op(self, handle, kind, key, time, args=None) -> None:
        for sink in self._sinks:
            sink.begin_op(handle, kind, key, time, args)

    def end_op(self, handle, time, args=None) -> None:
        for sink in self._sinks:
            sink.end_op(handle, time, args)

    def child_span(self, handle, name, cat, start, end, args=None) -> None:
        for sink in self._sinks:
            sink.child_span(handle, name, cat, start, end, args)

    def child_instant(self, handle, name, cat, time, args=None) -> None:
        for sink in self._sinks:
            sink.child_instant(handle, name, cat, time, args)


__all__ = [
    "BANDS",
    "DEFAULT_RELATIVE_ERROR",
    "REPORTED_QUANTILES",
    "LatencyTracker",
    "OpLatency",
    "PhaseAttribution",
    "QuantileSketch",
    "SpanSinkFanout",
]
