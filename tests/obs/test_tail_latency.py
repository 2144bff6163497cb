"""QuantileSketch accuracy/merge laws, critical-path extraction, and the
LatencyTracker's live decomposition of the cluster span stream."""

import json
import math
import random

import numpy as np
import pytest

from repro import ClusterSimulation, LDSConfig, ReplicationConfig, Telemetry
from repro.obs.critical_path import (
    PHASE_FALLBACK,
    PHASE_FORWARD,
    PHASE_FREEZE,
    PHASE_PROTOCOL,
    PHASE_QUEUE,
    PHASE_QUORUM,
    PHASE_STORE_READ,
    attribute,
    child_phase,
    classify_op,
    collapse_parallel,
    critical_path,
    dominant,
    phase_durations,
)
from repro.obs.latency import (
    DEFAULT_RELATIVE_ERROR,
    LatencyTracker,
    QuantileSketch,
    SpanSinkFanout,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.sim import quorum_reads_under_lag

QUANTILES = (0.50, 0.90, 0.99, 0.999)


def exact_percentile(values, q):
    """The order statistic the sketch estimates: rank floor(q*(n-1))."""
    ordered = sorted(values)
    return ordered[int(math.floor(q * (len(ordered) - 1)))]


def assert_within_relative_error(sketch, values, alpha):
    for q in QUANTILES:
        exact = exact_percentile(values, q)
        estimate = sketch.quantile(q)
        if exact == 0.0:
            assert estimate == 0.0
        else:
            assert abs(estimate - exact) <= alpha * exact * 1.0000001, (
                f"q={q}: estimate {estimate} vs exact {exact}"
            )


class TestQuantileSketchAccuracy:
    """Error bounds vs exact numpy/order-statistic percentiles."""

    def test_bimodal(self):
        rng = random.Random(41)
        values = [rng.gauss(10.0, 1.0) if rng.random() < 0.9
                  else rng.gauss(500.0, 25.0) for _ in range(20_000)]
        values = [abs(v) for v in values]
        sketch = QuantileSketch("s")
        for v in values:
            sketch.observe(v)
        assert_within_relative_error(sketch, values, sketch.relative_error)

    def test_pareto_heavy_tail(self):
        rng = np.random.default_rng(42)
        values = (rng.pareto(1.2, size=50_000) + 1.0) * 3.0
        sketch = QuantileSketch("s", relative_error=0.02)
        for v in values:
            sketch.observe(float(v))
        assert_within_relative_error(sketch, values.tolist(), 0.02)

    def test_constant_distribution(self):
        sketch = QuantileSketch("s")
        for _ in range(1000):
            sketch.observe(7.25)
        for q in QUANTILES:
            assert sketch.quantile(q) == pytest.approx(7.25, rel=0.01)
        assert sketch.bucket_count == 1

    def test_zero_and_negative_values_hit_zero_bucket(self):
        sketch = QuantileSketch("s")
        for v in (0.0, 0.0, -1.0, 5.0):
            sketch.observe(v)
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=0.01)
        assert sketch.minimum == -1.0

    def test_empty_sketch(self):
        sketch = QuantileSketch("s")
        assert sketch.count == 0
        assert sketch.p99 == 0.0
        assert sketch.mean == 0.0

    def test_memory_is_bounded_by_range_not_count(self):
        # 1e6 values spanning [1, 1e6): bucket count depends only on the
        # dynamic range / gamma, never on how many samples went in.
        sketch = QuantileSketch("s")
        rng = random.Random(43)
        for _ in range(100_000):
            sketch.observe(math.exp(rng.uniform(0.0, math.log(1e6))))
        bound = math.log(1e6) / math.log(
            (1 + sketch.relative_error) / (1 - sketch.relative_error)) + 2
        assert sketch.bucket_count <= bound

    def test_accuracy_survives_merging(self):
        rng = random.Random(44)
        values = [rng.expovariate(0.01) + 0.001 for _ in range(30_000)]
        shards = [QuantileSketch("s") for _ in range(7)]
        for i, v in enumerate(values):
            shards[i % 7].observe(v)
        merged = QuantileSketch("s")
        for shard in shards:
            merged.merge(shard)
        assert merged.count == len(values)
        assert_within_relative_error(merged, values, merged.relative_error)


def sketch_signature(sketch):
    """Everything but the float ``sum``/``mean`` accumulators, whose
    last-ulp value depends on addition order; the bucket counts -- and
    therefore every quantile -- are exact integers and must agree."""
    out = sketch.to_dict()
    out.pop("sum")
    out.pop("mean")
    return out


class TestQuantileSketchMergeLaws:
    def _sketches(self, seed, n=3):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            sketch = QuantileSketch("s")
            for _ in range(rng.randrange(100, 500)):
                sketch.observe(rng.expovariate(0.05) + 0.01)
            out.append(sketch)
        return out

    def test_merge_is_associative(self):
        a, b, c = self._sketches(45)
        left = QuantileSketch("s").merge(a).merge(b).merge(c)
        right = QuantileSketch("s").merge(a).merge(
            QuantileSketch("s").merge(b).merge(c))
        assert sketch_signature(left) == sketch_signature(right)
        assert left.sum == pytest.approx(right.sum)

    def test_merge_order_does_not_matter(self):
        import itertools
        sketches = self._sketches(46)
        results = []
        for order in itertools.permutations(range(3)):
            merged = QuantileSketch("s")
            for i in order:
                merged.merge(sketches[i])
            results.append(json.dumps(sketch_signature(merged),
                                      sort_keys=True))
        assert len(set(results)) == 1

    def test_merge_equals_direct_ingestion(self):
        rng = random.Random(47)
        values = [rng.uniform(0.1, 1000.0) for _ in range(5000)]
        direct = QuantileSketch("s")
        half_a, half_b = QuantileSketch("s"), QuantileSketch("s")
        for i, v in enumerate(values):
            direct.observe(v)
            (half_a if i % 2 else half_b).observe(v)
        merged = QuantileSketch("s").merge(half_a).merge(half_b)
        assert sketch_signature(merged) == sketch_signature(direct)
        assert merged.sum == pytest.approx(direct.sum)

    def test_merge_rejects_mismatched_accuracy(self):
        a = QuantileSketch("s", relative_error=0.01)
        b = QuantileSketch("s", relative_error=0.05)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_ingestion_order_determinism(self):
        rng = random.Random(48)
        values = [rng.lognormvariate(2.0, 1.5) for _ in range(2000)]
        forward, backward = QuantileSketch("s"), QuantileSketch("s")
        for v in values:
            forward.observe(v)
        for v in reversed(values):
            backward.observe(v)
        assert sketch_signature(forward) == sketch_signature(backward)


class TestSketchRegistryIntegration:
    def test_registered_next_to_histogram(self):
        registry = MetricsRegistry()
        sketch = registry.quantile_sketch("lat", "help")
        assert registry.quantile_sketch("lat") is sketch
        sketch.observe(10.0)
        flat = dict(((name, tuple(sorted(labels.items()))), value)
                    for name, labels, value in registry.collect())
        assert flat[("lat_count", ())] == 1
        assert flat[("lat_p99", ())] == pytest.approx(10.0, rel=0.01)
        assert registry.to_dict()["lat"]["count"] == 1

    def test_labeled_sketch_family(self):
        registry = MetricsRegistry()
        family = registry.quantile_sketch("lat", labels=("op_class",))
        child = family.labels(op_class="write")
        assert child.relative_error == DEFAULT_RELATIVE_ERROR
        child.observe(5.0)
        family.labels(op_class="read").observe(50.0)
        samples = {(name, labels.get("op_class")): value
                   for name, labels, value in registry.collect()}
        assert samples[("lat_count", "write")] == 1
        assert samples[("lat_p50", "read")] == pytest.approx(50.0, rel=0.01)

    def test_shape_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.quantile_sketch("lat")
        with pytest.raises(ValueError):
            registry.counter("lat")
        with pytest.raises(ValueError):
            registry.quantile_sketch("lat", labels=("pool",))


class TestCriticalPath:
    def test_child_phase_mapping(self):
        assert child_phase("forward-hop pool-2") == PHASE_FORWARD
        assert child_phase("quorum-leg pool-0") == PHASE_QUORUM
        assert child_phase("protocol-read") == PHASE_PROTOCOL
        assert child_phase("protocol-write") == PHASE_PROTOCOL
        assert child_phase("freeze-wait") == PHASE_FREEZE
        assert child_phase("store-read pool-1") == PHASE_STORE_READ
        assert child_phase("read-repair pool-1") is None

    def test_classify_op(self):
        assert classify_op("write", []) == "write"
        assert classify_op("write", [PHASE_FORWARD]) == "forwarded-write"
        assert classify_op("read", [PHASE_QUORUM]) == "quorum-read"
        assert classify_op("read", [PHASE_STORE_READ]) == "follower-read"
        assert classify_op("read", [PHASE_PROTOCOL]) == "protocol-read"

    def test_parallel_quorum_legs_collapse(self):
        legs = [(PHASE_QUORUM, 1.0, 4.0), (PHASE_QUORUM, 1.5, 9.0),
                (PHASE_QUORUM, 1.2, 6.0)]
        collapsed = collapse_parallel(legs)
        assert collapsed == [(PHASE_QUORUM, 1.0, 9.0)]

    def test_gaps_become_queue_wait(self):
        segments = critical_path(0.0, 10.0, [(PHASE_PROTOCOL, 2.0, 7.0)])
        assert [(s.phase, s.start, s.end) for s in segments] == [
            (PHASE_QUEUE, 0.0, 2.0),
            (PHASE_PROTOCOL, 2.0, 7.0),
            (PHASE_QUEUE, 7.0, 10.0),
        ]

    def test_segments_partition_the_window(self):
        intervals = [(PHASE_FORWARD, 1.0, 3.0), (PHASE_PROTOCOL, 2.5, 8.0),
                     (PHASE_QUORUM, 8.5, 9.0)]
        segments = critical_path(0.0, 12.0, intervals)
        assert sum(s.duration for s in segments) == pytest.approx(12.0)
        for earlier, later in zip(segments, segments[1:]):
            assert earlier.end == later.start

    def test_overlap_goes_to_first_phase(self):
        segments = critical_path(0.0, 10.0, [(PHASE_FORWARD, 0.0, 5.0),
                                             (PHASE_PROTOCOL, 3.0, 10.0)])
        durations = phase_durations(segments)
        assert durations[PHASE_FORWARD] == pytest.approx(5.0)
        assert durations[PHASE_PROTOCOL] == pytest.approx(5.0)

    def test_attribute_and_dominant(self):
        fractions = attribute([
            {PHASE_FORWARD: 3.0, PHASE_PROTOCOL: 1.0},
            {PHASE_FORWARD: 5.0, PHASE_PROTOCOL: 1.0},
        ])
        assert fractions[PHASE_FORWARD] == pytest.approx(0.8)
        assert dominant(fractions) == (PHASE_FORWARD, pytest.approx(0.8))
        assert attribute([]) == {}
        assert dominant({}) is None


class TestLatencyTrackerSink:
    def _drive(self, tracker):
        tracker.begin_op("h1", "write", "k", 0.0)
        tracker.child_span("h1", "forward-hop pool-1", "router", 0.0, 2.0)
        tracker.child_span("h1", "protocol-write", "lds", 2.0, 5.0)
        tracker.end_op("h1", 6.0)

    def test_write_decomposition(self):
        tracker = LatencyTracker()
        self._drive(tracker)
        record, = tracker.records
        assert record.op_class == "forwarded-write"
        assert record.total == pytest.approx(6.0)
        assert record.phases == {
            PHASE_FORWARD: pytest.approx(2.0),
            PHASE_PROTOCOL: pytest.approx(3.0),
            PHASE_QUEUE: pytest.approx(1.0),
        }
        assert tracker.sketch("forwarded-write").count == 1
        assert tracker.invoked_by_kind["write"] == 1
        assert tracker.completed_by_kind["write"] == 1

    def test_fallback_renames_protocol_phase(self):
        tracker = LatencyTracker()
        tracker.begin_op("h1", "read", "k", 0.0)
        tracker.child_span("h1", "quorum-leg pool-0", "replica", 0.0, 2.0)
        tracker.child_instant("h1", "quorum-fallback", "replica", 2.0)
        tracker.child_span("h1", "protocol-read", "lds", 2.0, 9.0)
        tracker.end_op("h1", 9.0)
        record, = tracker.records
        assert record.op_class == "quorum-read"
        assert record.phases[PHASE_FALLBACK] == pytest.approx(7.0)
        assert PHASE_PROTOCOL not in record.phases

    def test_stranded_ops_drop_without_latency(self):
        tracker = LatencyTracker()
        tracker.begin_op("h1", "read", "k", 0.0)
        tracker.child_instant("h1", "store-crashed pool-2", "replica", 3.0)
        assert tracker.records == []
        assert tracker.open_count() == 0
        assert tracker.stranded == 1
        assert tracker.completed_by_kind["read"] == 0

    def test_late_replication_apply_feeds_standalone_sketch(self):
        tracker = LatencyTracker()
        self._drive(tracker)
        tracker.child_span("h1", "replication-apply pool-2", "replica",
                           5.0, 405.0)
        assert tracker.replication_apply.count == 1
        assert tracker.replication_apply.p50 == pytest.approx(400.0, rel=0.01)
        record, = tracker.records
        assert "replication-apply" not in record.phases

    def test_jsonl_round_trip(self, tmp_path):
        tracker = LatencyTracker()
        self._drive(tracker)
        path = tmp_path / "ops.jsonl"
        tracker.write_jsonl(path)
        row, = [json.loads(line) for line in path.read_text().splitlines()]
        assert row["op_class"] == "forwarded-write"
        assert row["total"] == pytest.approx(6.0)
        assert set(row["phases"]) == {PHASE_FORWARD, PHASE_PROTOCOL,
                                      PHASE_QUEUE}

    def test_band_attribution(self):
        tracker = LatencyTracker()
        # 99 fast ops dominated by protocol, 1 slow op dominated by the
        # forward hop: the p99+ band must name the forward hop.
        for i in range(99):
            handle = f"f{i}"
            tracker.begin_op(handle, "write", "k", 0.0)
            tracker.child_span(handle, "forward-hop p", "router", 0.0, 1.0)
            tracker.child_span(handle, "protocol-write", "lds", 1.0, 10.0)
            tracker.end_op(handle, 10.0)
        tracker.begin_op("slow", "write", "k", 0.0)
        tracker.child_span("slow", "forward-hop p", "router", 0.0, 90.0)
        tracker.child_span("slow", "protocol-write", "lds", 90.0, 100.0)
        tracker.end_op("slow", 100.0)
        attribution = tracker.attribution("forwarded-write", 0.99)
        assert attribution.dominant_phase == PHASE_FORWARD
        assert tracker.dominant_phase("forwarded-write") == PHASE_FORWARD
        # The whole population is still protocol-dominated.
        assert tracker.attribution("forwarded-write",
                                   0.0).dominant_phase == PHASE_PROTOCOL
        bands = tracker.band_attributions("forwarded-write")
        assert [b.band for b in bands] == ["p50-", "p50-p90", "p90-p99",
                                           "p99+"]

    def test_fanout_forwards_to_all_sinks(self):
        trace = TraceRecorder()
        tracker = LatencyTracker()
        fanout = SpanSinkFanout(trace, tracker)
        fanout.begin_op("h1", "write", "k", 0.0)
        fanout.child_span("h1", "protocol-write", "lds", 0.0, 2.0)
        fanout.child_instant("h1", "read-repair p", "replica", 1.0)
        fanout.end_op("h1", 3.0)
        assert len(tracker.records) == 1
        span, = trace.spans("write ")
        assert span["id"] == "h1"

    def test_fanout_skips_none_sinks(self):
        tracker = LatencyTracker()
        fanout = SpanSinkFanout(None, tracker)
        fanout.begin_op("h1", "read", "k", 0.0)
        fanout.end_op("h1", 1.0)
        assert len(tracker.records) == 1


def build_simulation(telemetry, seed=7):
    keys = [f"obj-{i}" for i in range(16)]
    simulation = ClusterSimulation(
        LDSConfig(n1=3, n2=4, f1=1, f2=1),
        [f"pool-{i}" for i in range(4)], seed=seed,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=400.0,
                                      read_quorum=2,
                                      write_ingress="nearest"),
        read_policy="quorum", telemetry=telemetry)
    simulation.ensure_shards(keys)
    simulation.apply(quorum_reads_under_lag(keys, seed=seed))
    simulation.run_until_idle()
    return simulation


class TestLatencyEndToEnd:
    def test_cluster_run_classifies_every_completed_op(self):
        telemetry = Telemetry(latency=True)
        simulation = build_simulation(telemetry)
        tracker = telemetry.latency
        assert tracker.open_count() == 0
        stats = simulation.stats
        by_class = {cls: tracker.sketch(cls).count
                    for cls in tracker.classes()}
        assert by_class["forwarded-write"] == stats.forwarded_writes
        assert by_class["quorum-read"] == stats.quorum_reads
        assert sum(by_class.values()) == len(tracker.records)
        for record in tracker.records:
            assert sum(record.phases.values()) == pytest.approx(record.total)

    def test_run_report_has_latency_section(self):
        telemetry = Telemetry(latency=True, slo_interval=50.0)
        simulation = build_simulation(telemetry)
        report = telemetry.report(simulation)
        assert "-- latency" in report
        assert "-- slo --" in report
        assert "quorum-read:" in report
        assert "p999" in report
