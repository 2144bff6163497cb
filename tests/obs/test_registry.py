"""Unit tests for the metrics registry instruments."""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    LabeledFamily,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(-4)
        gauge.inc()
        assert gauge.value == 7


class TestLabeledFamily:
    def test_children_are_cached_per_label_values(self):
        family = LabeledFamily("reads", "", ("pool",), Counter)
        family.labels(pool="a").inc(2)
        family.labels(pool="a").inc()
        family.labels(pool="b").inc()
        assert family.as_dict() == {"a": 3, "b": 1}

    def test_wrong_label_names_rejected(self):
        family = LabeledFamily("reads", "", ("pool",), Counter)
        with pytest.raises(ValueError):
            family.labels(shard="a")


class TestMetricsRegistry:
    def test_reregistration_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("reads")
        second = registry.counter("reads")
        assert first is second

    def test_shape_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("reads")
        with pytest.raises(ValueError):
            registry.gauge("reads")
        with pytest.raises(ValueError):
            registry.counter("reads", labels=("pool",))

    def test_collect_flattens_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.counter("family", labels=("pool",)).labels(pool="a").inc()
        registry.quantile_sketch("h").observe(0.5)
        samples = dict(
            ((name, tuple(sorted(labels.items()))), value)
            for name, labels, value in registry.collect()
        )
        assert samples[("c", ())] == 2
        assert samples[("family", (("pool", "a"),))] == 1
        assert samples[("h_count", ())] == 1
        assert samples[("h_p50", ())] == pytest.approx(0.5, rel=0.01)

    def test_render_skips_zeros_by_default(self):
        registry = MetricsRegistry()
        registry.counter("zero")
        registry.counter("hot").inc()
        rendered = registry.render()
        assert "hot 1" in rendered
        assert "zero" not in rendered

    def test_to_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(4)
        registry.counter("family", labels=("pool",)).labels(pool="a").inc()
        payload = registry.to_dict()
        assert payload["g"] == 4
        assert payload["family"] == {"a": 1}

    def test_read_through_exports_like_any_instrument(self):
        owned = {"count": 0, "by_pool": {}}
        registry = MetricsRegistry()
        registry.read_through("count", lambda: owned["count"])
        registry.read_through("by_pool", lambda: owned["by_pool"],
                              label="pool")
        owned["count"] = 3
        owned["by_pool"]["a"] = 2
        assert registry.to_dict() == {"count": 3, "by_pool": {"a": 2}}
        assert ("by_pool", {"pool": "a"}, 2) in registry.collect()
        assert registry.render() == "by_pool{pool=a} 2\ncount 3"
        snapshot = registry.get("by_pool").value
        owned["by_pool"]["a"] = 5
        assert snapshot == {"a": 2}
        with pytest.raises(ValueError):
            registry.counter("count")


class TestRouterStatsReadThrough:
    def test_registry_reads_the_router_counters(self):
        from repro.cluster.replicas import ReplicationConfig
        from repro.core.config import LDSConfig
        from repro.obs import Telemetry
        from repro.sim import ClusterSimulation, quorum_reads_under_lag

        keys = [f"obj-{i}" for i in range(4)]
        telemetry = Telemetry()
        simulation = ClusterSimulation(
            LDSConfig(n1=3, n2=4, f1=1, f2=1), ["pool-0", "pool-1", "pool-2"],
            seed=5, writers_per_shard=2, readers_per_shard=2,
            replication=ReplicationConfig(r=3, read_quorum=2),
            read_policy="quorum", telemetry=telemetry)
        simulation.ensure_shards(keys)
        simulation.apply(quorum_reads_under_lag(keys, seed=5, operations=30,
                                                burst_operations=30))
        stats = simulation.router.stats
        exported = {name: value
                    for name, value in telemetry.registry.to_dict().items()
                    if name.startswith("router_")}
        renamed = {"router_quorum_depth": "quorum_depths"}
        assert {renamed.get(name, name[len("router_"):]): value
                for name, value in exported.items()} == stats.as_dict()
        assert stats.quorum_reads and stats.reads_by_replica
        stats.arrivals += 1
        assert telemetry.registry.get("router_arrivals").value \
            == stats.arrivals
