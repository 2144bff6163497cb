"""Unit tests for the metrics registry instruments."""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    LabeledFamily,
    MetricsRegistry,
    registry_or_default,
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

    def test_bridge_set_overwrites(self):
        counter = Counter("c")
        counter.inc(9)
        counter._set(3)
        assert counter.value == 3


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.dec(4)
        gauge.inc()
        assert gauge.value == 7

    def test_set_max_ratchets(self):
        gauge = Gauge("g")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5


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

    def test_set_values_replaces_children(self):
        family = LabeledFamily("reads", "", ("pool",), Counter)
        family.labels(pool="stale").inc(7)
        family.set_values({"a": 1, "b": 2})
        assert family.as_dict() == {"a": 1, "b": 2}


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

    def test_registry_or_default(self):
        registry = MetricsRegistry()
        assert registry_or_default(registry) is registry
        fresh = registry_or_default(None)
        assert isinstance(fresh, MetricsRegistry)
        assert fresh is not registry
