"""SLO error-budget math, the burn-rate probe, and non-interference."""

import json

import pytest

from repro import ClusterSimulation, LDSConfig, ReplicationConfig, Telemetry
from repro.obs.latency import LatencyTracker
from repro.obs.slo import (
    DEFAULT_LATENCY_TARGETS,
    SLO,
    SLOTracker,
    default_slos,
)
from repro.sim import quorum_reads_under_lag


def feed(tracker, op_class, totals):
    """Complete one synthetic op per total, classified as ``op_class``."""
    kind = "write" if "write" in op_class else "read"
    child = {"forwarded-write": "forward-hop p",
             "quorum-read": "quorum-leg p",
             "follower-read": "store-read p"}.get(op_class)
    for i, total in enumerate(totals):
        handle = f"{op_class}-{i}-{len(tracker.records)}"
        tracker.begin_op(handle, kind, "k", 0.0)
        if child is not None:
            tracker.child_span(handle, child, "x", 0.0, total / 2.0)
        tracker.end_op(handle, total)


class TestSLODefinitions:
    def test_default_slos_cover_every_class(self):
        slos = default_slos()
        assert {slo.op_class for slo in slos} == set(DEFAULT_LATENCY_TARGETS)
        for slo in slos:
            assert slo.target_fraction == 0.99
            assert slo.allowed_breach_fraction == pytest.approx(0.01)

    def test_invalid_slos_rejected(self):
        with pytest.raises(ValueError):
            SLO(op_class="write", latency_target=10.0, target_fraction=1.0)
        with pytest.raises(ValueError):
            SLO(op_class="write", latency_target=0.0)


class TestBudgetAccounting:
    def _tracker(self, slos=None):
        latency = LatencyTracker()
        tracker = SLOTracker(None, latency, slos=slos)
        return latency, tracker

    def test_no_breaches_no_burn(self):
        latency, tracker = self._tracker(
            slos=(SLO(op_class="write", latency_target=50.0),))
        feed(latency, "write", [10.0] * 100)
        status = tracker.snapshot()["write"]
        assert status.ops == 100
        assert status.breaches == 0
        assert status.budget_consumed == 0.0
        assert status.burn_rate == 0.0
        assert status.met

    def test_burn_rate_of_exactly_on_budget(self):
        # 1 breach in 100 ops against a 99% objective: burning at 1.0x.
        latency, tracker = self._tracker(
            slos=(SLO(op_class="write", latency_target=50.0,
                      target_fraction=0.99),))
        feed(latency, "write", [10.0] * 99 + [60.0])
        status = tracker.snapshot()["write"]
        assert status.breaches == 1
        assert status.burn_rate == pytest.approx(1.0)
        assert status.budget_consumed == pytest.approx(1.0)
        assert status.met

    def test_blown_budget(self):
        latency, tracker = self._tracker(
            slos=(SLO(op_class="write", latency_target=50.0,
                      target_fraction=0.99),))
        feed(latency, "write", [10.0] * 90 + [60.0] * 10)
        status = tracker.snapshot()["write"]
        assert status.burn_rate == pytest.approx(10.0)
        assert status.budget_consumed == pytest.approx(10.0)
        assert not status.met

    def test_boundary_is_not_a_breach(self):
        latency, tracker = self._tracker(
            slos=(SLO(op_class="write", latency_target=50.0),))
        feed(latency, "write", [50.0, 50.0000001])
        status = tracker.snapshot()["write"]
        assert status.breaches == 1

    def test_unknown_classes_ignored(self):
        latency, tracker = self._tracker(
            slos=(SLO(op_class="write", latency_target=50.0),))
        feed(latency, "quorum-read", [500.0] * 5)
        assert "quorum-read" not in tracker.snapshot()

    def test_counters_are_cumulative_across_snapshots(self):
        latency, tracker = self._tracker()
        feed(latency, "write", [10.0] * 10)
        tracker.snapshot()
        feed(latency, "write", [999.0] * 10)
        status = tracker.snapshot()["write"]
        assert status.ops == 20
        assert status.breaches == 10
        counters = tracker.registry.to_dict()
        assert counters["slo_ops"]["write"] == 20
        assert counters["slo_latency_breaches"]["write"] == 10

    def test_availability_counts_stranded_ops(self):
        latency, tracker = self._tracker()
        feed(latency, "write", [10.0] * 5)
        latency.begin_op("doomed", "read", "k", 0.0)
        latency.child_instant("doomed", "store-crashed pool-1", "replica",
                              1.0)
        availability = tracker.availability()
        assert availability["write"]["fraction"] == 1.0
        assert availability["read"]["invoked"] == 1
        assert availability["read"]["completed"] == 0
        assert not availability["read"]["met"]


class TestSLOProbe:
    def test_probe_samples_and_window_burn(self):
        latency = LatencyTracker()
        tracker = SLOTracker(None, latency, interval=50.0,
                             slos=(SLO(op_class="write",
                                       latency_target=50.0),))
        feed(latency, "write", [10.0] * 99 + [60.0])
        tracker.tick(50.0)
        row = tracker.samples[-1]
        assert row["t"] == 50.0
        assert row["classes"]["write"]["burn_rate"] == pytest.approx(1.0)
        assert row["classes"]["write"]["window_burn_rate"] == \
            pytest.approx(1.0)

        # Second window is clean: the window burn resets, the cumulative
        # rate decays but stays nonzero.
        feed(latency, "write", [10.0] * 100)
        tracker.tick(100.0)
        row = tracker.samples[-1]
        assert row["classes"]["write"]["window_burn_rate"] == 0.0
        assert 0.0 < row["classes"]["write"]["burn_rate"] < 1.0

    def test_jsonl_export(self, tmp_path):
        latency = LatencyTracker()
        tracker = SLOTracker(None, latency, interval=10.0)
        feed(latency, "quorum-read", [10.0, 20.0])
        tracker.tick(10.0)
        path = tmp_path / "slo.jsonl"
        tracker.write_jsonl(path)
        row, = [json.loads(line) for line in path.read_text().splitlines()]
        assert row["t"] == 10.0
        assert row["classes"]["quorum-read"]["ops"] == 2


def run_cluster(telemetry, seed=11):
    keys = [f"obj-{i}" for i in range(12)]
    simulation = ClusterSimulation(
        LDSConfig(n1=3, n2=4, f1=1, f2=1),
        [f"pool-{i}" for i in range(4)], seed=seed,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=300.0,
                                      read_quorum=2),
        read_policy="quorum", telemetry=telemetry)
    simulation.ensure_shards(keys)
    simulation.apply(quorum_reads_under_lag(keys, seed=seed))
    simulation.run_until_idle()
    return simulation


class TestSLOEndToEnd:
    def test_probe_runs_on_the_kernel(self):
        telemetry = Telemetry(slo_interval=50.0)
        run_cluster(telemetry)
        assert telemetry.latency is not None  # SLO implies latency
        assert telemetry.slo is not None
        assert telemetry.slo.samples
        statuses = telemetry.slo.snapshot()
        assert "quorum-read" in statuses
        assert statuses["quorum-read"].ops == \
            telemetry.latency.sketch("quorum-read").count

    def test_slo_probes_do_not_perturb(self):
        with_slo = run_cluster(Telemetry(trace=True, latency=True,
                                         slo_interval=25.0))
        without = run_cluster(None)
        assert with_slo.kernel.fingerprint == without.kernel.fingerprint
        assert repr(with_slo.history().operations) == \
            repr(without.history().operations)

    def test_counter_tracks_emitted_when_tracing(self):
        telemetry = Telemetry(trace=True, slo_interval=50.0)
        run_cluster(telemetry)
        counters = [event for event in telemetry.trace.events
                    if event.get("ph") == "C"
                    and event.get("name", "").startswith("slo ")]
        assert counters
        assert {"p99", "burn"} <= set(counters[0]["args"])
