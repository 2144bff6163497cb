"""Tests for the kernel-driven sampler, probe semantics, and run report."""

from __future__ import annotations

import json

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.core.config import LDSConfig
from repro.net.simulator import Simulator
from repro.obs import Telemetry
from repro.sim import (
    TELEMETRY_SOURCE,
    ClusterSimulation,
    quorum_reads_under_lag,
)
from repro.sim.kernel import GlobalScheduler

KEYS = [f"obj-{i}" for i in range(8)]
POOLS = [f"pool-{i}" for i in range(3)]
SEED = 11
INTERVAL = 20.0


class TestProbeSemantics:
    def test_probe_fires_without_touching_determinism_surface(self):
        kernel = GlobalScheduler()
        source = kernel.register_simulator(Simulator(), name="work")
        source.simulator.schedule(50.0, lambda: None)

        seen = []
        kernel.schedule_probe(10.0, lambda: seen.append(kernel.now))
        kernel.run_until_idle()

        # The probe ran before the foreground event, but the clock it saw
        # (and everything fingerprinted) belongs to the foreground only.
        assert seen == [0.0]
        assert kernel.now == 50.0
        assert TELEMETRY_SOURCE not in kernel.stats.events_by_source
        assert kernel.stats.events_total == 1

    def test_probe_in_the_past_rejected(self):
        kernel = GlobalScheduler()
        source = kernel.register_simulator(Simulator(), name="work")
        source.simulator.schedule(5.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(ValueError):
            kernel.schedule_probe(kernel.now - 1.0, lambda: None)

    def test_pending_work_ignores_telemetry_source(self):
        kernel = GlobalScheduler()
        kernel.register_simulator(Simulator(), name="work")
        assert not kernel.pending_work()
        kernel.schedule_probe(100.0, lambda: None)
        assert not kernel.pending_work()
        kernel.source("work").simulator.schedule(1.0, lambda: None)
        assert kernel.pending_work()


@pytest.fixture(scope="module")
def run():
    telemetry = Telemetry.full(sample_interval=INTERVAL)
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        replication=ReplicationConfig(r=3, replication_lag=300.0,
                                      read_quorum=2),
        read_policy="quorum",
        writers_per_shard=2, readers_per_shard=2,
        telemetry=telemetry,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED, operations=60))
    return simulation, telemetry


class TestClusterSampler:
    def test_samples_on_the_configured_cadence(self, run):
        _, telemetry = run
        ticks = [row["t"] for row in telemetry.sampler.samples]
        assert len(ticks) >= 3
        assert ticks == sorted(ticks)
        deltas = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(delta == INTERVAL for delta in deltas)

    def test_rows_carry_the_documented_shape(self, run):
        _, telemetry = run
        row = telemetry.sampler.samples[0]
        assert set(row) >= {"t", "queue_depth", "replication_lag", "repair",
                            "reads", "pools_live", "shards"}
        assert set(row["repair"]) >= {"outstanding", "dispatched",
                                      "completed", "gave_up", "retries"}

    def test_lag_observed_then_drained(self, run):
        _, telemetry = run
        lag = telemetry.sampler.series("replication_lag", "max")
        assert max(lag) > 0
        assert lag[-1] == 0

    def test_jsonl_roundtrip(self, run, tmp_path):
        _, telemetry = run
        path = tmp_path / "series.jsonl"
        telemetry.sampler.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(telemetry.sampler.samples)
        assert json.loads(lines[0]) == telemetry.sampler.samples[0]

    def test_sampler_rearms_for_a_second_burst(self, run):
        simulation, telemetry = run
        before = len(telemetry.sampler.samples)
        # The first burst drained, so the sampler wound itself down;
        # feeding more foreground work must restart the cadence.
        simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED + 1,
                                                operations=40))
        assert len(telemetry.sampler.samples) > before

    def test_registry_gauges_track_last_sample(self, run):
        _, telemetry = run
        last = telemetry.sampler.samples[-1]
        gauge = telemetry.registry.get("cluster_replication_lag_max")
        assert gauge.value == last["replication_lag"]["max"]


class TestRunReport:
    def test_report_renders_every_section(self, run):
        simulation, _ = run
        report = simulation.run_report()
        for heading in ("== run report ==", "-- routing --", "-- repair --",
                        "-- latency (", "-- time series", "-- metrics --",
                        "-- trace --"):
            assert heading in report
        assert "dispatched=" in report
        assert "gave_up=" in report and "(moot=" in report

    def test_run_report_requires_telemetry(self):
        config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
        simulation = ClusterSimulation(config, POOLS, seed=SEED)
        with pytest.raises(ValueError):
            simulation.run_report()
