"""Telemetry is pure observation: instrumented runs are byte-identical.

The governing invariant of ``repro.obs`` (and of the kernel's telemetry
probe source) is that turning every pillar on -- registry, sampler,
tracer, latency tracker -- changes *nothing* about the simulated execution:
same kernel fingerprint, same merged timeline, same histories, same
audit verdict.  These tests pin that down on a fixed-seed
``quorum_reads_under_lag`` run, and additionally prove the probe events
never leak into the fingerprinted stats or the operation histories.
"""

from __future__ import annotations

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.core.config import LDSConfig
from repro.obs import Telemetry
from repro.sim import (
    TELEMETRY_SOURCE,
    ClusterSimulation,
    quorum_reads_under_lag,
)

KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
SEED = 7


def _run(telemetry):
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        replication=ReplicationConfig(r=3, replication_lag=400.0,
                                      read_quorum=2,
                                      write_ingress="nearest"),
        read_policy="quorum",
        writers_per_shard=2, readers_per_shard=2,
        telemetry=telemetry,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED))
    return simulation


def _op_key(op):
    return (op.op_id, op.client_id, op.kind, op.object_id, op.value,
            op.invoked_at, op.responded_at, op.tag, op.session)


@pytest.fixture(scope="module")
def runs():
    return _run(None), _run(Telemetry.full())


class TestNonInterference:
    def test_fingerprints_identical(self, runs):
        bare, full = runs
        assert full.kernel.fingerprint == bare.kernel.fingerprint
        assert full.kernel.events_processed == bare.kernel.events_processed

    def test_timelines_identical(self, runs):
        bare, full = runs
        assert full.timeline() == bare.timeline()

    def test_histories_identical(self, runs):
        bare, full = runs
        bare_ops = [_op_key(op) for op in bare.history()]
        full_ops = [_op_key(op) for op in full.history()]
        assert full_ops == bare_ops

    def test_audits_clean_and_identical(self, runs):
        bare, full = runs
        bare_audit, full_audit = bare.audit(), full.audit()
        assert bare_audit.ok and full_audit.ok
        assert full_audit.describe() == bare_audit.describe()

    def test_probe_source_never_fingerprinted(self, runs):
        _, full = runs
        # The sampler ran (it produced samples)...
        assert full.telemetry.sampler.samples
        # ...yet its probe queue is invisible to the fingerprinted stats.
        assert TELEMETRY_SOURCE not in full.kernel.stats.events_by_source

    def test_probes_never_in_histories(self, runs):
        _, full = runs
        for op in full.history():
            assert TELEMETRY_SOURCE not in op.op_id
            assert TELEMETRY_SOURCE != op.client_id


class TestTelemetryActuallyObserved:
    """Guard against the trivial way to pass the above: observing nothing."""

    def test_all_pillars_collected(self, runs):
        _, full = runs
        telemetry = full.telemetry
        assert telemetry.trace.events
        assert not telemetry.trace.open_handles()
        assert telemetry.sampler.samples
        assert telemetry.latency.records
        assert telemetry.registry.get("router_arrivals").value > 0

    def test_lag_series_rises_then_collapses(self, runs):
        _, full = runs
        lag = full.telemetry.sampler.series("replication_lag", "max")
        assert max(lag) > 0
        assert lag[-1] == 0

    def test_write_spans_carry_forward_and_apply_children(self, runs):
        _, full = runs
        trace = full.telemetry.trace
        roots = [e for e in trace.events
                 if e.get("ph") == "b" and e.get("cat") == "op"
                 and e["name"].startswith("write")]
        assert roots
        children = [e for e in trace.events
                    if e.get("args", {}).get("parent")]
        names = {e["name"].split(" ")[0] for e in children}
        assert "forward-hop" in names
        assert "replication-apply" in names

    def test_read_deferred_by_failover_gets_a_freeze_wait_span(self):
        telemetry = Telemetry.full()
        config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
        simulation = ClusterSimulation(
            config, POOLS, seed=3,
            replication=ReplicationConfig(r=3, replication_lag=25.0,
                                          failover_detection_delay=10.0),
            read_policy="primary",
            telemetry=telemetry,
        )
        simulation.ensure_shards(["k"])
        simulation.write("k", b"v1")
        simulation.run_until_idle()
        group = simulation.replicas.groups["k"]
        simulation.fail_pool(group.primary_pool, time=simulation.kernel.now)
        read = simulation.router.invoke_read("k", session="r")
        assert simulation.router.stats.failover_deferrals == 1
        simulation.run_until_idle()
        span, = telemetry.trace.spans("freeze-wait")
        assert span["args"]["parent"] == read
        assert span["args"]["promoted"] == group.primary_pool
        assert telemetry.trace.open_handles() == []
