"""The quorum-read and write-forwarding scenario family.

Acceptance tests of the quorum read path and follower write forwarding on
the global clock: quorum merges resolving a read burst over genuinely
lagging stores (with read repair catching observed-stale stores up on the
spot), writes arriving at follower pools and riding a failover freeze
into the promoted epoch -- with the combined atomicity + session audit
staying clean under fixed seeds, and the quorum-drop injection proving
the auditor would catch a merge that lost its freshest response.
"""

from __future__ import annotations

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.consistency.injection import (
    inject_quorum_version_drop,
    is_quorum_read,
)
from repro.consistency.sessions import check_sessions, split_object_id
from repro.consistency.history import WRITE
from repro.core.config import LDSConfig
from repro.sim import (
    ClusterSimulation,
    forwarded_writes_during_failover,
    quorum_reads_under_lag,
)

KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def run_quorum(config, seed: int = 7, *, read_repair: bool = True,
               record_trace: bool = False) -> ClusterSimulation:
    simulation = ClusterSimulation(
        config, POOLS, seed=seed, record_trace=record_trace,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=400.0,
                                      read_quorum=2,
                                      read_repair=read_repair),
        read_policy="quorum",
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=seed))
    return simulation


class TestQuorumReadsUnderLag:
    def test_quorum_merges_resolve_the_burst_and_audit_clean(self, config):
        simulation = run_quorum(config)
        distribution = simulation.read_distribution()
        assert distribution.quorum_reads > 50, distribution.describe()
        assert distribution.mean_quorum_depth == pytest.approx(2.0)
        # The lag is longer than the burst window, so merges must have
        # observed (and repaired) genuinely stale stores.
        assert distribution.read_repairs > 0
        assert simulation.router.incomplete_operations() == 0
        report = simulation.audit()
        assert report.ok, report.describe()

    def test_read_repair_measurably_reduces_session_fallbacks(self, config):
        repaired = run_quorum(config, read_repair=True).read_distribution()
        lag_only = run_quorum(config, read_repair=False).read_distribution()
        assert repaired.quorum_reads == lag_only.quorum_reads
        assert lag_only.read_repairs == 0
        # Identical workload, identical quorum windows: with repair off,
        # follower-only merges keep landing below the session floors and
        # fall back to the primaries; with repair on, the stores the
        # merges touch are current and the fallback rate drops hard.
        assert repaired.session_fallbacks < lag_only.session_fallbacks
        assert repaired.session_fallback_rate \
            <= lag_only.session_fallback_rate * 0.6

    def test_read_repairs_are_visible_on_the_timeline(self, config):
        simulation = run_quorum(config)
        repairs = [entry for entry in simulation.timeline()
                   if entry[1] == "read-repair"]
        assert repairs
        assert simulation.read_distribution().read_repairs == len(repairs)

    def test_same_seed_replays_identically(self, config):
        first = run_quorum(config, record_trace=True)
        second = run_quorum(config, record_trace=True)
        assert first.kernel.fingerprint == second.kernel.fingerprint
        assert first.kernel.trace == second.kernel.trace
        assert (first.read_distribution().counts
                == second.read_distribution().counts)

    def test_quorum_drop_injection_is_detected(self, config):
        simulation = run_quorum(config)
        history = simulation.history()
        assert any(is_quorum_read(op) for op in history)
        injection = inject_quorum_version_drop(history)
        report = check_sessions(injection.history)
        assert not report.ok
        blamed = {op_id for violation in report.violations
                  for op_id in violation.operations}
        assert injection.mutated[0] in blamed


class TestForwardedWritesDuringFailover:
    def run_forwarding(self, config, seed: int = 5) -> ClusterSimulation:
        simulation = ClusterSimulation(
            config, POOLS, seed=seed,
            replication=ReplicationConfig(r=3, replication_lag=25.0,
                                          failover_detection_delay=12.0,
                                          write_ingress="nearest"),
            read_policy="round-robin",
        )
        simulation.ensure_shards(KEYS)
        simulation.apply(forwarded_writes_during_failover(KEYS, "pool-0",
                                                          seed=seed))
        return simulation

    def test_forwarded_writes_complete_through_the_failover(self, config):
        simulation = self.run_forwarding(config)
        distribution = simulation.read_distribution()
        assert distribution.forwarded_writes > 0, distribution.describe()
        stats = simulation.replicas.stats
        assert stats.promotions >= 1
        assert simulation.router.incomplete_operations() == 0
        report = simulation.audit()
        assert report.ok, report.describe()

    def test_writes_arriving_in_the_freeze_land_in_the_promoted_epoch(
            self, config):
        simulation = self.run_forwarding(config)
        # The failover windows per key: primary-down .. promote.
        windows = {}
        down_at = {}
        for time, kind, detail in simulation.replicas.failover_log:
            key = detail.split(":")[0]
            if kind == "primary-down":
                down_at[key] = time
            elif kind == "promote" and key in down_at:
                windows.setdefault(key, []).append((down_at.pop(key), time))
        assert windows
        frozen_writes = [
            op for op in simulation.history()
            if op.kind == WRITE and any(
                start <= op.invoked_at <= end
                for start, end in windows.get(
                    split_object_id(op.object_id)[0], ())
            )
        ]
        # Writes kept arriving at follower ingresses during the freeze and
        # every one of them completed (flushed into the promoted epoch).
        assert frozen_writes
        assert all(op.is_complete for op in frozen_writes)
        promoted = [op for op in frozen_writes
                    if split_object_id(op.object_id)[1] >= 1]
        assert promoted, "frozen writes must execute on the promoted epoch"
