"""Replica groups: placement, replication lag, read routing and failover."""

from __future__ import annotations

import pytest

from repro.cluster.membership import FAILED
from repro.cluster.replicas import (
    FAILING_OVER,
    NORMAL,
    UNSERVICEABLE,
    QuorumReadPolicy,
    ReadRoutingPolicy,
    ReplicaView,
    ReplicationConfig,
    RoundRobinPolicy,
    make_read_policy,
)
from repro.consistency.history import READ
from repro.consistency.sessions import check_sessions
from repro.core.config import LDSConfig
from repro.core.tags import INITIAL_TAG
from repro.sim.harness import ClusterSimulation


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def build_cluster(config, *, r=3, policy="round-robin", pools=4, seed=11,
                  sanitize=False, **replication_kwargs):
    cluster = ClusterSimulation(
        config, [f"pool-{i}" for i in range(pools)], seed=seed,
        replication=ReplicationConfig(r=r, **replication_kwargs),
        read_policy=policy, sanitize=sanitize,
    )
    return cluster, cluster.kernel


class TestPlacement:
    def test_group_replicas_follow_nodes_for(self, config):
        cluster, _ = build_cluster(config, r=3)
        for i in range(8):
            cluster.write(f"obj-{i}", b"x")
        ring = cluster.membership.ring
        for key, group in cluster.replicas.groups.items():
            assert group.pools() == ring.nodes_for(key, 3)
            assert len(set(group.pools())) == 3

    def test_r_is_capped_at_the_pool_count(self, config):
        cluster, _ = build_cluster(config, r=3, pools=2)
        cluster.write("obj-0", b"x")
        group = cluster.replicas.groups["obj-0"]
        assert len(group.pools()) == 2  # primary + one follower

    def test_r1_disables_the_subsystem_entirely(self, config):
        cluster = ClusterSimulation(config, ["pool-0", "pool-1"],
                                 replication=ReplicationConfig(r=1))
        assert cluster.replicas is None
        cluster_none = ClusterSimulation(config, ["pool-0", "pool-1"])
        assert cluster_none.replicas is None

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown read routing policy"):
            make_read_policy("fastest")


class TestReplicationLag:
    def test_followers_apply_after_the_configured_lag(self, config):
        cluster, kernel = build_cluster(config, policy="primary",
                                        replication_lag=40.0)
        result = cluster.write("obj-0", b"v1")
        group = cluster.replicas.groups["obj-0"]
        # The write is acknowledged, but no apply event has fired yet.
        for store in group.live_followers():
            assert store.version == (0, INITIAL_TAG)
        committed_at = group.log[-1].committed_at
        cluster.run_until_idle()
        assert kernel.now >= committed_at + 40.0
        for store in group.live_followers():
            assert store.version == (0, result.tag)
            assert store.value == b"v1"
        assert cluster.replicas.stats.records_applied == 2

    def test_replication_traffic_is_charged(self, config):
        cluster, _ = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        before = cluster.replicas.replication_cost
        cluster.run_until_idle()
        assert cluster.replicas.replication_cost == before + 2.0
        assert cluster.communication_cost >= 2.0

    def test_applies_keep_the_maximum_version(self, config):
        cluster, _ = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        cluster.write("obj-0", b"v2")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        for store in group.live_followers():
            assert store.value == b"v2"
            assert store.version == group.latest_version


class TestReadRouting:
    def test_primary_only_never_touches_followers(self, config):
        cluster, _ = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        for _ in range(4):
            assert cluster.read("obj-0").value == b"v1"
        stats = cluster.stats
        assert stats.primary_reads == 4
        assert stats.follower_reads == 0
        assert stats.policy_hit_rate == 1.0

    def test_round_robin_cycles_over_the_group(self, config):
        cluster, _ = build_cluster(config, policy="round-robin")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        for _ in range(6):
            assert cluster.read("obj-0").value == b"v1"
        group = cluster.replicas.groups["obj-0"]
        stats = cluster.stats
        assert stats.primary_reads == 2
        assert stats.follower_reads == 4
        for pool in group.pools():
            assert stats.reads_by_replica[pool] == 2

    def test_nearest_prefers_the_smallest_distance(self, config):
        cluster, _ = build_cluster(config, policy="nearest")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        distances = {group.primary_pool: group.primary_distance}
        for store in group.live_followers():
            distances[store.pool] = store.distance
        expected = min(distances, key=distances.get)
        for _ in range(3):
            assert cluster.read("obj-0").value == b"v1"
        assert cluster.stats.reads_by_replica == {expected: 3}

    def test_least_loaded_balances_serve_counts(self, config):
        cluster, _ = build_cluster(config, policy="least-loaded")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        for _ in range(9):
            assert cluster.read("obj-0").value == b"v1"
        counts = cluster.stats.reads_by_replica
        assert sorted(counts.values()) == [3, 3, 3]

    def test_follower_read_carries_the_replica_client_id(self, config):
        cluster, _ = build_cluster(config, policy="round-robin")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        for _ in range(2):
            cluster.read("obj-0")
        follower_ops = [op for op in cluster.history()
                        if op.client_id.startswith("replica:")]
        assert len(follower_ops) == 1
        assert follower_ops[0].value == b"v1"

    def test_follower_reads_are_excluded_from_atomicity(self, config):
        # A follower read may legitimately return an older version than a
        # concurrent protocol read; it must not enter the per-epoch
        # atomicity check (it is audited by the session checker instead).
        cluster, _ = build_cluster(config, policy="round-robin",
                                   replication_lag=1000.0)
        cluster.write("obj-0", b"v1")
        cluster.write("obj-0", b"v2")
        for _ in range(3):
            cluster.read("obj-0")  # unsessioned: the guard does not apply
        assert cluster.check_atomicity() is None
        stale = [op for op in cluster.history()
                 if op.client_id.startswith("replica:")
                 and op.value != b"v2"]
        assert stale, "with a huge lag some follower read must be stale"


class TestSessionGuard:
    def test_guard_routes_stale_follower_choices_to_the_primary(self, config):
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        replication_lag=500.0)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        # Pump only until the write is acknowledged -- running to idle
        # would fast-forward virtual time past the replication lag.
        while cluster.result(write) is None:
            kernel.step()
        # Round-robin would now send reads to follower 1 and 2 -- but the
        # session already wrote v1, which no follower has applied: each
        # rejected follower passes the turn to the next candidate, so the
        # second read rejects both lagging followers before landing on
        # the primary and the third rejects one.  The reads start
        # strictly after the write's response so the session order is
        # unambiguous.
        # Spaced out: the fallbacks all land on the same physical reader.
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(3)]
        cluster.run_until_idle()
        written = cluster.result(write)
        for handle in handles:
            assert cluster.result(handle).tag == written.tag
        stats = cluster.stats
        assert stats.session_fallbacks == 3  # one per rejected choice
        assert stats.follower_reads == 0
        assert stats.policy_hit_rate < 1.0
        report = check_sessions(cluster.history())
        assert report.ok

    def test_disabling_the_guard_makes_stale_reads_detectable(self, config):
        # The end-to-end injection drill: with the guard off, a genuinely
        # lagging follower serves a session a version below its own write
        # and the auditor must catch it.
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        replication_lag=500.0,
                                        session_guard=False)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + i)
                   for i in range(3)]
        cluster.run_until_idle()
        del handles
        report = check_sessions(cluster.history())
        assert not report.ok
        assert any(v.guarantee in ("read-your-writes", "monotonic-reads")
                   for v in report.violations)
        # Atomicity at the primary is *not* affected by follower staleness.
        assert cluster.check_atomicity() is None


class TestFailover:
    def _primary_pool(self, cluster, key):
        return cluster.replicas.groups[key].primary_pool

    def test_pool_kill_promotes_a_follower_and_flushes_frozen_ops(self, config):
        cluster, kernel = build_cluster(config, policy="primary",
                                        failover_detection_delay=10.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        victim = group.primary_pool
        successor = group.live_followers()[0].pool
        cluster.fail_pool(victim, time=kernel.now)
        assert group.status == FAILING_OVER
        # Primary-bound traffic freezes: the read defers, the write queues.
        read = cluster.invoke_read("k", session="r")
        write = cluster.invoke_write("k", b"v2", session="w")
        assert cluster.stats.failover_deferrals == 1
        cluster.run_until_idle()
        assert group.status == NORMAL
        assert group.epoch == 1
        assert group.primary_pool == successor
        assert cluster.replicas.stats.promotions == 1
        assert cluster.result(write).value == b"v2"
        assert cluster.result(read) is not None
        assert cluster.check_atomicity() is None
        assert check_sessions(cluster.history()).ok
        # Redundancy is restored: a replacement follower was provisioned.
        assert len(group.live_followers()) == 2
        assert victim not in group.pools()

    def test_followers_serve_degraded_reads_during_the_window(self, config):
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        failover_detection_delay=50.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        cluster.fail_pool(group.primary_pool, time=kernel.now)
        before = cluster.stats.follower_reads
        handles = [cluster.invoke_read("k") for _ in range(4)]
        cluster.run_until_idle()
        for handle in handles:
            assert cluster.result(handle).value == b"v1"
        assert cluster.stats.follower_reads == before + 4
        assert group.status == NORMAL  # failover completed afterwards

    def test_catch_up_applies_unreplicated_acked_writes(self, config):
        simulation = ClusterSimulation(
            config, [f"pool-{i}" for i in range(4)], seed=5,
            replication=ReplicationConfig(r=3, replication_lag=1000.0,
                                          failover_detection_delay=5.0,
                                          catch_up_per_record=2.0),
            read_policy="primary",
        )
        for value in (b"v1", b"v2"):
            handle = simulation.invoke_write("k", value, session="s")
            simulation.flush_key("k")
            simulation.run(until=simulation.kernel.now + 40.0)
            assert simulation.result(handle) is not None
        group = simulation.replicas.groups["k"]
        victim = group.primary_pool
        # No apply event has fired (lag 1000), yet both writes were acked.
        assert all(s.version == (0, INITIAL_TAG) for s in group.live_followers())
        simulation.fail_pool(victim, time=simulation.kernel.now)
        read = simulation.invoke_read("k", session="s2")
        simulation.run_until_idle()
        assert simulation.replicas.stats.catch_up_records == 2
        assert simulation.result(read).value == b"v2"
        assert simulation.audit().ok

    def test_dead_pool_is_not_falsely_recovered_by_repair(self, config):
        cluster, kernel = build_cluster(config, policy="primary",
                                        failover_detection_delay=10.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        victim = self._primary_pool(cluster, "k")
        cluster.fail_pool(victim, time=kernel.now)
        cluster.run_until_idle()
        for node in cluster.membership.pool_nodes(victim):
            assert node.status == FAILED
        assert not cluster.membership.pool_alive(victim)

    def test_read_in_flight_at_a_killed_follower_never_completes(self, config):
        # Crash semantics match the primary's: a dead pool answers nothing,
        # so a follower read caught mid-flight strands as incomplete
        # instead of being served ~a latency after the pool died.
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        follower_read_latency=50.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        # Reads 1-3: primary, follower A, follower B (round robin).
        cluster.read("k")
        h_a = cluster.invoke_read("k")
        pool_a = group.live_followers()[0].pool
        cluster.fail_pool(pool_a, time=kernel.now)
        cluster.run_until_idle()
        assert cluster.result(h_a) is None
        assert cluster.incomplete_operations() >= 1
        stranded = [op for op in cluster.history()
                    if op.client_id.startswith(f"replica:{pool_a}")
                    and not op.is_complete]
        assert len(stranded) == 1
        # The routing counter still records the dispatch.
        assert cluster.stats.reads_by_replica[pool_a] == 1

    def test_losing_a_follower_pool_reprovisions_elsewhere(self, config):
        cluster, kernel = build_cluster(config, r=2, policy="round-robin",
                                        provision_delay=5.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        follower_pool = group.live_followers()[0].pool
        cluster.fail_pool(follower_pool, time=kernel.now)
        assert group.status == NORMAL  # only a follower died
        cluster.run_until_idle()
        stores = group.live_followers()
        assert len(stores) == 1
        assert stores[0].pool not in (follower_pool, group.primary_pool)
        assert stores[0].value == b"v1"
        assert cluster.replicas.stats.followers_lost == 1
        assert cluster.replicas.stats.followers_provisioned == 1

    def test_pool_recovery_refills_an_unmet_redundancy_deficit(self, config):
        # With no spare pool, a lost follower cannot be replaced; when the
        # dead pool comes back, provisioning must re-trigger on its own.
        cluster, kernel = build_cluster(config, r=3, pools=3,
                                        policy="primary", provision_delay=5.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        victim = group.live_followers()[0].pool
        cluster.fail_pool(victim, time=kernel.now)
        cluster.run_until_idle()
        assert len(group.live_followers()) == 1  # no spare pool to use
        for node in cluster.membership.pool_nodes(victim):
            cluster.membership.recover(node.node_id, time=kernel.now)
        cluster.run_until_idle()
        assert len(group.live_followers()) == 2
        assert {s.pool for s in group.live_followers()} >= {victim}

    def test_unserviceable_when_every_replica_pool_is_dead(self, config):
        cluster, kernel = build_cluster(config, r=2, pools=2,
                                        policy="primary", sanitize=True,
                                        failover_detection_delay=5.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        follower_pool = group.live_followers()[0].pool
        cluster.fail_pool(follower_pool, time=kernel.now)
        cluster.fail_pool(group.primary_pool, time=kernel.now)
        read = cluster.invoke_read("k")
        cluster.run_until_idle()  # the deferred read strands, no leak
        assert group.status == UNSERVICEABLE
        assert cluster.kernel.sanitizer.ok
        assert cluster.result(read) is None
        assert cluster.incomplete_operations() >= 1
        # A stranded read pins no live-audit watermark, and the history
        # holds it without a response.
        assert cluster.replicas.pending_read_invocations() == []
        stranded = [op for op in cluster.history()
                    if op.kind == READ and not op.is_complete]
        assert len(stranded) == 1
        # A read arriving at the unserviceable group strands at once.
        late = cluster.invoke_read("k")
        assert cluster.replicas.pending_read_invocations() == []
        cluster.run_until_idle()
        assert cluster.result(late) is None
        assert cluster.replicas.incomplete_reads() == 2

    def test_a_write_queued_at_an_unserviceable_group_is_incomplete(
            self, config):
        cluster, kernel = build_cluster(config, r=2, pools=3,
                                        policy="primary")
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        cluster.fail_pool(group.primary_pool, time=kernel.now)
        cluster.fail_pool(group.live_followers()[0].pool, time=kernel.now)
        write = cluster.invoke_write("k", b"v2")
        cluster.run_until_idle()
        assert group.status == UNSERVICEABLE
        assert cluster.result(write) is None
        assert cluster.incomplete_operations() == 1

    def test_successor_pool_dying_during_catch_up_repromotes(self, config):
        # The successor is chosen at detection time but only seated after
        # the catch-up delay; if its own pool dies inside that window the
        # promotion must fall through to the next live follower instead of
        # seating a primary on a dead pool.
        simulation = ClusterSimulation(
            config, [f"pool-{i}" for i in range(4)], seed=5,
            replication=ReplicationConfig(r=3, replication_lag=1000.0,
                                          failover_detection_delay=5.0,
                                          catch_up_per_record=5.0),
            read_policy="primary",
        )
        for value in (b"v1", b"v2"):
            handle = simulation.invoke_write("k", value, session="s")
            simulation.flush_key("k")
            simulation.run(until=simulation.kernel.now + 40.0)
            assert simulation.result(handle) is not None
        group = simulation.replicas.groups["k"]
        first, second = [s.pool for s in group.live_followers()]
        kill_at = simulation.kernel.now
        simulation.fail_pool(group.primary_pool, time=kill_at)
        # Promotion starts at kill+5 and seats at kill+15 (2 records x 5);
        # the chosen successor's pool dies in between.
        simulation.run(until=kill_at + 8.0)
        simulation.fail_pool(first, time=simulation.kernel.now)
        write = simulation.invoke_write("k", b"v3", session="s")
        simulation.run_until_idle()
        assert group.status == NORMAL
        assert group.primary_pool == second
        assert simulation.result(write).value == b"v3"
        assert simulation.audit().ok

    def test_provision_target_dying_in_the_delay_retries_elsewhere(self, config):
        cluster, kernel = build_cluster(config, r=2, policy="primary",
                                        provision_delay=20.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        follower_pool = group.live_followers()[0].pool
        # The replacement target the coordinator will pick first.
        preference = cluster.membership.ring.nodes_for("k", 4)
        cluster.fail_pool(follower_pool, time=kernel.now)
        target = next(pool for pool in preference
                      if pool not in (group.primary_pool, follower_pool))
        # Kill the chosen target before the provisioning delay elapses.
        cluster.fail_pool(target, time=kernel.now)
        cluster.run_until_idle()
        stores = group.live_followers()
        assert len(stores) == 1, "the group must not stay under-replicated"
        assert stores[0].pool not in (follower_pool, target,
                                      group.primary_pool)

    def test_lazy_group_does_not_seed_followers_on_dead_pools(self, config):
        cluster, kernel = build_cluster(config, r=3, policy="round-robin",
                                        provision_delay=5.0)
        # Keep pool-0 populated so the kill sticks, then find a fresh key
        # whose ring replica set includes pool-0 as a *follower*.
        anchor = next(f"seed-{i}" for i in range(64)
                      if cluster.membership.pool_for(f"seed-{i}") == "pool-0")
        cluster.write(anchor, b"x")
        cluster.run_until_idle()
        ring = cluster.membership.ring
        key = next(f"lazy-{i}" for i in range(256)
                   if "pool-0" in ring.nodes_for(f"lazy-{i}", 3)[1:])
        cluster.fail_pool("pool-0", time=kernel.now)
        cluster.write(key, b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups[key]
        assert "pool-0" not in group.pools()
        # Redundancy was filled from live pools instead.
        assert len(group.live_followers()) == 2
        for _ in range(6):
            cluster.read(key)
        assert "pool-0" not in {
            pool for pool in cluster.stats.reads_by_replica
            if pool in group.pools()
        } or cluster.stats.reads_by_replica.get("pool-0", 0) == 0

    def test_rebalance_skips_keys_owned_by_the_failover_path(self, config):
        # add_pool right after a pool kill: migrating a dead-pool primary
        # would drain it with a copy read that can never complete; those
        # keys belong to the failover path and must be skipped.
        cluster, kernel = build_cluster(config, r=3, policy="primary",
                                        failover_detection_delay=10.0)
        for i in range(8):
            cluster.write(f"obj-{i}", f"v{i}".encode())
        cluster.run_until_idle()
        victims = [k for k, g in cluster.replicas.groups.items()
                   if g.primary_pool == "pool-0"]
        assert victims
        cluster.fail_pool("pool-0", time=kernel.now)
        cluster.add_pool("pool-9", time=kernel.now)  # must not raise
        cluster.run_until_idle()
        for key in victims:
            group = cluster.replicas.groups[key]
            assert group.status == NORMAL
            assert group.primary_pool != "pool-0"
        for i in range(8):
            assert cluster.read(f"obj-{i}").value == f"v{i}".encode()
        cluster.run_until_idle()
        assert cluster.check_atomicity() is None
        assert check_sessions(cluster.history()).ok

    def test_rebalance_after_failover_avoids_the_dead_pool(self, config):
        # The ring still lists a killed pool (failures do not change
        # placement); planning against the raw ring walk would migrate a
        # promoted primary straight back onto it.  Desired placements must
        # be liveness-filtered.
        cluster, kernel = build_cluster(config, r=2, pools=3,
                                        policy="primary",
                                        failover_detection_delay=5.0,
                                        provision_delay=5.0)
        for i in range(8):
            cluster.write(f"obj-{i}", f"v{i}".encode())
        cluster.run_until_idle()
        cluster.fail_pool("pool-1", time=kernel.now)
        cluster.run_until_idle()  # failovers complete, groups NORMAL again
        cluster.add_pool("pool-3", time=kernel.now)
        cluster.run_until_idle()
        for key, group in cluster.replicas.groups.items():
            assert "pool-1" not in group.pools(), (key, group.pools())
            assert group.status == NORMAL
        for i in range(8):
            assert cluster.read(f"obj-{i}").value == f"v{i}".encode()
        cluster.run_until_idle()
        assert cluster.check_atomicity() is None

    def test_multi_pool_deficit_is_fully_reprovisioned(self, config):
        # A group missing two followers (two dead pools in its ring set)
        # must fill the whole deficit, not just one slot per trigger.
        cluster, kernel = build_cluster(config, r=4, pools=6,
                                        policy="primary",
                                        provision_delay=5.0)
        ring = cluster.membership.ring
        dead = {"pool-4", "pool-5"}
        key = next(
            f"multi-{i}" for i in range(512)
            if ring.nodes_for(f"multi-{i}", 4)[0] not in dead
            and len(set(ring.nodes_for(f"multi-{i}", 4)[1:]) & dead) >= 2
        )
        for pool in sorted(dead):
            cluster.fail_pool(pool, time=kernel.now)
        cluster.write(key, b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups[key]
        assert group.status == NORMAL
        assert len(group.live_followers()) == 3, group.pools()
        assert not set(group.pools()) & dead

    def test_remove_pool_during_detection_does_not_strand_groups(self, config):
        # Draining the dead pool out of the ring while its groups are
        # still failing over must not drop the caught-up follower the
        # promotion needs (the rebalance plan assumed a primary move that
        # the frozen-key guard skipped).
        cluster, kernel = build_cluster(config, r=2, pools=3,
                                        policy="primary",
                                        failover_detection_delay=30.0,
                                        provision_delay=25.0)
        for i in range(8):
            cluster.write(f"obj-{i}", f"v{i}".encode())
        cluster.run_until_idle()
        victims = [k for k, g in cluster.replicas.groups.items()
                   if g.primary_pool == "pool-0"]
        assert victims
        cluster.fail_pool("pool-0", time=kernel.now)
        cluster.remove_pool("pool-0", time=kernel.now)
        cluster.run_until_idle()
        for key in victims:
            group = cluster.replicas.groups[key]
            assert group.status == NORMAL, f"{key} stranded: {group.status}"
            assert group.primary_pool != "pool-0"
        for i in range(8):
            assert cluster.read(f"obj-{i}").value == f"v{i}".encode()

    def test_degraded_reads_stay_stale_until_catch_up_completes(self, config):
        # Catch-up is counted at detection time but applied at seat time:
        # a degraded read inside the window must still see the follower's
        # genuinely stale state.
        simulation = ClusterSimulation(
            config, [f"pool-{i}" for i in range(4)], seed=5,
            replication=ReplicationConfig(r=3, replication_lag=1000.0,
                                          failover_detection_delay=5.0,
                                          catch_up_per_record=10.0),
            read_policy="round-robin",
        )
        for value in (b"v1", b"v2"):
            handle = simulation.invoke_write("k", value, session="s")
            simulation.flush_key("k")
            simulation.run(until=simulation.kernel.now + 40.0)
            assert simulation.result(handle) is not None
        group = simulation.replicas.groups["k"]
        kill_at = simulation.kernel.now
        simulation.fail_pool(group.primary_pool, time=kill_at)
        # Promotion starts at kill+5 and seats at kill+25 (2 records x 10);
        # a fresh-session read in between is served by a follower that has
        # applied nothing yet.
        degraded = simulation.invoke_read("k", session="fresh")
        simulation.run(until=kill_at + 15.0)
        result = simulation.result(degraded)
        assert result is not None
        assert result.tag == INITIAL_TAG, "catch-up must not leak early"
        simulation.run_until_idle()
        assert simulation.replicas.stats.catch_up_records == 2
        assert simulation.audit().ok

    def test_lazy_shard_on_a_dead_pool_fails_over_immediately(self, config):
        cluster, kernel = build_cluster(config, policy="primary",
                                        failover_detection_delay=5.0)
        # A sacrificial shard keeps pool-0 populated, then the pool dies;
        # a key touched for the *first time* afterwards must not start its
        # life frozen on the dead pool.
        keys = [f"fresh-{i}" for i in range(64)
                if cluster.membership.pool_for(f"fresh-{i}") == "pool-0"]
        sacrificial, key = keys[0], keys[1]
        cluster.write(sacrificial, b"seed")
        cluster.run_until_idle()
        cluster.fail_pool("pool-0", time=kernel.now)
        write = cluster.invoke_write(key, b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups[key]
        assert group.status == NORMAL
        assert group.primary_pool != "pool-0"
        assert cluster.result(write).value == b"v1"


class TestReplicaAwareRebalance:
    def test_join_realigns_replica_sets_with_the_ring(self, config):
        cluster, _ = build_cluster(config, r=2, pools=3,
                                   policy="round-robin", provision_delay=2.0)
        for i in range(10):
            cluster.write(f"obj-{i}", b"x")
        cluster.run_until_idle()
        plan = cluster.add_pool("pool-3", time=0.0)
        assert plan.moves or plan.follower_changes
        cluster.run_until_idle()
        ring = cluster.membership.ring
        for key, group in cluster.replicas.groups.items():
            assert group.pools() == ring.nodes_for(key, 2)
        assert cluster.check_atomicity() is None

    def test_primary_migration_bumps_the_replicated_epoch(self, config):
        cluster, _ = build_cluster(config, r=2, pools=3,
                                   policy="primary", provision_delay=2.0)
        for i in range(10):
            cluster.write(f"obj-{i}", b"x")
        cluster.run_until_idle()
        # Removing a pool migrates its primaries; their groups must adopt
        # the new epoch and replicate the carried snapshot.
        moved = [key for key, group in cluster.replicas.groups.items()
                 if group.primary_pool == "pool-0"]
        assert moved
        cluster.remove_pool("pool-0", time=0.0)
        cluster.run_until_idle()
        for key in moved:
            group = cluster.replicas.groups[key]
            assert group.primary_pool != "pool-0"
            assert group.epoch >= 1
            for store in group.live_followers():
                assert store.pool != "pool-0"
                assert store.version[0] == group.epoch
        assert cluster.check_atomicity() is None


class TestQuorumReads:
    def test_quorum_merge_returns_the_max_version(self, config):
        cluster, _ = build_cluster(config, policy="quorum",
                                   replication_lag=500.0, read_quorum=2)
        cluster.write("obj-0", b"v1")
        result = cluster.write("obj-0", b"v2")
        # The first quorum window is [primary, follower-1]: no follower has
        # applied anything, so the primary's committed log head must win.
        read = cluster.read("obj-0")
        assert read.value == b"v2"
        assert read.tag == result.tag
        stats = cluster.stats
        assert stats.quorum_reads == 1
        assert stats.quorum_depths == {2: 1}

    def test_read_repair_catches_observed_stores_up_immediately(self, config):
        cluster, kernel = build_cluster(config, policy="quorum",
                                        replication_lag=900.0, read_quorum=2)
        cluster.write("obj-0", b"v1")
        group = cluster.replicas.groups["obj-0"]
        before = cluster.replicas.replication_cost
        cluster.read("obj-0")
        # The merge saw a stale follower and repaired it from the log now,
        # ~900 time units before the lag fan-out would have.
        assert kernel.now < 900.0
        repaired = [s for s in group.live_followers()
                    if s.version == group.latest_version]
        assert len(repaired) == 1
        assert repaired[0].value == b"v1"
        stats = cluster.stats
        assert stats.read_repairs == 1
        assert cluster.replicas.stats.read_repair_records == 1
        assert cluster.replicas.replication_cost == before + 1.0

    def test_unobserved_followers_are_not_repaired(self, config):
        # Only quorum members are caught up; anti-entropy between
        # followers that never met in a quorum is explicitly out of scope.
        cluster, _ = build_cluster(config, policy="quorum",
                                   replication_lag=900.0, read_quorum=2)
        cluster.write("obj-0", b"v1")
        cluster.read("obj-0")
        group = cluster.replicas.groups["obj-0"]
        stale = [s for s in group.live_followers()
                 if s.version == (0, INITIAL_TAG)]
        assert len(stale) == 1

    def test_disabling_read_repair_leaves_catch_up_to_the_lag(self, config):
        cluster, kernel = build_cluster(config, policy="quorum",
                                        replication_lag=900.0, read_quorum=2,
                                        read_repair=False)
        cluster.write("obj-0", b"v1")
        cluster.read("obj-0")
        group = cluster.replicas.groups["obj-0"]
        assert kernel.now < 900.0
        assert all(s.version == (0, INITIAL_TAG)
                   for s in group.live_followers())
        assert cluster.stats.read_repairs == 0
        cluster.run_until_idle()  # the lag fan-out eventually applies
        assert all(s.value == b"v1" for s in group.live_followers())

    def test_follower_only_window_falls_back_on_the_session_floor(self, config):
        cluster, kernel = build_cluster(config, policy="quorum",
                                        replication_lag=900.0, read_quorum=2,
                                        read_repair=False)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        written = cluster.result(write)
        # Windows rotate [P,F1], [F1,F2], [F2,P]: the second sessioned read
        # merges a follower-only quorum below the session's floor and must
        # fall back to a protocol read at the primary.
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(2)]
        cluster.run_until_idle()
        for handle in handles:
            assert cluster.result(handle).tag == written.tag
        stats = cluster.stats
        assert stats.session_fallbacks == 1
        assert cluster.incomplete_operations() == 0
        assert check_sessions(cluster.history()).ok

    def test_guardless_stale_quorum_is_caught_by_the_auditor(self, config):
        cluster, kernel = build_cluster(config, policy="quorum",
                                        replication_lag=900.0, read_quorum=1,
                                        read_repair=False,
                                        session_guard=False)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(2)]
        cluster.run_until_idle()
        del handles
        report = check_sessions(cluster.history())
        assert not report.ok
        assert any(v.guarantee in ("read-your-writes", "monotonic-reads")
                   for v in report.violations)
        assert cluster.check_atomicity() is None

    def test_quorum_degrades_when_a_member_dies_mid_flight(self, config):
        cluster, kernel = build_cluster(config, policy="quorum",
                                        read_quorum=2,
                                        follower_read_latency=50.0)
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        handle = cluster.invoke_read("obj-0")
        # The window was [primary, follower-1]; kill the follower's pool
        # while its leg is still in flight.
        victim = group.live_followers()[0].pool
        cluster.fail_pool(victim, time=kernel.now)
        cluster.run_until_idle()
        result = cluster.result(handle)
        assert result is not None, "the quorum read must degrade, not hang"
        assert result.value == b"v1"
        assert cluster.stats.quorum_depths.get(1) == 1
        assert cluster.replicas.incomplete_reads() == 0

    def test_quorum_with_every_member_dead_strands_truthfully(self, config):
        cluster, kernel = build_cluster(config, r=2, pools=2, policy="quorum",
                                        read_quorum=2,
                                        follower_read_latency=50.0,
                                        failover_detection_delay=5.0)
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        handle = cluster.invoke_read("obj-0")
        follower_pool = group.live_followers()[0].pool
        cluster.fail_pool(follower_pool, time=kernel.now)
        cluster.fail_pool(group.primary_pool, time=kernel.now)
        cluster.run_until_idle()  # must terminate: the merge resolves empty
        assert group.status == UNSERVICEABLE
        assert cluster.result(handle) is None
        assert cluster.replicas.incomplete_reads() == 1
        stranded = [op for op in cluster.history()
                    if op.client_id.startswith("replica:quorum")
                    and not op.is_complete]
        assert len(stranded) == 1

    def test_read_quorum_requires_the_quorum_policy(self, config):
        with pytest.raises(ValueError, match="read_quorum"):
            build_cluster(config, policy="round-robin", read_quorum=2)

    def test_read_quorum_must_stay_within_r(self):
        with pytest.raises(ValueError, match="read_quorum"):
            ReplicationConfig(r=3, read_quorum=4)
        with pytest.raises(ValueError, match="read_quorum"):
            ReplicationConfig(r=3, read_quorum=0)

    def test_read_quorum_defaults_to_a_majority(self, config):
        cluster, _ = build_cluster(config, r=3, policy="quorum")
        assert cluster.replicas.read_quorum == 2


class TestWriteForwarding:
    def test_via_follower_forwards_to_the_primary(self, config):
        cluster, kernel = build_cluster(config, policy="primary",
                                        forward_latency=5.0)
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        follower_pool = group.live_followers()[0].pool
        started = kernel.now
        handle = cluster.invoke_write("obj-0", b"v2",
                                      via=follower_pool)
        assert cluster.incomplete_operations() >= 1  # hop in flight
        cluster.run_until_idle()
        result = cluster.result(handle)
        assert result.value == b"v2"
        # The forwarding hop is charged on the kernel clock before the
        # primary even sees the write.
        assert result.invoked_at >= started + 5.0 * 0.5  # distance >= 0.5
        assert cluster.stats.forwarded_writes == 1
        assert cluster.read("obj-0").value == b"v2"

    def test_via_primary_queues_directly(self, config):
        cluster, _ = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        handle = cluster.invoke_write("obj-0", b"v2",
                                      via=group.primary_pool)
        cluster.run_until_idle()
        assert cluster.result(handle).value == b"v2"
        assert cluster.stats.forwarded_writes == 0

    def test_nearest_ingress_forwards_follower_arrivals(self, config):
        cluster, _ = build_cluster(config, policy="primary",
                                   write_ingress="nearest")
        # Across enough keys, some nearest replica is a follower.
        for i in range(8):
            cluster.write(f"obj-{i}", b"x")
        cluster.run_until_idle()
        stats = cluster.stats
        assert stats.forwarded_writes > 0
        for i in range(8):
            assert cluster.read(f"obj-{i}").value == b"x"
        assert cluster.check_atomicity() is None

    def test_forwarded_write_rides_the_freeze_into_the_new_epoch(self, config):
        cluster, kernel = build_cluster(config, policy="primary",
                                        failover_detection_delay=20.0,
                                        forward_latency=2.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        follower_pool = group.live_followers()[0].pool
        cluster.fail_pool(group.primary_pool, time=kernel.now)
        assert group.status == FAILING_OVER
        handle = cluster.invoke_write("k", b"v2", via=follower_pool,
                                      session="w")
        cluster.run_until_idle()
        assert group.status == NORMAL
        assert group.epoch == 1
        result = cluster.result(handle)
        assert result is not None and result.value == b"v2"
        assert cluster.stats.forwarded_writes == 1
        assert cluster.read("k").value == b"v2"
        assert cluster.check_atomicity() is None
        assert check_sessions(cluster.history()).ok


class _StickyPolicy(ReadRoutingPolicy):
    """Always returns its first follower choice -- even after the pool
    retires, modelling a policy with a stale replica cache."""

    name = "sticky"

    def __init__(self) -> None:
        self.pinned = None

    def choose(self, key, candidates):
        if self.pinned is None:
            followers = [v for v in candidates if not v.is_primary]
            self.pinned = followers[0].pool if followers else None
        return self.pinned


class TestRoutingFallbackAccounting:
    def test_late_arrivals_are_clamped_on_both_read_paths(self, config):
        # A nominal time already in the past must dispatch at the clock on
        # the primary path exactly like on the follower path -- and must
        # not ratchet the whole shard batch forward with it.
        cluster, kernel = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        t = kernel.now
        late = cluster.invoke_read("obj-0", at=t - 100.0)
        future = cluster.invoke_read("obj-0", at=t + 200.0)
        cluster.run_until_idle()
        assert cluster.result(late) is not None
        assert cluster.result(future) is not None
        history = cluster.history()
        invoked = sorted(op.invoked_at for op in history if op.kind == READ)
        assert len(invoked) == 2
        # The late read is clamped to ~t; the future read keeps its
        # nominal time instead of being dragged 100 units forward by the
        # batch ratchet the raw past timestamp used to trigger.
        assert invoked[0] == pytest.approx(t)
        assert invoked[1] == pytest.approx(t + 200.0)

    def test_retired_choice_falls_back_visibly(self, config):
        policy = _StickyPolicy()
        cluster, kernel = build_cluster(config, r=3, policy=policy,
                                        provision_delay=500.0)
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        assert cluster.read("obj-0").value == b"v1"  # pins a follower
        pinned = policy.pinned
        assert pinned is not None
        cluster.fail_pool(pinned, time=kernel.now)
        assert group.follower(pinned) is None
        # The sticky policy still names the dead pool: the read must fall
        # back to the primary and be counted as a *retired* fallback,
        # distinct from the session-guard counter.
        assert cluster.read("obj-0").value == b"v1"
        stats = cluster.stats
        assert stats.retired_fallbacks == 1
        assert stats.session_fallbacks == 0
        assert stats.primary_reads == 1

    def test_both_fallback_kinds_are_counted_apart(self, config):
        # Session-guard fallbacks keep their own counter next to the new
        # retired-fallback counter.
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        replication_lag=900.0)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(3)]
        cluster.run_until_idle()
        del handles
        stats = cluster.stats
        assert stats.session_fallbacks >= 1
        assert stats.retired_fallbacks == 0

    def test_round_robin_gives_a_rejected_turn_back(self):
        policy = RoundRobinPolicy()
        views = [ReplicaView(pool=f"pool-{i}", is_primary=(i == 0),
                             distance=1.0, reads_in_flight=0,
                             reads_served=0, order=i) for i in range(3)]
        assert policy.choose("k", views) == "pool-0"
        choice = policy.choose("k", views)
        assert choice == "pool-1"
        policy.rejected("k", choice)
        # The lagging replica keeps its place in the cycle.
        assert policy.choose("k", views) == "pool-1"
        assert policy.choose("k", views) == "pool-2"

    def test_round_robin_cycle_stays_fair_across_guard_rejections(self, config):
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        replication_lag=200.0)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        # Both follower turns are rejected by the guard while the lag
        # holds (and re-offered, not consumed): reads 1-3 all hit the
        # primary, with the cycle parked on the first follower.
        stalled = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(3)]
        cluster.run_until_idle()  # runs past the lag: followers catch up
        for handle in stalled:
            assert cluster.result(handle) is not None
        fallbacks = cluster.stats.session_fallbacks
        assert fallbacks >= 2
        # Post-catch-up, the cycle resumes exactly where it was parked and
        # serves every replica its fair share: 3 reads -> one each.
        group = cluster.replicas.groups["obj-0"]
        before = dict(cluster.stats.reads_by_replica)
        for i in range(3):
            assert cluster.read("obj-0", reader=0).value == b"v1"
        after = cluster.stats.reads_by_replica
        gained = {pool: after.get(pool, 0) - before.get(pool, 0)
                  for pool in group.pools()}
        assert sorted(gained.values()) == [1, 1, 1], gained
        assert cluster.stats.session_fallbacks == fallbacks


class TestStrandedReadAccounting:
    def test_stranded_follower_read_is_reported_and_idle_detection_holds(
            self, config):
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        follower_read_latency=50.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        cluster.read("k")  # round robin: primary first
        handle = cluster.invoke_read("k")  # then follower A
        pool_a = group.live_followers()[0].pool
        cluster.fail_pool(pool_a, time=kernel.now)
        # The kill must not wedge the kernel: the pump drains everything
        # else and goes idle with the read still pending.
        cluster.run_until_idle()
        assert cluster.replicas.incomplete_reads() == 1
        assert cluster.result(handle) is None
        assert cluster.incomplete_operations() >= 1
        # Idle detection is stable: pumping again is an immediate no-op.
        now = kernel.now
        cluster.run_until_idle()
        assert kernel.now == now
        assert cluster.replicas.incomplete_reads() == 1


class TestReviewRegressions:
    def test_quorum_fallback_counts_the_logical_read_once(self, config):
        # A quorum read whose merge falls back to the primary must not
        # inflate routed_reads by landing in both quorum_reads and
        # primary_reads.
        cluster, kernel = build_cluster(config, policy="quorum",
                                        replication_lag=900.0, read_quorum=2,
                                        read_repair=False)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(3)]
        cluster.run_until_idle()
        for handle in handles:
            assert cluster.result(handle) is not None
        stats = cluster.stats
        assert stats.session_fallbacks == 1
        assert stats.quorum_reads == 3
        assert stats.primary_reads == 0  # the fallback stays a quorum read
        assert stats.routed_reads == 3

    def test_via_must_name_a_group_member(self, config):
        cluster, _ = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        with pytest.raises(ValueError, match="no replica"):
            cluster.invoke_write("obj-0", b"v2", via="pool-nope")
        assert cluster.stats.forwarded_writes == 0

    def test_via_requires_replica_groups(self, config):
        cluster = ClusterSimulation(config, ["pool-0", "pool-1"])
        with pytest.raises(ValueError, match="replica groups"):
            cluster.invoke_write("obj-0", b"v1", via="pool-1")

    def test_primary_leg_survives_a_benign_mid_flight_migration(self, config):
        # A rebalance moving the primary while a quorum leg is in flight
        # is not a crash: the queried pool is alive and its answer (the
        # committed head, which only grows) must stand instead of the
        # read stranding incomplete.
        cluster, _ = build_cluster(config, r=2, pools=3, policy="quorum",
                                   read_quorum=1,
                                   follower_read_latency=50.0)
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        handle = cluster.invoke_read("obj-0")  # leg at the primary
        old_primary = group.primary_pool
        cluster.remove_pool(old_primary, time=0.0)  # migrates mid-flight
        cluster.run_until_idle()
        assert group.primary_pool != old_primary
        result = cluster.result(handle)
        assert result is not None, "a migration must not strand the leg"
        assert result.value == b"v1"
        assert cluster.replicas.incomplete_reads() == 0

    def test_primary_ingress_write_clamps_late_nominal_times(self, config):
        # A coordinator-routed write arriving at the primary with a past
        # nominal time is clamped exactly like the forwarded path, so a
        # co-batched future operation keeps its nominal timestamp.
        cluster, kernel = build_cluster(config, policy="primary")
        cluster.write("obj-0", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["obj-0"]
        t = kernel.now
        late = cluster.invoke_write("obj-0", b"v2",
                                    via=group.primary_pool,
                                    at=t - 100.0)
        future = cluster.invoke_read("obj-0", at=t + 200.0)
        cluster.run_until_idle()
        assert cluster.result(late).value == b"v2"
        history = cluster.history()
        read_at = [op.invoked_at for op in history if op.kind == READ]
        assert read_at == [pytest.approx(t + 200.0)]
        del future

    def test_crashed_then_recovered_primary_leg_stays_silent(self, config):
        # A primary pool that dies mid-leg and recovers before the leg's
        # completion event fires must not fabricate an answer: recovery
        # cannot un-lose the in-flight request.
        cluster, kernel = build_cluster(config, policy="quorum",
                                        read_quorum=1,
                                        follower_read_latency=50.0,
                                        failover_detection_delay=5.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        handle = cluster.invoke_read("k")  # window = [primary]
        victim = group.primary_pool
        cluster.fail_pool(victim, time=kernel.now)
        for node in cluster.membership.pool_nodes(victim):
            cluster.membership.recover(node.node_id, time=kernel.now)
        cluster.run_until_idle()
        assert cluster.result(handle) is None
        assert cluster.replicas.incomplete_reads() == 1
        stranded = [op for op in cluster.history()
                    if op.client_id.startswith("replica:quorum")
                    and not op.is_complete]
        assert len(stranded) == 1

    def test_gracefully_dropped_follower_leg_still_answers(self, config):
        # A rebalance retiring a follower mid-flight is not a crash: the
        # store served until the drop and its in-flight answers stand, on
        # both the single-store path and the quorum leg path.
        for policy, quorum in (("round-robin", None), ("quorum", 1)):
            kwargs = {"follower_read_latency": 50.0}
            if quorum is not None:
                kwargs["read_quorum"] = quorum
            cluster, _ = build_cluster(config, r=2, pools=3, policy=policy,
                                       **kwargs)
            cluster.write("obj-0", b"v1")
            cluster.run_until_idle()
            group = cluster.replicas.groups["obj-0"]
            cluster.read("obj-0")  # tick the cycle onto the follower
            handle = cluster.invoke_read("obj-0")
            follower_pool = group.live_followers()[0].pool
            cluster.remove_pool(follower_pool, time=0.0)  # graceful
            cluster.run_until_idle()
            result = cluster.result(handle)
            assert result is not None, (policy, "graceful drop must answer")
            assert result.value == b"v1"
            assert cluster.replicas.incomplete_reads() == 0

    def test_a_lagging_follower_does_not_starve_its_healthy_peer(self, config):
        # The reviewer's starvation case: one follower lags the session
        # floor, the other is current.  Each rejected turn must pass to
        # the next candidate, so the healthy follower keeps serving
        # instead of every read collapsing onto the primary.
        cluster, kernel = build_cluster(config, policy="round-robin",
                                        replication_lag=10_000.0)
        write = cluster.invoke_write("obj-0", b"v1", session="s")
        cluster.flush()
        while cluster.result(write) is None:
            kernel.step()
        group = cluster.replicas.groups["obj-0"]
        lagging, healthy = group.live_followers()
        healthy.apply(group.log[-1])  # caught up; the other stays stale
        handles = [cluster.invoke_read("obj-0", session="s",
                                       at=kernel.now + 1.0 + 60.0 * i)
                   for i in range(6)]
        cluster.run_until_idle()
        for handle in handles:
            assert cluster.result(handle) is not None
        assert healthy.reads_served > 0, "healthy follower was starved"
        assert lagging.reads_served == 0
        stats = cluster.stats
        assert stats.follower_reads == healthy.reads_served
        assert check_sessions(cluster.history()).ok

    def test_the_quorum_pool_name_is_reserved(self, config):
        with pytest.raises(ValueError, match="reserved"):
            ClusterSimulation(config, ["quorum", "pool-1"],
                           replication=ReplicationConfig(r=2))
        with pytest.raises(ValueError, match="reserved"):
            ClusterSimulation(config, ["quorum/east", "pool-1"],
                           replication=ReplicationConfig(r=2))
        cluster, _ = build_cluster(config)
        with pytest.raises(ValueError, match="reserved"):
            cluster.add_pool("quorum")
        # Without replica groups there is no quorum client-id namespace
        # to collide with; the name stays usable.
        ClusterSimulation(config, ["quorum", "pool-1"])

    def test_primary_ingress_during_freeze_is_not_a_forward(self, config):
        # A write arriving *at the primary pool* never pays a forwarding
        # hop -- even mid-failover, where it queues at the frozen slot and
        # flushes into the promoted epoch.
        cluster, kernel = build_cluster(config, policy="primary",
                                        failover_detection_delay=20.0)
        cluster.write("k", b"v1")
        cluster.run_until_idle()
        group = cluster.replicas.groups["k"]
        victim = group.primary_pool
        cluster.fail_pool(victim, time=kernel.now)
        assert group.status == FAILING_OVER
        handle = cluster.invoke_write("k", b"v2", via=victim,
                                      session="w")
        cluster.run_until_idle()
        assert group.status == NORMAL
        assert cluster.result(handle).value == b"v2"
        assert cluster.stats.forwarded_writes == 0
