"""RepairScheduler rate limiting, retries and redundancy restoration."""

from __future__ import annotations

import pytest

from repro.cluster.membership import ALIVE, Membership
from repro.cluster.repair import DONE, RepairScheduler
from repro.cluster.router import ObjectRouter
from repro.core.config import LDSConfig
from repro.net.latency import FixedLatencyModel
from repro.sim import ClusterSimulation, GlobalScheduler

POOLS = ["pool-0", "pool-1"]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


def build_cluster(config, *, min_interval=5.0, max_concurrent=1,
                  detection_delay=1.0, num_keys=16):
    membership = Membership.for_pools(POOLS, n1=config.n1, n2=config.n2)
    router = ObjectRouter(
        config, membership, GlobalScheduler(),
        latency_factory=lambda pool, key: FixedLatencyModel(tau0=1, tau1=1, tau2=10),
    )
    scheduler = RepairScheduler(
        router, min_interval=min_interval, max_concurrent=max_concurrent,
        detection_delay=detection_delay,
    )
    for i in range(num_keys):
        router.write(f"obj-{i}", f"v{i}".encode())
    return router, scheduler


def test_failure_burst_is_rate_limited(config):
    router, scheduler = build_cluster(config, min_interval=5.0, max_concurrent=1)
    victims = router.shards_on_pool("pool-0")
    assert len(victims) >= 3, "need several shards on pool-0 for a meaningful burst"
    router.membership.fail("pool-0/l2-0", time=0.0)

    times = scheduler.scheduled_times()
    assert len(times) == len(victims)
    # With one slot and min_interval=5, consecutive repairs are >= 5 apart.
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= 5.0 - 1e-9
    # And nothing starts before the detection delay.
    assert times[0] >= 1.0


def test_concurrent_slots_raise_the_repair_rate(config):
    router, scheduler = build_cluster(config, min_interval=5.0, max_concurrent=2)
    victims = router.shards_on_pool("pool-0")
    router.membership.fail("pool-0/l2-0", time=0.0)
    times = scheduler.scheduled_times()
    assert len(times) == len(victims)
    # At most two repairs may start within any window shorter than 5 units.
    for index in range(len(times) - 2):
        assert times[index + 2] - times[index] >= 5.0 - 1e-9
    # But strictly more than one per window actually happens (both slots used).
    assert any(later - earlier < 5.0 for earlier, later in zip(times, times[1:]))


def test_repair_restores_full_redundancy_in_the_background(config):
    router, scheduler = build_cluster(config)
    victims = router.shards_on_pool("pool-0")
    router.membership.fail("pool-0/l2-0", time=0.0)
    for shard in victims:
        assert shard.system.alive_l2_count() == config.n2 - 1
    router.run_until_idle()
    assert scheduler.stats.repairs_completed == len(victims)
    assert scheduler.outstanding_repairs() == 0
    for shard in victims:
        assert shard.system.alive_l2_count() == config.n2
    # The scheduler reports the node healthy again once every shard is whole.
    assert router.membership.node("pool-0/l2-0").status == ALIVE
    # Repaired values are still readable and the execution stays atomic.
    for shard in victims:
        key = shard.key
        index = int(key.split("-")[1])
        assert router.read(key).value == f"v{index}".encode()
    assert router.check_atomicity() is None


def test_repair_reports_download_costs(config):
    router, scheduler = build_cluster(config, num_keys=8)
    victims = router.shards_on_pool("pool-0")
    router.membership.fail("pool-0/l2-0", time=0.0)
    router.run_until_idle()
    reports = scheduler.reports()
    assert len(reports) == len(victims)
    for _key, report in reports:
        assert report.repaired_index == 0
        # MBR repair downloads d * beta / B of the object per rebuild.
        assert report.download_fraction > 0
    assert scheduler.stats.total_download_fraction == pytest.approx(
        sum(report.download_fraction for _key, report in reports)
    )


def test_failure_with_no_shards_recovers_immediately(config):
    membership = Membership.for_pools(POOLS, n1=config.n1, n2=config.n2)
    router = ObjectRouter(config, membership, GlobalScheduler())
    RepairScheduler(router)
    membership.fail("pool-0/l2-0", time=0.0)
    assert membership.node("pool-0/l2-0").status == ALIVE


def test_shard_created_on_degraded_pool_gets_repaired(config):
    """A shard lazily created after the failure must not stay degraded."""
    router, scheduler = build_cluster(config, num_keys=4)
    router.membership.fail("pool-0/l2-0", time=0.0)
    late_key = next(k for k in (f"late-{i}" for i in range(100))
                    if router.membership.pool_for(k) == "pool-0")
    router.write(late_key, b"late arrival")
    router.run_until_idle()
    shard = router.shards[late_key]
    assert shard.system.alive_l2_count() == config.n2
    assert router.membership.node("pool-0/l2-0").status == ALIVE
    assert scheduler.outstanding_repairs() == 0
    assert router.read(late_key).value == b"late arrival"


def test_removing_a_pool_with_pending_repairs_does_not_crash(config):
    """recover() must tolerate nodes that left while repairs were in flight."""
    cluster = ClusterSimulation(config, ["pool-0", "pool-1"])
    for i in range(8):
        cluster.write(f"obj-{i}", f"v{i}".encode())
    victims = cluster.router.shards_on_pool("pool-0")
    assert victims
    cluster.fail_node("pool-0/l2-0", time=0.0)
    # Drain the pool before the scheduled repairs ran: the drain executes
    # them, and the last one must not try to recover a node that has left.
    cluster.remove_pool("pool-0")
    for i in range(8):
        assert cluster.read(f"obj-{i}").value == f"v{i}".encode()
    assert cluster.check_atomicity() is None


def test_tasks_complete_even_with_inflight_offloads(config):
    """A failure right after a burst of writes still converges via retries."""
    membership = Membership.for_pools(POOLS, n1=config.n1, n2=config.n2)
    router = ObjectRouter(
        config, membership, GlobalScheduler(),
        latency_factory=lambda pool, key: FixedLatencyModel(tau0=1, tau1=1, tau2=10),
    )
    scheduler = RepairScheduler(router, min_interval=2.0, detection_delay=0.5)
    handles = [router.invoke_write(f"obj-{i}", bytes([i + 1]) * 4)
               for i in range(6)]
    router.flush()  # invoked but nothing has executed yet
    membership.fail("pool-0/l2-1", time=0.0)
    router.run_until_idle()
    assert all(router.result(handle) is not None for handle in handles)
    assert all(task.status == DONE for task in scheduler.tasks)
    for shard in router.shards_on_pool("pool-0"):
        assert shard.system.alive_l2_count() == config.n2


def test_gave_up_dispatch_releases_slot_and_counts(config):
    """Regression: a dispatch-time give-up must neither book a rate-limiter
    slot (which would push every later repair out by min_interval) nor be
    dropped from the gave_up statistic -- which tells "moot" (nothing left
    to repair) from "failed" (abandoned while still degraded)."""
    from repro.cluster.repair import GAVE_UP, RepairTask

    router, scheduler = build_cluster(config, min_interval=50.0)
    ghost = RepairTask(key="no-such-key", node_id="pool-0/l2-0", l2_index=0,
                       ready_at=1.0)
    scheduler.tasks.append(ghost)
    scheduler.stats.tasks_created += 1
    scheduler._outstanding["pool-0/l2-0"] = 1
    scheduler._dispatch(ghost)
    assert ghost.status == GAVE_UP
    assert ghost.scheduled_at is None, "a never-run task must not hold a slot time"
    # Nothing was left to repair: that is "moot", not a failed repair.
    stats = scheduler.stats
    assert (stats.moot, stats.failed, stats.gave_up) == (1, 0, 1)
    # The slot was not consumed: the first real repair of the same node
    # still starts right after detection, not min_interval later.
    router.membership.fail("pool-0/l2-0", time=0.0)
    times = scheduler.scheduled_times()
    assert times and times[0] < 50.0
    # Abandoning repairs whose slots are still degraded is "failed".
    withheld = scheduler.withhold_node("pool-0/l2-0")
    assert withheld and all(task.status == GAVE_UP for task in withheld)
    assert (stats.moot, stats.failed) == (1, len(withheld))
    assert stats.gave_up == 1 + len(withheld)
