"""ClusterSimulation facade and keyed workload integration."""

from __future__ import annotations

import pytest

from repro import (
    ClusterSimulation,
    KeyedWorkloadRunner,
    LDSConfig,
    WorkloadGenerator,
    ZipfKeySampler,
)


@pytest.fixture
def cluster() -> ClusterSimulation:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    return ClusterSimulation(config, [f"pool-{i}" for i in range(3)])


def test_facade_drives_keyed_operations(cluster):
    cluster.write("obj-0", b"hello")
    assert cluster.read("obj-0").value == b"hello"
    assert cluster.communication_cost > 0
    assert "pools=3" in cluster.describe()


def test_zipf_workload_end_to_end(cluster):
    keys = [f"obj-{i}" for i in range(24)]
    generator = WorkloadGenerator(seed=3, client_spacing=60.0)
    workload = generator.zipf_keyed(keys, num_operations=80,
                                    write_fraction=0.5, duration=300.0, s=1.1)
    report = KeyedWorkloadRunner(cluster.router).run(workload)
    assert report.is_atomic
    assert report.incomplete_operations == 0
    assert report.write_latency.count + report.read_latency.count == 80
    assert report.total_communication_cost > 0
    assert cluster.router.stats.operations_flushed == 80


def test_zipf_sampler_skews_toward_low_ranks():
    keys = [f"obj-{i}" for i in range(50)]
    sampler = ZipfKeySampler(keys, s=1.4, seed=5)
    counts = sampler.frequencies(4000)
    top = counts["obj-0"]
    tail = sum(counts[f"obj-{i}"] for i in range(40, 50)) / 10
    assert top > 8 * max(tail, 1)


def test_keyed_runner_rejects_keyless_operations(cluster):
    generator = WorkloadGenerator(seed=1)
    workload = generator.sequential(num_writes=1, num_reads=1)
    with pytest.raises(ValueError, match="must carry one"):
        KeyedWorkloadRunner(cluster.router).run(workload)


def test_failure_and_pool_growth_scenario(cluster):
    config = cluster.config
    keys = [f"obj-{i}" for i in range(18)]
    for index, key in enumerate(keys):
        cluster.write(key, f"v{index}".encode())

    # One back-end node fails; the background scheduler repairs everything.
    cluster.fail_node("pool-0/l2-0", time=0.0)
    cluster.run_until_idle()
    for shard in cluster.router.shards_on_pool("pool-0"):
        assert shard.system.alive_l2_count() == config.n2
    assert cluster.node("pool-0/l2-0").status == "alive"

    # Then the cluster grows; shards migrate and values survive.
    plan = cluster.add_pool("pool-3")
    assert plan.moves
    for index, key in enumerate(keys):
        assert cluster.read(key).value == f"v{index}".encode()
    assert cluster.check_atomicity() is None
    counts = cluster.shard_counts()
    assert counts.get("pool-3", 0) == len(
        [m for m in plan.moves if m.target == "pool-3"]
    )
