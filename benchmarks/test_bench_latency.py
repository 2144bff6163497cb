"""E3 -- operation latency under bounded link delays (Lemma V.4),
plus the tail-latency percentile sweep over ``read_quorum``.

The first half measures write, extended-write and read durations on the
simulator with per-link delay bounds tau0 = tau1 = 1 and a sweep of
tau2 = mu * tau1, and checks them against the closed-form bounds:

* write           <= 4 tau1 + 2 tau0
* extended write  <= max(3 tau1 + 2 tau0 + 2 tau2, 4 tau1 + 2 tau0)
* read            <= max(6 tau1 + 2 tau2, 6 tau1 + 2 tau0 + tau2)

The second half drives the cluster-level tail-latency observability
stack (``repro.obs.latency``) under the same heavy-lag quorum regime as
``test_bench_quorum_reads`` and tabulates per-class p50/p99/p999
percentiles plus the dominant critical-path phase of each class's p99+
band (``benchmarks/results/tail_latency.txt``) -- the quorum-width /
tail-latency trade-off in percentiles, not just means.
"""

from repro.core.analysis import latency_bounds
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel

from bench_utils import POOLS, SEED, emit_table, zipf_workload

MU_SWEEP = [2.0, 5.0, 10.0, 20.0]
RUNS_PER_POINT = 5


def _measure(mu: float):
    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    write_durations, extended_durations, read_durations = [], [], []
    for seed in range(RUNS_PER_POINT):
        latency = BoundedLatencyModel(tau0=1.0, tau1=1.0, tau2=mu, seed=seed)
        system = LDSSystem(config, num_writers=1, num_readers=1, latency_model=latency)
        write = system.write(b"latency probe")
        system.run_until_idle()
        clear_time = system.storage.temporary_clear_time(write.tag)
        write_durations.append(write.duration)
        extended_durations.append((clear_time or write.responded_at) - write.invoked_at)
        read_durations.append(system.read().duration)
    return (max(write_durations), max(extended_durations), max(read_durations))


def run_experiment():
    rows = []
    for mu in MU_SWEEP:
        bounds = latency_bounds(1.0, 1.0, mu)
        write_max, extended_max, read_max = _measure(mu)
        rows.append((
            f"mu={mu:g}",
            f"{bounds.write:.1f}", f"{write_max:.2f}",
            f"{bounds.extended_write:.1f}", f"{extended_max:.2f}",
            f"{bounds.read:.1f}", f"{read_max:.2f}",
        ))
    emit_table(
        "E3-latency", "Operation durations vs Lemma V.4 bounds (tau0=tau1=1, tau2=mu)",
        ("point", "write bound", "write max", "ext-write bound", "ext-write max",
         "read bound", "read max"),
        rows,
    )
    return rows


def test_bench_latency_bounds():
    rows = run_experiment()
    for row in rows:
        assert float(row[2]) <= float(row[1]) + 1e-9
        assert float(row[4]) <= float(row[3]) + 1e-9
        assert float(row[6]) <= float(row[5]) + 1e-9


# -- cluster tail-latency percentiles vs read_quorum ---------------------------

TAIL_REPLICATION_LAG = 500.0


def _tail_run(read_quorum: int):
    """Per-class latency summary of one sweep point."""
    from repro import (ClusterSimulation, KeyedWorkloadRunner,
                       ReplicationConfig)

    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED, latency=True,
        replication=ReplicationConfig(r=3,
                                      replication_lag=TAIL_REPLICATION_LAG,
                                      read_quorum=read_quorum),
        read_policy="quorum",
    )
    KeyedWorkloadRunner(simulation).run(zipf_workload(0.3))
    audit = simulation.audit()
    assert audit.ok, audit.describe()
    return simulation.telemetry.latency.summary()


def test_bench_tail_latency_quantiles():
    runs = {q: _tail_run(q) for q in (1, 2, 3)}

    rows = []
    for read_quorum, classes in runs.items():
        for op_class, stats in sorted(classes.items()):
            rows.append((
                f"q={read_quorum}", op_class, stats["count"],
                f"{stats['p50']:.1f}", f"{stats['p99']:.1f}",
                f"{stats['p999']:.1f}", stats["dominant_p99_phase"],
            ))
    emit_table(
        "tail_latency",
        "per-class latency percentiles + p99 critical-path phase vs "
        f"read_quorum (r=3, lag={TAIL_REPLICATION_LAG:g})",
        ["point", "op class", "n", "p50", "p99", "p999", "p99+ phase"],
        rows,
    )

    # Every sweep point must observe quorum reads with a full percentile
    # ladder and a critical-path attribution for the tail.
    for classes in runs.values():
        assert "quorum-read" in classes, classes
        stats = classes["quorum-read"]
        assert stats["count"] > 0
        assert stats["p50"] <= stats["p99"] <= stats["p999"]
        assert stats["dominant_p99_phase"]
