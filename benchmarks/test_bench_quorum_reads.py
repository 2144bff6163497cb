"""Quorum-read benchmark: latency and session fallbacks vs quorum size.

Drives the same seeded Zipf workload (fixed write load, read-heavy mix,
heavy replication lag) through an r=3 cluster under the ``quorum``
routing policy with read_quorum = 1, 2 and 3, plus a lag-only control
(read_quorum=2 with read repair disabled), and reports what the quorum
width buys: every leg answers its store's version, which costs nothing,
and only the data leg moves the value, so a wider quorum moves no more
values per read but lands below a session floor less often (a full
quorum always contains the primary and never falls back),
while a narrow quorum under heavy lag spends a quarter of its reads on
expensive full protocol fallbacks at the primary -- which is why *mean*
read latency drops as the quorum widens in this regime.

There is no paper analogue for the sweep itself; the quorum discovery it
characterises is the paper's reader-side tag query, transplanted onto the
replica layer (the ROADMAP's quorum-reads / read-repair items).
"""

from __future__ import annotations

from bench_utils import POOLS, SEED, emit_table, zipf_workload

from repro import (
    ClusterSimulation,
    KeyedWorkloadRunner,
    LDSConfig,
    ReplicationConfig,
)

REPLICATION_LAG = 500.0


def _run(read_quorum: int, read_repair: bool):
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        replication=ReplicationConfig(r=3,
                                      replication_lag=REPLICATION_LAG,
                                      read_quorum=read_quorum,
                                      read_repair=read_repair),
        read_policy="quorum",
    )
    report = KeyedWorkloadRunner(simulation).run(zipf_workload(0.3))
    distribution = simulation.read_distribution()
    audit = simulation.audit()
    assert audit.ok, audit.describe()
    return {
        "read_quorum": read_quorum,
        "read_repair": read_repair,
        "mean_read_latency": report.read_latency.mean,
        "p95_read_latency": report.read_latency.p95,
        "quorum_reads": distribution.quorum_reads,
        "mean_quorum_depth": distribution.mean_quorum_depth,
        "session_fallbacks": distribution.session_fallbacks,
        "session_fallback_rate": distribution.session_fallback_rate,
        "read_repairs": distribution.read_repairs,
        "read_transfers": simulation.replicas.read_cost,
        "replication_cost": simulation.replicas.total_cost,
    }


def test_bench_quorum_reads():
    runs = [_run(q, True) for q in (1, 2, 3)]
    lag_only = _run(2, False)

    def row(run):
        label = f"{run['read_quorum']}" + ("" if run["read_repair"]
                                           else " (no repair)")
        return (
            label,
            f"{run['mean_read_latency']:.1f}",
            f"{run['p95_read_latency']:.1f}",
            f"{run['mean_quorum_depth']:.2f}",
            f"{run['session_fallback_rate']:.3f}",
            f"{run['read_repairs']}",
            f"{run['replication_cost']:.0f}",
        )

    emit_table(
        "quorum_reads",
        "read latency / session fallbacks vs read_quorum "
        f"(r=3, lag={REPLICATION_LAG:g}, fixed write load)",
        ["read_quorum", "mean read lat", "p95 read lat",
         "mean depth", "fallback rate", "read repairs", "replica traffic"],
        [row(run) for run in runs] + [row(lag_only)],
    )

    by_quorum = {run["read_quorum"]: run for run in runs}
    # Every merge resolved at full depth (nothing died in this sweep).
    for quorum, run in by_quorum.items():
        assert run["mean_quorum_depth"] == quorum
    # A full quorum always contains the primary, so no merge can land
    # below a session floor; narrower quorums pay fallbacks instead, and
    # monotonically more of them as the window narrows.
    assert by_quorum[3]["session_fallbacks"] == 0
    assert by_quorum[2]["session_fallbacks"] > 0
    assert by_quorum[1]["session_fallbacks"] \
        > by_quorum[2]["session_fallbacks"]
    # Under heavy lag those fallbacks are full protocol reads, so the
    # narrow quorum is the *slow* configuration on mean read latency.
    assert by_quorum[1]["mean_read_latency"] \
        > by_quorum[3]["mean_read_latency"]
    # Extra legs move versions only: a full quorum's data leg is the
    # primary, whose log head is never stale, so each of its reads moves
    # exactly one value, and its replica traffic is the single-leg
    # quorum's.
    assert by_quorum[3]["read_transfers"] == by_quorum[3]["quorum_reads"]
    assert by_quorum[3]["replication_cost"] \
        == by_quorum[1]["replication_cost"]
    # The acceptance claim: at r=3 with the same windows, read repair
    # measurably reduces session fallbacks vs lag-only catch-up.
    repaired = by_quorum[2]
    assert repaired["quorum_reads"] == lag_only["quorum_reads"]
    assert repaired["read_repairs"] > 0 and lag_only["read_repairs"] == 0
    assert repaired["session_fallbacks"] < lag_only["session_fallbacks"]
