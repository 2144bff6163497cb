#!/usr/bin/env python3
"""A tour of the tail-latency observability stack.

Three fixed-seed scenarios exercise the latency pillar end to end --
streaming quantile sketches per operation class, per-phase critical-path
decomposition, percentile-band attribution, and SLO burn tracking:

1. **quorum-reads-under-lag** (the ``telemetry_tour`` scenario) with the
   latency tracker and an SLO probe attached.  The same run repeats
   bare; the kernel fingerprints *and* the merged global-clock histories
   must be byte-identical -- latency tracking is pure observation.  The
   ``run_report()`` must carry the "-- latency --" section with
   per-class p50/p90/p99/p999 and a per-band phase breakdown, and the
   "-- slo --" section with error-budget accounting.

2. **inflated forward hop**: the same cluster with ``write_ingress=
   "nearest"`` and a deliberately slow ``forward_latency``.  Critical-
   path attribution must *name the culprit*: the p99+ band of forwarded
   writes spends most of its time in the ``forward-hop`` phase.

3. **freeze-heavy failover**: a primary-routed cluster whose primary
   pool dies mid-run with a long detection delay, so reads park in the
   failover freeze.  Attribution must blame ``freeze-wait`` for the
   slow reads' tail.

Exits non-zero if any check fails, so the CI smoke job doubles as the
latency stack's correctness gate.

Run with:  PYTHONPATH=src python examples/latency_tour.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro import ClusterSimulation, LDSConfig, ReplicationConfig, Telemetry
from repro.sim import quorum_reads_under_lag

SEED = 7
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
REPLICATION_LAG = 400.0
SLO_INTERVAL = 50.0


def build(telemetry) -> ClusterSimulation:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=REPLICATION_LAG,
                                      read_quorum=2,
                                      write_ingress="nearest"),
        read_policy="quorum",
        telemetry=telemetry,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED))
    return simulation


def forward_hop_scenario():
    """Writes enter at the nearest pool and pay a deliberately slow
    forward hop to the primary: the tail's culprit is the hop."""
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    telemetry = Telemetry(latency=True)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        replication=ReplicationConfig(r=3, replication_lag=30.0,
                                      forward_latency=150.0,
                                      write_ingress="nearest"),
        read_policy="round-robin",
        telemetry=telemetry,
    )
    simulation.ensure_shards(KEYS)
    for index, key in enumerate(KEYS):
        simulation.invoke_write(key, b"hop", at=float(index) * 5.0)
    simulation.run_until_idle()
    return telemetry.latency


def freeze_wait_scenario():
    """Kill the primary pool under primary-routed reads with a long
    detection delay: the slow reads' tail is the failover freeze."""
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    telemetry = Telemetry(latency=True)
    simulation = ClusterSimulation(
        config, POOLS, seed=3,
        readers_per_shard=3,
        replication=ReplicationConfig(r=3, replication_lag=25.0,
                                      failover_detection_delay=120.0),
        read_policy="primary",
        telemetry=telemetry,
    )
    key = "frozen-key"
    simulation.ensure_shards([key])
    simulation.write(key, b"v1")
    simulation.run_until_idle()
    group = simulation.replicas.groups[key]
    simulation.fail_pool(group.primary_pool, time=simulation.kernel.now)
    for reader in range(3):
        simulation.router.invoke_read(key, reader=reader,
                                      session=f"r{reader}")
    simulation.run_until_idle()
    return telemetry.latency


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for ops.jsonl / slo.jsonl / "
                             "report.txt (default: a temp dir)")
    args = parser.parse_args()
    out = args.out if args.out is not None else \
        Path(tempfile.mkdtemp(prefix="latency-tour-"))
    out.mkdir(parents=True, exist_ok=True)

    failures = []

    # -- 1. the instrumented run vs the bare run ---------------------------------
    telemetry = Telemetry(trace=True, latency=True, slo_interval=SLO_INTERVAL)
    simulation = build(telemetry)
    print(f"cluster: {simulation.describe()}\n")

    bare = build(None)
    fingerprints_match = \
        simulation.kernel.fingerprint == bare.kernel.fingerprint
    histories_match = repr(simulation.history().operations) == \
        repr(bare.history().operations)
    print("== non-interference ==")
    print(f"  instrumented fingerprint: {simulation.kernel.fingerprint:#010x}")
    print(f"  bare fingerprint:         {bare.kernel.fingerprint:#010x}")
    print(f"  fingerprints identical: {fingerprints_match}")
    print(f"  histories identical:    {histories_match}")
    if not fingerprints_match:
        failures.append("latency tracking perturbed the run "
                        "(fingerprint mismatch)")
    if not histories_match:
        failures.append("latency tracking perturbed the merged history")

    tracker = telemetry.latency
    print("\n== per-class tails ==")
    for op_class, row in tracker.summary().items():
        print(f"  {op_class}: n={row['count']} p50={row['p50']:.1f} "
              f"p99={row['p99']:.1f} p999={row['p999']:.1f} "
              f"p99+ phase={row['dominant_p99_phase']}")
    if not tracker.records:
        failures.append("the latency tracker recorded no operations")
    if tracker.open_count():
        failures.append(f"{tracker.open_count()} operations never closed")

    slo = telemetry.slo
    print("\n== slo ==")
    for op_class, status in slo.snapshot().items():
        print(f"  {op_class}: ops={status.ops} breaches={status.breaches} "
              f"budget={status.budget_consumed:.2f} "
              f"burn={status.burn_rate:.2f}x")
    if not slo.samples:
        failures.append("the SLO probe never sampled")

    report = simulation.run_report()
    for marker in ("-- latency", "-- slo --", "p999"):
        if marker not in report:
            failures.append(f"run_report() is missing {marker!r}")

    # -- 2. attribution names the inflated forward hop ---------------------------
    print("\n== attribution: inflated forward hop ==")
    hop_tracker = forward_hop_scenario()
    hop_attr = hop_tracker.attribution("forwarded-write")
    print(f"  forwarded-write p99+ band ({hop_attr.ops} op(s), "
          f"threshold {hop_attr.threshold:.1f}):")
    for phase, fraction in hop_attr.fractions.items():
        print(f"    {phase}: {fraction:.0%}")
    if hop_attr.dominant_phase != "forward-hop":
        failures.append(
            "expected forward-hop to dominate the forwarded-write tail, "
            f"got {hop_attr.dominant_phase!r}")

    # -- 3. attribution names the failover freeze --------------------------------
    print("\n== attribution: failover freeze ==")
    freeze_tracker = freeze_wait_scenario()
    freeze_attr = freeze_tracker.attribution("protocol-read")
    print(f"  protocol-read p99+ band ({freeze_attr.ops} op(s), "
          f"threshold {freeze_attr.threshold:.1f}):")
    for phase, fraction in freeze_attr.fractions.items():
        print(f"    {phase}: {fraction:.0%}")
    if freeze_attr.dominant_phase != "freeze-wait":
        failures.append(
            "expected freeze-wait to dominate the deferred-read tail, "
            f"got {freeze_attr.dominant_phase!r}")

    # -- artefacts ---------------------------------------------------------------
    ops_path = out / "ops.jsonl"
    slo_path = out / "slo.jsonl"
    report_path = out / "report.txt"
    tracker.write_jsonl(ops_path)
    slo.write_jsonl(slo_path)
    report_path.write_text(report + "\n", encoding="utf-8")
    with open(ops_path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    if len(rows) != len(tracker.records):
        failures.append("ops.jsonl row count does not match the tracker")

    print(f"\n{report}")
    print("\n== artefacts ==")
    print(f"  ops:    {ops_path}")
    print(f"  slo:    {slo_path}")
    print(f"  report: {report_path}")

    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall latency-tour checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
