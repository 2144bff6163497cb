#!/usr/bin/env python3
"""Edge-cache scenario: a hot object under concurrent writes and reads.

This is the workload the paper's introduction motivates: clients sit close
to the edge layer (tau1 = 1), the back-end is far away (tau2 = 30), and a
popular object is being updated while many readers fetch it.  While writes
are in flight the edge layer serves readers directly ("proxy cache"
behaviour), so read latency stays near the edge round-trip time; once the
object goes cold, reads must regenerate coded data from the back-end and
pay the tau2 round trip.

Run with:  python examples/edge_cache_scenario.py
"""

from repro import BoundedLatencyModel, LDSConfig, LDSSystem
from repro.consistency import check_atomicity
from repro.workloads.metrics import summarize_latencies


def main() -> None:
    config = LDSConfig(n1=7, n2=9, f1=2, f2=2)
    system = LDSSystem(
        config, num_writers=2, num_readers=4,
        latency_model=BoundedLatencyModel(tau0=1.0, tau1=1.0, tau2=30.0, seed=42),
    )
    print(f"Deployment: {config.describe()}  (tau2 / tau1 = 30)")

    # Phase 1: a burst of updates with readers hammering the hot object.
    hot_reads = []
    for round_index in range(4):
        # Rounds are spaced far enough apart that each reader's previous
        # operation has finished (clients are well-formed).
        base = round_index * 100.0
        writer = round_index % 2
        system.invoke_write(f"breaking-news-v{round_index}".encode(), writer=writer, at=base)
        for reader in range(4):
            hot_reads.append(system.invoke_read(reader=reader, at=base + 1.0 + reader * 0.5))
    system.run_until_idle()

    hot_latencies = [system.results[op].duration for op in hot_reads]
    hot_summary = summarize_latencies(hot_latencies)
    print(f"\nhot reads (concurrent with writes): {hot_summary.count} reads, "
          f"mean latency {hot_summary.mean:.1f}, p95 {hot_summary.p95:.1f}")

    # Phase 2: the object goes cold; later readers must reach the back-end.
    cold_reads = [system.read(reader=reader) for reader in range(4)]
    cold_summary = summarize_latencies([result.duration for result in cold_reads])
    print(f"cold reads (after quiescence):      {cold_summary.count} reads, "
          f"mean latency {cold_summary.mean:.1f}, p95 {cold_summary.p95:.1f}")
    print(f"\nedge caching advantage: cold/hot mean latency ratio = "
          f"{cold_summary.mean / hot_summary.mean:.1f}x")

    latest = cold_reads[-1]
    print(f"latest value observed: {latest.value!r}")

    violation = check_atomicity(system.history())
    print(f"atomicity check across {len(system.history())} operations: "
          f"{'OK' if violation is None else violation}")


if __name__ == "__main__":
    main()
