#!/usr/bin/env python3
"""Repair under load on the global clock: rate-limited background repair
competing with foreground Zipf traffic, all on one timeline.

Builds a 3-pool cluster driven by the global simulation kernel, runs the
shipped ``repair-under-load`` scenario (a back-end node of pool-0 dies at
t=150 while a Zipf-skewed keyed workload is in flight), and prints the
interleaving evidence the legacy per-shard loop could never produce:
repairs starting and finishing *between* foreground operations of other
shards, a rate-limited repair spread, and per-shard atomicity intact.

Run with:  PYTHONPATH=src python examples/repair_under_load.py
"""

from repro import ClusterSimulation, LDSConfig
from repro.sim import repair_under_load

VICTIM = "pool-0/l2-0"


def main() -> None:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, ["pool-0", "pool-1", "pool-2"], seed=17,
        repair_min_interval=12.0, repair_max_concurrent=1,
        repair_detection_delay=3.0, repair_slot_jitter=2.0,
    )
    keys = [f"obj-{i}" for i in range(32)]
    scenario = repair_under_load(
        keys, VICTIM, seed=17,
        operations=192, write_fraction=0.4, duration=700.0, fail_at=150.0,
    )
    print(f"scenario: {scenario.name} -- {scenario.description}")
    # Pre-warm every shard so the failure hits a fully populated pool.
    simulation.ensure_shards(keys)
    simulation.apply(scenario)
    print(simulation.describe())

    # -- the global timeline around the failure --------------------------------
    timeline = simulation.timeline()
    fail_time = next(t for t, cat, _ in timeline if cat == "fail-node")
    repair_done = [t for t, cat, _ in timeline if cat == "repair-done"]
    print(f"\ntimeline excerpt (around the crash at t={fail_time:g}):")
    window_end = repair_done[min(2, len(repair_done) - 1)]
    excerpt = [e for e in timeline if fail_time - 10 <= e[0] <= window_end]
    for t, cat, detail in excerpt[:28]:
        print(f"  t={t:8.2f}  {cat:13s} {detail}")

    # -- interleaving statistics ------------------------------------------------
    print("\ninterleaving:")
    print(f"  {simulation.kernel.stats.events_total} events on the kernel's "
          f"one queue")
    window = [e for e in timeline if repair_done and
              fail_time <= e[0] <= repair_done[-1]]
    foreground = sum(1 for _, cat, _ in window if cat in ("invoke", "respond"))
    repairs = sum(1 for _, cat, _ in window if cat.startswith("repair"))
    shards_active = {detail.split()[-1].split("/")[0].split("@")[0]
                     for _, cat, detail in window if cat == "respond"}
    print(f"  repair window [t={fail_time:g}, t={repair_done[-1]:.1f}]: "
          f"{repairs} repair events interleaved with {foreground} foreground "
          f"events on {len(shards_active)} shards")
    rstats = simulation.repair.stats
    times = simulation.repair.scheduled_times()
    print(f"  repairs completed: {rstats.repairs_completed} "
          f"(skipped {rstats.repairs_skipped}, retries {rstats.retries}), "
          f"rate-limited over {times[-1] - times[0]:.1f} time units")
    print(f"  node {VICTIM} status: "
          f"{simulation.membership.node(VICTIM).status}")

    # -- correctness -------------------------------------------------------------
    violation = simulation.check_atomicity()
    incomplete = sum(1 for op in simulation.history() if not op.is_complete)
    print(f"\natomicity on every shard history: "
          f"{'OK' if violation is None else violation}")
    print(f"incomplete operations: {incomplete}")
    if violation is not None or incomplete or len(shards_active) < 2:
        raise SystemExit("repair-under-load walkthrough FAILED")
    print("repair-under-load walkthrough OK")


if __name__ == "__main__":
    main()
