#!/usr/bin/env python3
"""Failure drill: crash the maximum tolerated servers while clients keep working.

Exercises Theorems IV.8 (liveness) and IV.9 (atomicity): f1 edge servers
and f2 back-end servers crash at random times while two writers and two
readers run a mixed workload.  Every operation must still complete, the
history must be atomic, and the surviving back-end servers alone must
still be able to rebuild the latest value.

Run with:  python examples/failure_drill.py
"""

from repro import BoundedLatencyModel, LDSConfig, LDSSystem
from repro.net.failures import FailureInjector
from repro.workloads import WorkloadGenerator, WorkloadRunner


def main() -> None:
    config = LDSConfig(n1=7, n2=9, f1=2, f2=2)
    print(f"Deployment: {config.describe()}")
    print(f"Crashing f1={config.f1} edge servers and f2={config.f2} back-end servers.\n")

    system = LDSSystem(config, num_writers=2, num_readers=2,
                       latency_model=BoundedLatencyModel(tau0=1, tau1=1, tau2=8, seed=3))

    injector = FailureInjector(seed=3)
    schedule = injector.random_schedule(config.l1_pids, config.f1, (10.0, 150.0))
    schedule = schedule.merge(injector.random_schedule(config.l2_pids, config.f2, (10.0, 150.0)))
    for pid, when in sorted(schedule.crash_times.items(), key=lambda item: item[1]):
        print(f"  scheduled crash: {pid} at t={when:.1f}")
    schedule.apply(system.network)

    workload = WorkloadGenerator(seed=3, client_spacing=80.0).mixed_random(
        num_operations=14, write_fraction=0.5, duration=300.0,
        num_writers=2, num_readers=2,
    )
    report = WorkloadRunner(system).run(workload)

    print(f"\noperations invoked:   {len(report.history)}")
    print(f"operations completed: {len(report.history) - report.incomplete_operations}")
    print(f"mean write latency:   {report.write_latency.mean:.1f}")
    print(f"mean read latency:    {report.read_latency.mean:.1f}")
    print(f"alive edge servers:   {system.alive_l1_count()}/{config.n1}")
    print(f"alive back-end:       {system.alive_l2_count()}/{config.n2}")

    violation = report.atomicity_violation
    print(f"\natomicity check: {'OK' if violation is None else violation}")

    # The surviving back-end servers alone can still rebuild the latest value.
    surviving = {
        server.index: server.stored_element.data
        for server in system.l2_servers if not server.crashed
    }
    latest_tag = max(server.stored_tag for server in system.l2_servers if not server.crashed)
    rebuilt = system.code.decode_from_backend(dict(list(surviving.items())[: config.k]))
    print(f"\nlatest tag persisted in the back-end: {latest_tag}")
    print(f"value rebuilt from {config.k} surviving coded elements: {rebuilt!r}")


if __name__ == "__main__":
    main()
