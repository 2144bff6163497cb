"""One repetition of one workload: set up, run, check, measure.

The runner executes each repetition in a fresh interpreter (one process,
one thread), so ``setup_s`` includes ``import repro`` and ``peak_rss_mb``
is the repetition's own high-water mark.  Three modes share this one code
path:

* ``timed``     -- tracing and telemetry off; the end-to-end numbers;
* ``traced``    -- the outside-in tracer of :mod:`lds_bench.trace` on;
* ``telemetry`` -- ``Telemetry.full()`` on (the ``obs`` layer's cost).

Everything returned under ``"exact"`` is a pure function of (workload,
seed): the runner's correctness gate requires it to be identical across
repetitions and across the three modes.
"""

from __future__ import annotations

import math
import resource
from time import perf_counter
from typing import Dict, List, Optional

from lds_bench.workloads import WorkloadSpec, build

MODES = ("timed", "traced", "telemetry")


def percentile(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank percentile, computed here so the benchmark does not
    depend on which of the repo's estimators survives consolidation."""
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


def run_repetition(spec: WorkloadSpec, seed: int, mode: str = "timed",
                   started: Optional[float] = None) -> dict:
    """Run ``spec`` once; ``started`` is when the interpreter's set-up
    began (defaults to now, for in-process callers)."""
    if mode not in MODES:
        raise ValueError(f"unknown repetition mode {mode!r}")
    if started is None:
        started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
    tracer = telemetry = None
    options = {}
    if mode == "traced":
        from lds_bench.trace import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.calibrate()
    elif mode == "telemetry":
        from repro import Telemetry
        telemetry = options["telemetry"] = Telemetry.full()
    try:
        simulation, scenario, attempted = build(spec, seed, **options)
        setup_s = perf_counter() - started  # simlint: disable=ND02 -- host timing is the measurement

        if tracer is not None:
            tracer.active = True
        run_started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
        simulation.apply(scenario)
        run_s = perf_counter() - run_started  # simlint: disable=ND02 -- host timing is the measurement
        if tracer is not None:
            tracer.active = False
    finally:
        if tracer is not None:
            tracer.uninstall()

    audit_started = perf_counter()  # simlint: disable=ND02 -- host timing is the measurement
    audit = simulation.audit()
    audit_s = perf_counter() - audit_started  # simlint: disable=ND02 -- host timing is the measurement

    from repro.sim import TELEMETRY_SOURCE

    history = simulation.history(global_clock=True)
    latencies: Dict[str, List[float]] = {"read": [], "write": []}
    for operation in history:
        if operation.responded_at is not None:
            latencies[operation.kind].append(
                operation.responded_at - operation.invoked_at)
    for values in latencies.values():
        values.sort()
    router = simulation.router
    # Operations the program still holds open, or scheduled operations that
    # never produced an answered history entry -- whichever is worse.
    incomplete = max(router.incomplete_operations(),
                     attempted - len(latencies["read"])
                     - len(latencies["write"]))
    completed = attempted - incomplete
    violations = (0 if audit.atomicity is None else 1) \
        + len(audit.sessions.violations)
    shards = list(router.shards.values())
    kernel = simulation.kernel
    stats = router.stats
    repair = simulation.repair.stats

    exact = {
        "fingerprint": kernel.fingerprint,
        "attempted": attempted,
        "incomplete": incomplete,
        "audit_ok": bool(audit.ok),
        "violations": violations,
        "reads": len(latencies["read"]),
        "writes": len(latencies["write"]),
        "sim_read_p50": percentile(latencies["read"], 0.50),
        "sim_read_p90": percentile(latencies["read"], 0.90),
        "sim_read_p99": percentile(latencies["read"], 0.99),
        "sim_write_p50": percentile(latencies["write"], 0.50),
        "sim_write_p90": percentile(latencies["write"], 0.90),
        "comm_cost_per_op": simulation.communication_cost / max(1, completed),
        "storage_per_object":
            sum(router.storage_by_pool().values()) / spec.keys,
        "l1_temporary_storage":
            sum(shard.system.storage.l1_cost for shard in shards),
        "ops_audited": len(history),
        "sim.events": kernel.stats.events_total,
        "sim.sources": sum(source.name != TELEMETRY_SOURCE
                           for source in kernel.sources()),
        "sim.switch_rate": kernel.stats.switch_rate,
        "net.messages_sent":
            sum(shard.system.network.costs.messages_sent for shard in shards),
        "net.dropped_to_crashed":
            sum(shard.system.network.dropped_to_crashed for shard in shards),
        "cluster.arrivals": stats.arrivals,
        "cluster.quorum_reads": stats.quorum_reads,
        "cluster.session_fallbacks": stats.session_fallbacks,
        "cluster.read_repairs": stats.read_repairs,
        "cluster.repairs_completed": repair.repairs_completed,
        "cluster.repairs_gave_up": repair.gave_up,
    }
    result = {
        "workload": spec.name, "seed": seed, "mode": mode,
        "setup_s": setup_s, "run_s": run_s, "audit_s": audit_s,
        "completed": completed, "exact": exact,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    if telemetry is not None:
        result["obs"] = {"trace_events": len(telemetry.trace.events),
                         "samples": len(telemetry.sampler.samples)}
    # Read last: the repetition's high-water mark, metric extraction included.
    result["peak_rss_mb"] = resource.getrusage(  # simlint: disable=ND02 -- host resource use is the measurement
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
