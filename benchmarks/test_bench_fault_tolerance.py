"""E8 -- liveness and atomicity under the full failure budgets (Theorems IV.8 / IV.9).

Drives randomized read/write workloads while crashing f1 L1 servers and f2
L2 servers at random times, and reports for each configuration how many
operations were invoked, how many completed (liveness), and whether the
execution was atomic (safety).  The paper proves completion of every
operation by a non-faulty client and atomicity of every well-formed
execution; the benchmark checks exactly that, and also reports the
latency / cost inflation caused by failures relative to a failure-free run
of the same workload.
"""

from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.failures import FailureInjector
from repro.net.latency import BoundedLatencyModel
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import WorkloadRunner

from bench_utils import emit_table

CONFIGS = [
    LDSConfig(n1=5, n2=6, f1=1, f2=1),
    LDSConfig(n1=7, n2=9, f1=2, f2=2),
    LDSConfig(n1=9, n2=12, f1=3, f2=3),
]
SEEDS = [1, 2, 3]


def _run_once(config: LDSConfig, seed: int, inject_failures: bool):
    system = LDSSystem(config, num_writers=2, num_readers=2,
                       latency_model=BoundedLatencyModel(tau0=1, tau1=1, tau2=5, seed=seed))
    if inject_failures:
        injector = FailureInjector(seed=seed)
        schedule = injector.random_schedule(config.l1_pids, config.f1, (0.0, 200.0))
        schedule = schedule.merge(
            injector.random_schedule(config.l2_pids, config.f2, (0.0, 200.0))
        )
        schedule.apply(system.network)
    generator = WorkloadGenerator(seed=seed, client_spacing=90.0)
    workload = generator.mixed_random(num_operations=10, write_fraction=0.5,
                                      duration=250.0, num_writers=2, num_readers=2)
    report = WorkloadRunner(system).run(workload)
    return report


def run_experiment():
    rows = []
    for config in CONFIGS:
        total_ops = completed = atomic_runs = 0
        failure_latency = clean_latency = 0.0
        for seed in SEEDS:
            faulty = _run_once(config, seed, inject_failures=True)
            clean = _run_once(config, seed, inject_failures=False)
            history = faulty.history
            total_ops += len(history)
            completed += sum(1 for op in history if op.is_complete)
            atomic_runs += int(faulty.is_atomic)
            failure_latency += faulty.read_latency.mean + faulty.write_latency.mean
            clean_latency += clean.read_latency.mean + clean.write_latency.mean
        rows.append((
            config.describe(),
            f"{config.f1}+{config.f2}",
            total_ops,
            completed,
            f"{atomic_runs}/{len(SEEDS)}",
            f"{failure_latency / clean_latency:.2f}x",
        ))
    emit_table(
        "E8-fault-tolerance",
        "Liveness and atomicity with f1 L1 + f2 L2 crashes at random times",
        ("system", "crashes injected", "ops invoked", "ops completed",
         "atomic runs", "latency vs failure-free"),
        rows,
    )
    return rows


def test_bench_fault_tolerance():
    rows = run_experiment()
    for row in rows:
        assert row[2] == row[3]                  # liveness: every operation completed
        assert row[4] == f"{len(SEEDS)}/{len(SEEDS)}"  # safety: every run atomic
        assert float(row[5].rstrip("x")) < 3.0   # failures do not blow up latency
