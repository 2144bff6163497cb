"""E6 -- LDS vs single-layer baselines (ABD replication, CAS coded).

The paper's introduction positions the layered design against single-layer
replication-based ([3]) and erasure-code-based ([6], [17]) algorithms, and
the Figure 6 discussion quotes the n2-per-object storage cost a replicated
back-end would pay.  This benchmark runs the *same* sequential workload on
all three systems and reports per-operation communication cost, storage
cost and operation latency.
"""

from repro.baselines.abd import ABDSystem
from repro.baselines.cas import CASSystem
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import FixedLatencyModel
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import WorkloadRunner

from bench_utils import emit_table

N_SERVERS = 9  # single-layer size; LDS additionally uses an 9-server back-end
K = 5


def _workload():
    return WorkloadGenerator(seed=6, client_spacing=100.0).sequential(
        num_writes=3, num_reads=3, spacing=100.0
    )


def _lds():
    config = LDSConfig(n1=N_SERVERS, n2=N_SERVERS, f1=2, f2=2)
    return LDSSystem(config, latency_model=FixedLatencyModel()), config


def run_experiment():
    rows = []
    lds, config = _lds()
    report = WorkloadRunner(lds).run(_workload())
    rows.append((
        f"LDS (n1=n2={N_SERVERS}, k={config.k}, d={config.d})",
        f"{report.mean_write_cost:.2f}", f"{report.mean_read_cost:.2f}",
        f"{lds.storage.l2_cost:.2f}",
        f"{report.write_latency.mean:.1f}", f"{report.read_latency.mean:.1f}",
        "yes" if report.is_atomic else "no",
    ))

    abd = ABDSystem(n=N_SERVERS, latency_model=FixedLatencyModel())
    report = WorkloadRunner(abd).run(_workload())
    rows.append((
        f"ABD replication (n={N_SERVERS})",
        f"{report.mean_write_cost:.2f}", f"{report.mean_read_cost:.2f}",
        f"{abd.storage_cost:.2f}",
        f"{report.write_latency.mean:.1f}", f"{report.read_latency.mean:.1f}",
        "yes" if report.is_atomic else "no",
    ))

    cas = CASSystem(n=N_SERVERS, k=K, latency_model=FixedLatencyModel())
    report = WorkloadRunner(cas).run(_workload())
    rows.append((
        f"CAS single-layer coded (n={N_SERVERS}, k={K})",
        f"{report.mean_write_cost:.2f}", f"{report.mean_read_cost:.2f}",
        f"{cas.storage_cost:.2f}",
        f"{report.write_latency.mean:.1f}", f"{report.read_latency.mean:.1f}",
        "yes" if report.is_atomic else "no",
    ))
    emit_table(
        "E6-lds-vs-baselines",
        "Identical sequential workload on LDS, ABD and CAS (tau0=tau1=1, tau2=10)",
        ("algorithm", "write cost", "read cost", "permanent storage",
         "write latency", "read latency", "atomic"),
        rows,
    )
    return rows


def test_bench_lds_vs_baselines():
    rows = run_experiment()
    lds_row, abd_row, cas_row = rows
    assert all(row[-1] == "yes" for row in rows)
    # Storage: the coded back-end beats replication by a wide margin
    # (Figure 6 discussion: n2 per object for replication).
    assert float(lds_row[3]) < float(abd_row[3]) / 2
    # Reads: LDS quiescent reads move less data than ABD reads (which carry
    # full replicas from a majority and write one back).
    assert float(lds_row[2]) < float(abd_row[2])
    # Writes: LDS pays the two-layer offload, so its write cost exceeds the
    # single-layer baselines -- that is the expected trade-off shape.
    assert float(lds_row[1]) > float(abd_row[1])
    assert float(lds_row[1]) > float(cas_row[1])
    # Client-visible write latency does not pay the slow back-end link
    # (tau2 = 10): a single L1<->L2 round trip would already cost 20.
    assert float(lds_row[4]) < 20.0
