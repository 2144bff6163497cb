"""E4 -- Figure 6: temporary vs permanent storage in a multi-object system.

Figure 6 of the paper plots the Lemma V.5 storage bounds for a symmetric
system with n1 = n2 = 100, k = d = 80, tau2 = 10 tau1 and theta = 100
concurrent writes per tau1, as a function of the number of objects N:
the L1 (temporary) bound is flat in N while the L2 (permanent) cost grows
linearly, so permanent storage dominates for large N.

The benchmark reproduces the figure in two parts:

1. the *analytical* curves at the paper's exact parameters (what Figure 6
   actually plots), and
2. a *measured* scaled-down simulation (n1 = n2 = 5, k = d = 3) that
   validates the bounds: the simulated peak L1 cost never exceeds the
   Lemma V.5 L1 bound and the simulated L2 cost matches the formula.
"""

import pytest

from repro.core.analysis import (
    mbr_storage_cost_l2,
    multi_object_storage_bounds,
    replication_storage_cost_l2,
)
from repro.core.config import LDSConfig
from repro.core.multi_object import MultiObjectSystem
from repro.net.latency import BoundedLatencyModel

from bench_utils import emit_table

#: Figure 6 parameters.
FIG6_N = 100
FIG6_K = 80
FIG6_MU = 10.0
FIG6_THETA = 100
FIG6_OBJECT_COUNTS = [1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000]

#: Scaled-down simulated validation.
SIM_OBJECTS = [2, 4, 8]
SIM_N, SIM_F = 5, 1
SIM_MU = 5.0


def run_analytical_figure():
    rows = []
    for count in FIG6_OBJECT_COUNTS:
        bounds = multi_object_storage_bounds(count, FIG6_N, FIG6_N, FIG6_K,
                                             theta=FIG6_THETA, mu=FIG6_MU)
        per_object = mbr_storage_cost_l2(FIG6_N, FIG6_K, FIG6_K)
        rows.append((
            f"N={count:,}",
            f"{bounds.l1_bound:,.0f}",
            f"{bounds.l2_bound:,.0f}",
            f"{per_object:.2f}",
            f"{replication_storage_cost_l2(FIG6_N) * count:,.0f}",
            "L2" if bounds.l2_bound > bounds.l1_bound else "L1",
        ))
    emit_table(
        "E4-fig6-analytical",
        "Figure 6: L1 vs L2 storage bounds (n1=n2=100, k=d=80, mu=10, theta=100)",
        ("objects", "L1 bound", "L2 cost", "L2 cost / object",
         "replication L2 cost", "dominant"),
        rows,
    )
    return rows


def run_simulated_validation():
    rows = []
    config = LDSConfig.symmetric(n=SIM_N, f=SIM_F)
    for count in SIM_OBJECTS:
        fleet = MultiObjectSystem(
            config, num_objects=count, seed=count,
            latency_factory=lambda i: BoundedLatencyModel(tau0=1, tau1=1, tau2=SIM_MU,
                                                          seed=i),
        )
        ops = fleet.schedule_uniform_write_load(writes_per_unit_time=0.3, duration=40.0)
        fleet.run_all()
        theta = len(ops)
        bounds = multi_object_storage_bounds(count, config.n1, config.n2, config.k,
                                             theta=theta, mu=SIM_MU)
        rows.append((
            f"N={count}",
            f"{fleet.peak_l1_cost():.2f}",
            f"{bounds.l1_bound:.0f}",
            f"{fleet.total_l2_cost():.2f}",
            f"{count * mbr_storage_cost_l2(config.n2, config.k, config.d):.2f}",
            "yes" if fleet.all_operations_complete() else "no",
        ))
    emit_table(
        "E4-fig6-simulated",
        f"Figure 6 validation on a simulated fleet (n1=n2={SIM_N}, k=d={config.k})",
        ("objects", "peak L1 (measured)", "L1 bound (paper)",
         "L2 (measured)", "L2 (paper)", "all ops complete"),
        rows,
    )
    return rows


def test_bench_fig6_analytical_curves():
    rows = run_analytical_figure()
    # Shape of Figure 6: L2 grows linearly with N and dominates for large N,
    # the L1 bound is constant, and the per-object L2 cost is < 3 (vs 100 for
    # replication).
    l1_bounds = [float(row[1].replace(",", "")) for row in rows]
    l2_costs = [float(row[2].replace(",", "")) for row in rows]
    assert len(set(l1_bounds)) == 1
    assert l2_costs[-1] > l2_costs[0]
    assert rows[-1][-1] == "L2"
    assert rows[0][-1] == "L1"
    assert float(rows[0][3]) < 3.0


def test_bench_fig6_simulated_fleet():
    rows = run_simulated_validation()
    for row in rows:
        measured_l1, l1_bound = float(row[1]), float(row[2])
        measured_l2, paper_l2 = float(row[3]), float(row[4])
        assert measured_l1 <= l1_bound + 1e-9
        assert measured_l2 == pytest.approx(paper_l2, rel=1e-6)
        assert row[5] == "yes"
    # Linear growth of permanent storage with the number of objects.
    l2_values = [float(row[3]) for row in rows]
    assert l2_values[-1] == pytest.approx(l2_values[0] * SIM_OBJECTS[-1] / SIM_OBJECTS[0],
                                          rel=1e-6)
