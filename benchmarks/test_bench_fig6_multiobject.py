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

The simulated fleet is Section V-A.1's N independent LDS instances, one
:class:`~repro.core.system.LDSSystem` per object on one shared event pump
(:class:`~repro.net.kernel.GlobalScheduler`).  Each instance draws its delays
from its own latency model and its events are scheduled only by its own
earlier events, so it runs exactly as it would alone; the fleet's storage
cost at any time is the sum of the instances' costs.
"""

import random
import zlib

import pytest

from repro.consistency.linearizability import check_atomicity
from repro.core.analysis import (
    latency_bounds,
    mbr_storage_cost_l2,
    multi_object_storage_bounds,
    replication_storage_cost_l2,
)
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.kernel import GlobalScheduler
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
#: Gap between two scheduled writes on one object, so that at most one is
#: outstanding (well-formed clients); at least the Lemma V.4 write bound.
WRITE_SPACING = 16.0


def build_fleet(config, count, mu):
    """One LDS instance per object, all on one shared event queue."""
    shared = GlobalScheduler()
    return [LDSSystem(config, object_id=f"object-{i}", kernel=shared,
                      latency_model=BoundedLatencyModel(tau0=1, tau1=1, tau2=mu, seed=i))
            for i in range(count)]


def schedule_uniform_writes(fleet, rate, duration, seed):
    """Schedule ``rate * duration`` writes, each on a uniformly random object
    at a uniformly random time in ``[0, duration)``, pushed back to keep
    ``WRITE_SPACING`` after the object's previous write; returns the op ids.
    """
    rng = random.Random(seed)
    next_free = {}
    op_ids = []
    for index in range(round(rate * duration)):
        target = rng.randrange(len(fleet))
        at = max(rng.uniform(0.0, duration), next_free.get(target, 0.0))
        op_ids.append(fleet[target].invoke_write(bytes([index % 251 + 1]) * 4, at=at))
        next_free[target] = at + WRITE_SPACING
    return op_ids


def l1_timeline(fleet):
    """(time, fleet L1 cost) after each event of the merged storage logs."""
    events = sorted(((event.time, index, event) for index, system in enumerate(fleet)
                     for event in system.storage.events), key=lambda item: item[0])
    live = {}
    timeline = []
    for time, index, event in events:
        key = (index, event.server, event.tag)
        if event.kind == "add":
            live[key] = event.size
        else:
            live.pop(key, None)
        timeline.append((time, sum(live.values(), 0.0)))
    return timeline


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
        fleet = build_fleet(config, count, SIM_MU)
        theta = len(schedule_uniform_writes(fleet, 0.3, 40.0, seed=count))
        fleet[0].kernel.run_until_idle()
        complete = all(system.recorder.incomplete_count == 0 for system in fleet)
        bounds = multi_object_storage_bounds(count, config.n1, config.n2, config.k,
                                             theta=theta, mu=SIM_MU)
        rows.append((
            f"N={count}",
            f"{max(total for _, total in l1_timeline(fleet)):.2f}",
            f"{bounds.l1_bound:.0f}",
            f"{sum(system.storage.l2_cost for system in fleet):.2f}",
            f"{count * mbr_storage_cost_l2(config.n2, config.k, config.d):.2f}",
            "yes" if complete else "no",
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
    assert WRITE_SPACING >= latency_bounds(1, 1, SIM_MU).write
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


def crc(records) -> int:
    digest = 0
    for record in records:
        digest = zlib.crc32(repr(record).encode(), digest)
    return digest


def history_records(history) -> list:
    """Every operation in recorded order, timestamps and values included."""
    return [(op.op_id, op.client_id, op.kind, op.object_id, op.invoked_at,
             op.responded_at, op.value, repr(op.tag)) for op in history]


def fleet_digest(num_objects: int, split: bool) -> int:
    """CRC32 of everything the fleet records: per-object histories (also at
    t = 12 when ``split``), storage events and totals, per-operation costs,
    the fleet's peak L1 and total L2 cost and its L1 / L2 time series.

    Each object's ``kernel.now`` is left out on purpose: it is the
    fleet's clock (the time of the last event of *any* object).
    """
    config = LDSConfig.symmetric(n=SIM_N, f=SIM_F)
    fleet = build_fleet(config, num_objects, SIM_MU)
    schedule_uniform_writes(fleet, 0.3, 40.0, seed=num_objects)
    for index, system in enumerate(fleet):
        system.invoke_read(at=7.5 + index)
        system.invoke_read(at=90.0)
    records: list = []
    if split:
        fleet[0].kernel.run(until=12)
        records += [history_records(system.history()) for system in fleet]
    fleet[0].kernel.run_until_idle()
    assert all(system.recorder.incomplete_count == 0 for system in fleet)
    for system in fleet:
        history = system.history()
        assert history.is_well_formed()
        assert check_atomicity(history) is None
        storage = system.storage
        records.append(history_records(history))
        records.append([(event.time, event.server, repr(event.tag), event.kind, event.size)
                        for event in storage.events] + [
            storage.l1_cost, storage.l2_cost, storage.l1_peak, storage.l2_peak])
        records.append(sorted(system.network.costs.by_operation.items()))
    timeline = l1_timeline(fleet)
    assert timeline[-1][1] == 0.0
    l2 = sum(system.storage.l2_cost for system in fleet)
    records += [max(total for _, total in timeline), l2]
    for at in [0, 5, 10, 12, 20, 30, 40, 60, 120]:
        l1 = ([0.0] + [total for time, total in timeline if time <= at])[-1]
        records.append((at, l1, l2))
    return crc(records)


#: (objects, run to t = 12 first) -> digest recorded while every object
#: had its own simulator.
FLEETS = {
    (2, False): 497691615,
    (2, True): 1416182940,
    (4, False): 3000559220,
    (4, True): 3967411916,
    (8, False): 2234012983,
    (8, True): 107974732,
}


@pytest.mark.parametrize("num_objects,split", sorted(FLEETS))
def test_fleet_run_is_unchanged(num_objects, split):
    assert fleet_digest(num_objects, split) == FLEETS[(num_objects, split)]
