"""Pins what the three single-object register facades and the Figure 6
fleet do, as CRC32 digests of everything a run records.

* ``LDSSystem``, ``ABDSystem`` and ``CASSystem`` under
  :class:`~repro.workloads.runner.WorkloadRunner` on a seeded
  :class:`~repro.net.latency.BoundedLatencyModel`: every operation's id,
  kind, invocation and response time, value and tag; each operation's cost
  and the total cost; the storage numbers.
* :class:`~repro.core.multi_object.MultiObjectSystem` with N = 2, 4, 8,
  run by one ``run_all()`` and by ``run_all(until=12)`` then ``run_all()``:
  per-system histories (also at t = 12), storage events, per-operation
  costs, ``peak_l1_cost()``, ``total_l2_cost()`` and
  ``storage_timeseries(...)``.

Timestamps are in the digest (``repr`` of every float), so a change that
moves one event of one object moves it.  Each system's ``simulator.now``
after a run is left out on purpose: when the fleet's objects share one
event queue, every object reads the fleet's clock (the time of the last
event of *any* object) where it used to read the time of its own last
event.  Nothing an object records depends on that reading -- an
invocation is stamped at its scheduled event, a storage change at the
delivery that causes it -- so it is the one observable allowed to move.
"""

import zlib

import pytest

from repro.baselines.abd import ABDSystem
from repro.baselines.cas import CASSystem
from repro.core.config import LDSConfig
from repro.core.multi_object import MultiObjectSystem
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.runner import WorkloadRunner


def crc(records) -> int:
    digest = 0
    for record in records:
        digest = zlib.crc32(repr(record).encode(), digest)
    return digest


def history_records(history) -> list:
    """Every operation in recorded order, timestamps and values included."""
    return [(op.op_id, op.client_id, op.kind, op.object_id, op.invoked_at,
             op.responded_at, op.value, repr(op.tag)) for op in history]


def storage_records(system) -> list:
    if isinstance(system, LDSSystem):
        storage = system.storage
        return [(event.time, event.server, repr(event.tag), event.kind, event.size)
                for event in storage.events] + [
            storage.l1_cost, storage.l2_cost, storage.l1_peak, storage.l2_peak]
    return [system.storage_cost]


def build_register(name: str, seed: int):
    latency = BoundedLatencyModel(tau0=1.0, tau1=1.0, tau2=5.0, seed=seed)
    if name == "lds":
        return LDSSystem(LDSConfig.symmetric(n=5, f=1), num_writers=2,
                         num_readers=2, latency_model=latency)
    if name == "abd":
        return ABDSystem(n=5, num_writers=2, num_readers=2, latency_model=latency)
    return CASSystem(n=6, k=3, num_writers=2, num_readers=2, latency_model=latency)


def register_digest(name: str, seed: int) -> int:
    system = build_register(name, seed)
    workload = WorkloadGenerator(seed=seed, client_spacing=60.0).mixed_random(
        num_operations=24, write_fraction=0.4, duration=200.0,
        num_writers=2, num_readers=2)
    report = WorkloadRunner(system).run(workload)
    assert report.incomplete_operations == 0 and report.is_atomic
    costs = sorted({**report.write_costs, **report.read_costs}.items())
    return crc(history_records(report.history) + costs
               + [report.total_communication_cost] + storage_records(system))


#: (register, latency / workload seed) -> digest recorded on the three
#: separate facades, before they shared a base class.
REGISTERS = {
    ("lds", 1): 3529447538,
    ("lds", 2): 1271482155,
    ("abd", 1): 298879131,
    ("abd", 2): 3371065180,
    ("cas", 1): 3448354002,
    ("cas", 2): 3764234241,
}


@pytest.mark.parametrize("name,seed", sorted(REGISTERS))
def test_register_run_is_unchanged(name, seed):
    assert register_digest(name, seed) == REGISTERS[(name, seed)]


def fleet_digest(num_objects: int, split: bool) -> int:
    config = LDSConfig.symmetric(n=5, f=1)
    fleet = MultiObjectSystem(
        config, num_objects=num_objects, seed=num_objects,
        latency_factory=lambda index: BoundedLatencyModel(
            tau0=1, tau1=1, tau2=5.0, seed=index),
    )
    fleet.schedule_uniform_write_load(writes_per_unit_time=0.3, duration=40.0)
    for index in range(num_objects):
        fleet.schedule_read(index, at=7.5 + index)
        fleet.schedule_read(index, at=90.0)
    records: list = []
    if split:
        fleet.run_all(until=12)
        records += [history_records(system.history()) for system in fleet.systems]
    fleet.run_all()
    assert fleet.all_operations_complete()
    for system in fleet.systems:
        records.append(history_records(system.history()))
        records.append(storage_records(system))
        records.append(sorted(system.network.costs.by_operation.items()))
    records += [fleet.peak_l1_cost(), fleet.total_l2_cost()]
    records += [(sample.time, sample.l1_cost, sample.l2_cost) for sample in
                fleet.storage_timeseries([0, 5, 10, 12, 20, 30, 40, 60, 120])]
    return crc(records)


#: (objects, run_all(until=12) first) -> digest recorded while every
#: object had its own simulator.
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
