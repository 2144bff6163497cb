"""Pins what the three single-object register facades do, as CRC32
digests of everything a run records.

``LDSSystem``, ``ABDSystem`` and ``CASSystem`` run under
:class:`~repro.workloads.runner.WorkloadRunner` on a seeded
:class:`~repro.net.latency.BoundedLatencyModel`.  The digest covers every
operation's id, kind, invocation and response time, value and tag; each
operation's cost and the total cost; the storage numbers.  Timestamps are
in the digest (``repr`` of every float), so a change that moves one event
moves it.  Each run's event pump pins its fingerprint and event count
too.  The Figure 6 fleet's pin lives with its bench,
``benchmarks/test_bench_fig6_multiobject.py``.
"""

import zlib

import pytest

from repro.baselines.abd import ABDSystem
from repro.baselines.cas import CASSystem
from repro.core.config import LDSConfig
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


def register_run(name: str, seed: int) -> tuple:
    """The run's digest, then its pump's fingerprint and event count."""
    system = build_register(name, seed)
    workload = WorkloadGenerator(seed=seed, client_spacing=60.0).mixed_random(
        num_operations=24, write_fraction=0.4, duration=200.0,
        num_writers=2, num_readers=2)
    report = WorkloadRunner(system).run(workload)
    assert report.incomplete_operations == 0 and report.is_atomic
    costs = sorted({**report.write_costs, **report.read_costs}.items())
    digest = crc(history_records(report.history) + costs
                 + [report.total_communication_cost] + storage_records(system))
    return digest, system.kernel.fingerprint, system.kernel.stats.events_total


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


#: (register, seed) -> (fingerprint, events) recorded when the facades
#: moved onto the event pump; the event counts equal what the loop they
#: ran on before executed.
PUMPS = {
    ("lds", 1): (1784104787, 2190),
    ("lds", 2): (4096097474, 2212),
    ("abd", 1): (908479696, 504),
    ("abd", 2): (1906484552, 504),
    ("cas", 1): (3563808789, 696),
    ("cas", 2): (2554643599, 708),
}


@pytest.mark.parametrize("name,seed", sorted(REGISTERS))
def test_register_run_is_unchanged(name, seed):
    digest, fingerprint, events = register_run(name, seed)
    assert digest == REGISTERS[(name, seed)]
    assert (fingerprint, events) == PUMPS[(name, seed)]

