"""Workload execution against any of the simulated systems.

:class:`WorkloadRunner` drives a single-object register through the
driving API of :class:`~repro.core.system.RegisterSystem`, the base of
:class:`~repro.core.system.LDSSystem`,
:class:`~repro.baselines.abd.ABDSystem` and
:class:`~repro.baselines.cas.CASSystem`.  :class:`KeyedWorkloadRunner`
drives the keyed API of the cluster router (:class:`KeyedDrivableSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.consistency.history import History, READ, WRITE
from repro.consistency.linearizability import AtomicityViolation, check_atomicity
from repro.core.system import RegisterSystem
from repro.workloads.generator import Workload
from repro.workloads.metrics import LatencySummary, summarize_latencies


@dataclass
class WorkloadReport:
    """Everything measured while executing one workload."""

    history: History
    write_latency: LatencySummary
    read_latency: LatencySummary
    write_costs: Dict[str, float] = field(default_factory=dict)
    read_costs: Dict[str, float] = field(default_factory=dict)
    total_communication_cost: float = 0.0
    incomplete_operations: int = 0
    atomicity_violation: Optional[AtomicityViolation] = None

    @property
    def mean_write_cost(self) -> float:
        return (sum(self.write_costs.values()) / len(self.write_costs)) if self.write_costs else 0.0

    @property
    def mean_read_cost(self) -> float:
        return (sum(self.read_costs.values()) / len(self.read_costs)) if self.read_costs else 0.0

    @property
    def is_atomic(self) -> bool:
        return self.atomicity_violation is None


def _assemble_report(system, history: History, violation: Optional[AtomicityViolation],
                     write_ops: List[str], read_ops: List[str]) -> WorkloadReport:
    """Shared report construction for both runners."""
    incomplete = sum(1 for op in history if not op.is_complete)
    return WorkloadReport(
        history=history,
        write_latency=summarize_latencies(history.latencies(WRITE)),
        read_latency=summarize_latencies(history.latencies(READ)),
        write_costs={op: system.operation_cost(op) for op in write_ops},
        read_costs={op: system.operation_cost(op) for op in read_ops},
        total_communication_cost=system.communication_cost,
        incomplete_operations=incomplete,
        atomicity_violation=violation,
    )


class WorkloadRunner:
    """Executes a :class:`Workload` against a single-object register."""

    def __init__(self, system: RegisterSystem) -> None:
        self.system = system

    def run(self, workload: Workload, max_events: int = 10_000_000) -> WorkloadReport:
        """Schedule every operation, run to quiescence, and summarise."""
        write_ops: List[str] = []
        read_ops: List[str] = []
        for operation in workload.sorted_operations():
            if operation.kind == WRITE:
                op_id = self.system.invoke_write(
                    operation.value or b"", writer=operation.client_index, at=operation.at
                )
                write_ops.append(op_id)
            else:
                op_id = self.system.invoke_read(
                    reader=operation.client_index, at=operation.at
                )
                read_ops.append(op_id)
        self.system.run_until_idle(max_events=max_events)

        history = self.system.history()
        return _assemble_report(self.system, history, check_atomicity(history),
                                write_ops, read_ops)


class KeyedDrivableSystem(Protocol):
    """The keyed driving API of the cluster router (and its facade)."""

    def invoke_write(self, key: str, value: bytes, writer=0,
                     at: Optional[float] = None,
                     session: Optional[str] = None) -> str: ...

    def invoke_read(self, key: str, reader=0, at: Optional[float] = None,
                    session: Optional[str] = None) -> str: ...

    def add_workload(self, workload: "Workload", start: float = 0.0,
                     on_handle=None) -> int: ...

    def run_until_idle(self, max_events: int = 10_000_000) -> None: ...

    def history(self) -> History: ...

    def check_atomicity(self) -> Optional[AtomicityViolation]: ...

    def operation_cost(self, handle: str) -> float: ...

    @property
    def communication_cost(self) -> float: ...


class KeyedWorkloadRunner:
    """Executes a keyed :class:`Workload` against an object router.

    The router checks atomicity itself (per object and per migration
    epoch), so unlike :class:`WorkloadRunner` this runner delegates the
    check instead of running the checker over the merged history.

    Operations are scheduled as timed *arrival events* on the system's
    global kernel (``add_workload`` on an
    :class:`~repro.cluster.router.ObjectRouter` or a
    :class:`~repro.sim.harness.ClusterSimulation`), so the workload
    interleaves with background repairs, migrations and other shards'
    traffic on one global clock.  Arrival semantics (per-operation timed
    injection, uniform forward shift of past-due windows, key and client
    validation, arrival counting) live in that one place; this runner only
    collects the handles for cost reporting.

    Every operation is stamped with its *session identity*
    (:attr:`~repro.workloads.generator.ScheduledOperation.session_id` --
    explicit, or the default pairing writer ``i`` and reader ``i`` as one
    logical client), which the router preserves end to end into the merged
    history so :func:`repro.consistency.sessions.check_sessions` can audit
    per-client guarantees across keys and shards.
    """

    def __init__(self, system: "KeyedDrivableSystem") -> None:
        self.system = system

    def run(self, workload: Workload, max_events: int = 10_000_000) -> WorkloadReport:
        """Schedule every keyed operation, run to quiescence, and summarise."""
        write_ops: List[str] = []
        read_ops: List[str] = []

        def collect(kind: str, handle: str) -> None:
            (write_ops if kind == WRITE else read_ops).append(handle)

        self.system.add_workload(workload, on_handle=collect)
        self.system.run_until_idle(max_events=max_events)

        return _assemble_report(self.system, self.system.history(),
                                self.system.check_atomicity(), write_ops, read_ops)


__all__ = [
    "KeyedDrivableSystem",
    "KeyedWorkloadRunner",
    "WorkloadReport",
    "WorkloadRunner",
]
