"""Reliable point-to-point channels with cost accounting.

The :class:`Network` connects registered processes through channels that
match the paper's model:

* **reliable** -- a message sent to a non-faulty destination is eventually
  delivered exactly once (no loss, no duplication, no corruption);
* **asynchronous** -- delivery delay is drawn from the configured
  :class:`~repro.net.latency.LatencyModel`; messages between the same pair
  of processes may be reordered;
* **crash-tolerant** -- the sender may crash after placing a message in
  the channel and delivery still happens, while deliveries *to* a crashed
  process are dropped.

The network also owns the :class:`CommunicationCostTracker`, which sums
the normalised ``data_size`` of every message sent, per operation and per
message kind, implementing the paper's communication-cost metric
(Section II-d).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.latency import FixedLatencyModel, LatencyModel
from repro.net.messages import Message
from repro.net.process import Process
from repro.net.simulator import Simulator


@dataclass
class CommunicationCostTracker:
    """Accumulates normalised communication cost (value size = 1 unit)."""

    total: float = 0.0
    messages_sent: int = 0
    by_operation: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    by_kind: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    messages_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, message: Message) -> None:
        """Record one sent message."""
        size, kind, op_id = message.data_size, message.kind, message.op_id
        self.total += size
        self.messages_sent += 1
        self.by_kind[kind] += size
        self.messages_by_kind[kind] += 1
        if op_id is not None:
            self.by_operation[op_id] += size

    def operation_cost(self, op_id: str) -> float:
        """Total normalised data sent on behalf of ``op_id``."""
        return self.by_operation.get(op_id, 0.0)

    def merge_operations(self, target_op: str, source_ops: List[str]) -> float:
        """Sum the costs of several operation ids (e.g. a write plus the
        internal write-to-L2 operations it triggered)."""
        return self.operation_cost(target_op) + sum(
            self.operation_cost(op) for op in source_ops
        )


class Network:
    """The message-passing fabric connecting all processes."""

    def __init__(self, simulator: Optional[Simulator] = None,
                 latency_model: Optional[LatencyModel] = None) -> None:
        self.simulator = simulator or Simulator()
        self.latency_model = latency_model or FixedLatencyModel()
        self.processes: Dict[str, Process] = {}
        self.costs = CommunicationCostTracker()
        self.dropped_to_crashed = 0
        self._delivery_hooks: List[Callable[[str, str, Message], None]] = []

    # -- membership -----------------------------------------------------------

    def register(self, process: Process) -> Process:
        """Register a process; its pid must be unique."""
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process
        process.attach(self)
        return process

    def register_all(self, processes) -> None:
        """Register an iterable of processes."""
        for process in processes:
            self.register(process)

    def process(self, pid: str) -> Process:
        """Look up a process by id."""
        return self.processes[pid]

    def crash(self, pid: str) -> None:
        """Crash the named process."""
        self.processes[pid].crash()

    def alive(self, pid: str) -> bool:
        """True when the process exists and has not crashed."""
        return pid in self.processes and not self.processes[pid].crashed

    # -- observation ------------------------------------------------------------

    def add_delivery_hook(self, hook: Callable[[str, str, Message], None]) -> None:
        """Register a callback invoked on every successful delivery."""
        self._delivery_hooks.append(hook)

    # -- channels ----------------------------------------------------------------

    def send(self, sender: str, destination: str, message: Message) -> None:
        """Place ``message`` on the channel from ``sender`` to ``destination``.

        Communication cost is charged at send time (the paper counts data
        transmitted, independent of whether the destination survives to
        consume it).
        """
        processes = self.processes
        sender_process = processes.get(sender)
        if sender_process is None:
            raise ValueError(f"unknown sender {sender!r}")
        destination_process = processes.get(destination)
        if destination_process is None:
            raise ValueError(f"unknown destination {destination!r}")
        if sender_process.crashed:
            return
        self.costs.record(message)
        delay = self.latency_model.delay(
            sender_process.link_class, destination_process.link_class
        )

        def deliver() -> None:
            # Resolved on delivery: repair may have swapped the process.
            process = self.processes.get(destination)
            if process is None or process.crashed:
                self.dropped_to_crashed += 1
                return
            if self._delivery_hooks:
                for hook in self._delivery_hooks:
                    hook(sender, destination, message)
            process.on_message(sender, message)

        self.simulator.schedule(delay, deliver)

    # -- execution ------------------------------------------------------------------

    def start(self) -> None:
        """Invoke the ``on_start`` hook of every registered process."""
        for process in self.processes.values():
            if not process.crashed:
                process.on_start()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the underlying simulator."""
        self.simulator.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no pending events remain."""
        self.simulator.run_until_idle(max_events=max_events)


__all__ = ["Network", "CommunicationCostTracker"]
