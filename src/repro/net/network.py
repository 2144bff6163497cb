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

A sent message is queued as data, not as a callback, on the heap of the
network's event pump (:class:`~repro.net.kernel.GlobalScheduler`), for
the network's one bound :meth:`Network.deliver`, which resolves the
destination by pid when the message arrives.

The network also owns the :class:`CommunicationCostTracker`, which sums
the normalised ``data_size`` of every message sent, per operation (and
counts messages per kind), implementing the paper's communication-cost
metric (Section II-d).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappush
from typing import Dict, Optional

from repro.net.kernel import GlobalScheduler
from repro.net.latency import FixedLatencyModel, LatencyModel
from repro.net.messages import Message
from repro.net.process import Process


@dataclass
class CommunicationCostTracker:
    """Accumulates normalised communication cost (value size = 1 unit).

    :meth:`Network.send` charges every sent message here, in one place.
    """

    total: float = 0.0
    messages_sent: int = 0
    by_operation: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    messages_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def operation_cost(self, op_id: str) -> float:
        """Total normalised data sent on behalf of ``op_id``."""
        return self.by_operation.get(op_id, 0.0)


class Network:
    """The message-passing fabric connecting all processes."""

    def __init__(self, kernel: Optional[GlobalScheduler] = None,
                 latency_model: Optional[LatencyModel] = None) -> None:
        #: The pump that runs this network's events.
        self.kernel = kernel if kernel is not None else GlobalScheduler()
        #: The pump's heap and clock, which :meth:`send` pushes onto.
        self.simulator = self.kernel.simulator
        self.latency_model = latency_model or FixedLatencyModel()
        self.processes: Dict[str, Process] = {}
        self.costs = CommunicationCostTracker()
        self.dropped_to_crashed = 0
        #: Bound once: every queued delivery carries this one object.
        self._deliver = self.deliver

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

    # -- channels ----------------------------------------------------------------

    def send(self, sender: Process, destination: str, message: Message) -> None:
        """Place ``message`` on the channel from the ``sender`` process.

        Each process's ``send`` is this method bound to it, and a crashed
        sender object sends nothing, even once swapped out under its pid.
        Cost is charged at send time (the paper counts data transmitted,
        whether or not the destination survives to consume it).
        """
        destination_process = self.processes.get(destination)
        if destination_process is None:
            raise ValueError(f"unknown destination {destination!r}")
        if sender.crashed:
            return
        size, op_id = message.data_size, message.op_id
        costs = self.costs
        costs.total += size
        costs.messages_sent += 1
        costs.messages_by_kind[message.kind] += 1
        if op_id is not None:
            costs.by_operation[op_id] += size
        simulator = self.simulator
        now = simulator._now
        time = now + self.latency_model.delay(
            sender.link_class, destination_process.link_class)
        # Simulator.schedule_at's checks, for an event queued as data.
        if simulator._schedule_guard is not None:
            simulator._schedule_guard(time)
        if not time >= now:
            raise ValueError("cannot schedule an event in the past")
        heappush(simulator._queue, [time, next(simulator._counter),
                                    self._deliver, sender.pid, destination,
                                    message])

    def deliver(self, sender: str, destination: str, message: Message) -> None:
        """Hand a queued message to its destination, or drop it there."""
        # Resolved on delivery: repair may have swapped the process.
        process = self.processes.get(destination)
        if process is None or process.crashed:
            self.dropped_to_crashed += 1
            return
        process.on_message(sender, message)


__all__ = ["Network", "CommunicationCostTracker"]
