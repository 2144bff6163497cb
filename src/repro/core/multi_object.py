"""Multi-object deployments (Section V-A.1 of the paper).

The paper's multi-object analysis runs ``N`` *independent* instances of
the LDS algorithm -- one per object -- over the same two-layer server
deployment, and asks when the temporary (L1) storage is dominated by the
permanent (L2) storage.  Because the instances are fully independent, the
aggregate storage cost of the multi-object system is exactly the sum of
the per-instance costs at every point in time.

:class:`MultiObjectSystem` therefore builds one :class:`~repro.core.system.LDSSystem`
per object on **one shared** :class:`~repro.net.simulator.Simulator`, runs
that one event queue, and aggregates the per-instance storage event logs
into system-wide L1/L2 time series.  This reproduces the quantity plotted
in Figure 6.

Sharing the queue changes nothing an instance records.  Events are
ordered by ``(time, sequence)`` and sequence numbers follow scheduling
order; an instance's events are scheduled only by its own earlier events
(or by the caller, before the run), and each instance draws its delays
from its own latency model, so any two events of one instance keep their
relative order -- the instance runs exactly as it would alone.  What
moves is each instance's ``simulator.now`` after a run: it is the fleet's
clock, the time of the last event of *any* object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import BoundedLatencyModel, LatencyModel
from repro.net.simulator import Simulator


@dataclass(frozen=True)
class MultiObjectStorageSample:
    """Aggregate storage costs of the whole multi-object system at one time."""

    time: float
    l1_cost: float
    l2_cost: float

    @property
    def total(self) -> float:
        return self.l1_cost + self.l2_cost


class MultiObjectSystem:
    """``N`` independent LDS instances on one event queue."""

    def __init__(self, config: LDSConfig, num_objects: int,
                 latency_factory: Optional[Callable[[int], LatencyModel]] = None,
                 writers_per_object: int = 1, readers_per_object: int = 1,
                 seed: Optional[int] = None) -> None:
        if num_objects < 1:
            raise ValueError("a multi-object system needs at least one object")
        self.config = config
        self.num_objects = num_objects
        self._rng = random.Random(seed)
        if latency_factory is None:
            latency_factory = lambda index: BoundedLatencyModel(seed=index)
        #: The one event queue (and clock) every instance runs on.
        self.simulator = Simulator()
        self.systems: List[LDSSystem] = [
            LDSSystem(
                config,
                num_writers=writers_per_object,
                num_readers=readers_per_object,
                latency_model=latency_factory(index),
                object_id=f"object-{index}",
                simulator=self.simulator,
            )
            for index in range(num_objects)
        ]

    # -- workload scheduling -------------------------------------------------------

    def schedule_write(self, object_index: int, value: bytes, at: float,
                       writer: int = 0) -> str:
        """Schedule a write on one object's instance at a virtual time."""
        return self.systems[object_index].invoke_write(value, writer=writer, at=at)

    def schedule_read(self, object_index: int, at: float, reader: int = 0) -> str:
        """Schedule a read on one object's instance at a virtual time."""
        return self.systems[object_index].invoke_read(reader=reader, at=at)

    def schedule_uniform_write_load(self, writes_per_unit_time: float, duration: float,
                                    value_factory: Optional[Callable[[int], bytes]] = None,
                                    start: float = 0.0) -> List[str]:
        """Spread ``writes_per_unit_time * duration`` writes over random objects.

        Each write lands on a uniformly random object at a uniformly random
        time in ``[start, start + duration)``; at most one write is ever
        outstanding per object (well-formed clients), so writes assigned to
        a busy object are simply queued at a later time by re-drawing.
        """
        if value_factory is None:
            value_factory = lambda index: bytes([index % 251 + 1]) * 4
        total_writes = int(round(writes_per_unit_time * duration))
        op_ids: List[str] = []
        next_free: Dict[int, float] = {}
        for index in range(total_writes):
            object_index = self._rng.randrange(self.num_objects)
            at = start + self._rng.uniform(0.0, duration)
            # Keep the per-object client well-formed by pushing the write
            # after the previous one on the same object had time to finish.
            at = max(at, next_free.get(object_index, 0.0))
            op_ids.append(self.schedule_write(object_index, value_factory(index), at))
            next_free[object_index] = at + self._estimated_write_duration()
        return op_ids

    def _estimated_write_duration(self) -> float:
        """A safe upper bound on a write duration used only for scheduling."""
        return 16.0

    # -- execution ----------------------------------------------------------------------

    def run_all(self, until: Optional[float] = None) -> None:
        """Run the fleet's event queue to quiescence, or up to ``until``."""
        if until is None:
            self.simulator.run_until_idle()
        else:
            self.simulator.run(until=until)

    # -- aggregation -----------------------------------------------------------------------

    def storage_timeseries(self, sample_times: Sequence[float]) -> List[MultiObjectStorageSample]:
        """Aggregate L1/L2 storage cost across all instances at the given times."""
        samples: List[MultiObjectStorageSample] = []
        per_system_events = [system.storage.events for system in self.systems]
        l2_total = sum(system.storage.l2_cost for system in self.systems)
        for time in sorted(sample_times):
            l1_total = 0.0
            for events in per_system_events:
                live: Dict[tuple, float] = {}
                for event in events:
                    if event.time > time:
                        break
                    key = (event.server, event.tag)
                    if event.kind == "add":
                        live[key] = event.size
                    else:
                        live.pop(key, None)
                l1_total += sum(live.values())
            samples.append(
                MultiObjectStorageSample(time=time, l1_cost=l1_total, l2_cost=l2_total)
            )
        return samples

    def peak_l1_cost(self) -> float:
        """Worst-case aggregate temporary storage observed across the run.

        Computed from the merged event logs of all instances (the true
        system-wide maximum, not the sum of per-instance maxima).
        """
        events = []
        for system_index, system in enumerate(self.systems):
            for event in system.storage.events:
                events.append((event.time, system_index, event))
        events.sort(key=lambda item: item[0])
        live: Dict[tuple, float] = {}
        peak = 0.0
        for time, system_index, event in events:
            key = (system_index, event.server, event.tag)
            if event.kind == "add":
                live[key] = event.size
            else:
                live.pop(key, None)
            peak = max(peak, sum(live.values()))
        return peak

    def total_l2_cost(self) -> float:
        """Aggregate permanent storage cost (constant: N * n2 * alpha / B)."""
        return sum(system.storage.l2_cost for system in self.systems)

    def all_operations_complete(self) -> bool:
        """True when every scheduled operation has completed in every instance."""
        return all(system.recorder.incomplete_count == 0 for system in self.systems)


__all__ = ["MultiObjectSystem", "MultiObjectStorageSample"]
