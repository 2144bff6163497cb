"""Background, rate-limited repair of failed back-end server slots.

When a pool node hosting an L2 server slot fails, every shard on that pool
loses one coded element.  Repairing all of them at the instant of the
failure would flood the back-end with regeneration traffic, so the
:class:`RepairScheduler` consumes the membership's failure events and
schedules one background repair per affected shard through a token-slot
rate limiter: at most ``max_concurrent`` repairs may start within any
``min_interval`` window, and no repair starts before the failure has been
"detected" (``detection_delay`` after the crash).

Each repair runs the existing
:class:`~repro.core.repair.BackendRepairCoordinator` machinery as an event
on the kernel's one queue at the scheduled virtual time, so repairs
interleave with foreground reads and writes instead of blocking them.  A
repair that is not yet possible -- e.g. no tag is held by ``d`` survivors
because ``write-to-L2`` offloads are still in flight -- is retried after
``retry_interval`` (again through the rate limiter) up to ``max_attempts``
times.  When every shard of a failed node has been rebuilt the scheduler
reports the node recovered to the membership.

L1 failures need no repair: the LDS protocol tolerates up to ``f1`` edge
crashes natively and L1 state is temporary by design.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.membership import FAIL, FAILED, L2_ROLE, Membership, MembershipEvent
from repro.cluster.router import ObjectRouter, Shard
from repro.codes.base import RepairError
from repro.core.repair import BackendRepairCoordinator, L2RepairReport

#: Task states.
QUEUED = "queued"
SCHEDULED = "scheduled"
DONE = "done"
GAVE_UP = "gave-up"


@dataclass
class RepairTask:
    """One pending background repair: rebuild one L2 slot of one shard."""

    key: str
    node_id: str
    l2_index: int
    #: Earliest virtual time the repair may start (failure time + detection).
    ready_at: float
    #: Pool hosting the shard when the task was created.  A task whose
    #: shard has since moved pools (migration or replica failover) repairs
    #: nothing -- the degraded epoch is retired -- and gives up instead of
    #: poking the unrelated replacement shard.
    pool: Optional[str] = None
    scheduled_at: Optional[float] = None
    completed_at: Optional[float] = None
    attempts: int = 0
    status: str = QUEUED
    report: Optional[L2RepairReport] = None


@dataclass
class RepairStats:
    """Aggregate counters for the scheduler."""

    tasks_created: int = 0
    #: Tasks that booked a rate-limiter slot (a retry books again).
    dispatched: int = 0
    repairs_completed: int = 0
    repairs_skipped: int = 0
    retries: int = 0
    #: Abandoned with nothing left to repair (see ``RepairScheduler._moot``).
    moot: int = 0
    #: Abandoned with the slot still degraded: ``max_attempts`` exhausted,
    #: or withheld by a fault drill.
    failed: int = 0
    total_download_fraction: float = 0.0

    @property
    def gave_up(self) -> int:
        """Every abandoned task, whatever the reason."""
        return self.moot + self.failed


class RepairScheduler:
    """Schedules rate-limited background L2 repairs from failure events."""

    def __init__(self, router: ObjectRouter, *,
                 min_interval: float = 5.0, max_concurrent: int = 1,
                 detection_delay: float = 1.0, retry_interval: Optional[float] = None,
                 max_attempts: int = 8, slot_jitter: float = 0.0,
                 seed: Optional[int] = None,
                 membership: Optional[Membership] = None) -> None:
        for name, value in (("min_interval", min_interval),
                            ("detection_delay", detection_delay),
                            ("slot_jitter", slot_jitter)):
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and not negative")
        if max_concurrent < 1:
            raise ValueError("at least one concurrent repair slot is required")
        if max_attempts < 1:
            raise ValueError("at least one attempt is required")
        self.router = router
        self.min_interval = min_interval
        self.max_concurrent = max_concurrent
        self.detection_delay = detection_delay
        self.retry_interval = min_interval if retry_interval is None else retry_interval
        self.max_attempts = max_attempts
        #: Random extra delay in [0, slot_jitter) added to every assigned
        #: start time, de-synchronising repair waves from periodic
        #: foreground load.  Pass a seed to keep the global event order a
        #: pure function of it; with ``seed=None`` the jitter is genuinely
        #: random and runs are not reproducible.
        self.slot_jitter = slot_jitter
        self._rng = random.Random(seed)
        #: Next-free time of each rate-limiter slot (shared virtual timeline).
        self._slots: List[float] = [0.0] * max_concurrent
        self.tasks: List[RepairTask] = []
        #: node_id -> number of shard repairs still outstanding.
        self._outstanding: Dict[str, int] = {}
        self.stats = RepairStats()
        self.membership = membership if membership is not None else router.membership
        self.membership.subscribe(self._on_event)
        # A shard lazily created on a pool with failed nodes starts degraded
        # (the router crashes the slot at build time); it needs its own
        # repair tasks or it would stay degraded forever while the node is
        # eventually reported recovered.
        router.shard_created_hooks.append(self._on_shard_created)

    # -- event intake -----------------------------------------------------------

    def _on_event(self, event: MembershipEvent) -> None:
        if event.kind != FAIL or event.node.role != L2_ROLE:
            return
        self.schedule_node_repairs(event.node.node_id, event.node.pool,
                                   event.node.index, failed_at=event.time)

    def schedule_node_repairs(self, node_id: str, pool: str, l2_index: int,
                              failed_at: float = 0.0) -> List[RepairTask]:
        """Queue one repair per live shard on ``pool`` for the failed slot."""
        shards = self.router.shards_on_pool(pool)
        created: List[RepairTask] = []
        for shard in shards:
            task = RepairTask(key=shard.key, node_id=node_id, l2_index=l2_index,
                              ready_at=failed_at + self.detection_delay,
                              pool=shard.pool)
            self.tasks.append(task)
            created.append(task)
            self.stats.tasks_created += 1
        self._outstanding[node_id] = self._outstanding.get(node_id, 0) + len(created)
        for task in created:
            self._dispatch(task)
        if not created:
            # No shards to repair: the node is immediately whole again.
            self._outstanding.pop(node_id, None)
            self._recover_if_failed(node_id, failed_at)
        return created

    def _on_shard_created(self, shard: Shard) -> None:
        """Queue repairs for a shard born degraded on a partially failed pool."""
        for node in self.membership.failed_nodes(shard.pool):
            if node.role != L2_ROLE:
                continue
            task = RepairTask(
                key=shard.key, node_id=node.node_id, l2_index=node.index,
                ready_at=self.router.kernel.now + self.detection_delay,
                pool=shard.pool,
            )
            self.tasks.append(task)
            self.stats.tasks_created += 1
            self._outstanding[node.node_id] = (
                self._outstanding.get(node.node_id, 0) + 1
            )
            self._dispatch(task)

    # -- rate limiting ------------------------------------------------------------

    def _moot(self, task: RepairTask) -> bool:
        """True when there is nothing left for ``task`` to repair.

        The shard is gone; or it moved pools (migration, or a replica-group
        failover retired the degraded epoch), so the replacement does not
        host the failed slot; or the whole pool is dead and in-pool
        regeneration has no live helpers (with replica groups the
        coordinator fails the shard over instead).
        """
        shard = self.router.shards.get(task.key)
        return (shard is None
                or (task.pool is not None and shard.pool != task.pool)
                or not self.membership.pool_alive(shard.pool))

    def _give_up(self, task: RepairTask, *, moot: bool) -> None:
        task.status = GAVE_UP
        if moot:
            self.stats.moot += 1
        else:
            self.stats.failed += 1
        self._task_finished(task)

    def _dispatch(self, task: RepairTask) -> None:
        """Assign the earliest rate-limiter slot at or after ``ready_at``.

        Moot tasks give up *before* booking a rate-limiter slot, or each
        dead task would push every later (viable) repair's start time out
        by ``min_interval``.  :meth:`_execute` re-checks because a task can
        also become moot after it was scheduled.
        """
        if self._moot(task):
            self._give_up(task, moot=True)
            return
        kernel = self.router.kernel
        slot_index = min(range(len(self._slots)), key=lambda i: self._slots[i])
        start = max(task.ready_at, self._slots[slot_index], kernel.now)
        if self.slot_jitter > 0:
            start += self._rng.uniform(0.0, self.slot_jitter)
        self._slots[slot_index] = start + self.min_interval
        task.scheduled_at = start
        task.status = SCHEDULED
        self.stats.dispatched += 1
        kernel.schedule_at(start, lambda: self._execute(task))

    # -- execution -------------------------------------------------------------------

    def _execute(self, task: RepairTask) -> None:
        if task.status in (DONE, GAVE_UP):
            # Terminated between scheduling and execution (e.g. withheld
            # by an availability drill): the booked slot fires into a task
            # that no longer exists.
            return
        if self._moot(task):
            self._give_up(task, moot=True)
            return
        shard = self.router.shards[task.key]
        server = shard.system.l2_servers[task.l2_index]
        if not server.crashed:
            # Already whole (e.g. the shard migrated to a fresh epoch and
            # back, or a concurrent repair beat us to it): nothing to do.
            task.status = DONE
            task.completed_at = self.router.kernel.now
            self.stats.repairs_skipped += 1
            self._task_finished(task)
            return
        coordinator = BackendRepairCoordinator(shard.system)
        task.attempts += 1
        try:
            report = coordinator.repair(task.l2_index)
        except RepairError:
            if task.attempts >= self.max_attempts:
                self._give_up(task, moot=False)
                return
            # Not repairable yet (e.g. offloads still in flight): go back
            # through the rate limiter after a back-off.
            self.stats.retries += 1
            task.ready_at = self.router.kernel.now + self.retry_interval
            self._dispatch(task)
            return
        task.status = DONE
        task.report = report
        task.completed_at = self.router.kernel.now
        self.stats.repairs_completed += 1
        self.stats.total_download_fraction += report.download_fraction
        self._task_finished(task)

    def _task_finished(self, task: RepairTask) -> None:
        remaining = self._outstanding.get(task.node_id)
        if remaining is None:
            return
        remaining -= 1
        if remaining > 0:
            self._outstanding[task.node_id] = remaining
            return
        del self._outstanding[task.node_id]
        # Every shard of the node has been handled; report recovery unless
        # some repair permanently failed.
        if all(t.status == DONE for t in self.tasks if t.node_id == task.node_id):
            self._recover_if_failed(task.node_id, self.router.kernel.now)

    def _recover_if_failed(self, node_id: str, time: float) -> None:
        """Report recovery, tolerating nodes that left (or already recovered)
        while their repairs were in flight."""
        try:
            node = self.membership.node(node_id)
        except KeyError:
            return
        if node.status != FAILED:
            return
        if not self.membership.pool_alive(node.pool):
            # The whole pool is down (a correlated kill): its nodes are not
            # "whole again" just because no shard data needed rebuilding.
            # Bringing a dead pool back is an administrative action (or, with
            # replica groups, the failover path replaces it entirely).
            return
        self.membership.recover(node_id, time=time)

    # -- inspection -------------------------------------------------------------------

    def scheduled_times(self) -> List[float]:
        """Start times assigned by the rate limiter, in ascending order."""
        return sorted(task.scheduled_at for task in self.tasks
                      if task.scheduled_at is not None)

    def outstanding_repairs(self) -> int:
        """Repairs queued or scheduled but not finished."""
        return sum(1 for task in self.tasks if task.status in (QUEUED, SCHEDULED))

    def pending_slots(self) -> set:
        """``(key, l2_index)`` of every slot with a repair still in flight.

        The availability monitor uses this to tell a *protected* hole (a
        missing fragment the repair pipeline already knows about) from a
        silent one -- the latter is the alarm condition."""
        return {(task.key, task.l2_index) for task in self.tasks
                if task.status in (QUEUED, SCHEDULED)}

    def withhold_node(self, node_id: str) -> List[RepairTask]:
        """Abandon every unfinished repair for ``node_id`` (fault drill).

        Marks the tasks gave-up immediately -- their booked rate-limiter
        slots fire into nothing -- modelling a repair pipeline that
        silently stops serving one failed node.  Used by
        ``inject_withheld_repair`` to prove the sampling availability
        monitor notices holes the repair backlog no longer covers."""
        withheld = [task for task in self.tasks
                    if task.node_id == node_id
                    and task.status in (QUEUED, SCHEDULED)]
        # The normal finish path settles the node's outstanding count (it
        # will not report recovery: none of these tasks is DONE).
        for task in withheld:
            self._give_up(task, moot=False)
        return withheld


__all__ = ["RepairScheduler", "RepairTask", "RepairStats",
           "QUEUED", "SCHEDULED", "DONE", "GAVE_UP"]
