"""Where a workload's arrivals sit in the kernel's event order.

Every arrival of a workload takes its place in the ``(time, sequence)``
order when the workload is added, so it wins an exact-time tie against
any event scheduled after ``add_workload`` returns, however late the
arrival is due.  The router keeps only one arrival per workload on the
kernel's queue at a time; the rest wait behind it.
"""

from __future__ import annotations

import pytest

from repro.core.config import LDSConfig
from repro.sim import ClusterSimulation
from repro.workloads.generator import ScheduledOperation, Workload

POOLS = ["pool-0", "pool-1"]


def _workload(key: str = "obj-0") -> Workload:
    """Alternating writes and reads of one key at the integer times 0,
    100, ..., 700."""
    return Workload([
        ScheduledOperation("write", 100.0 * t, value=f"v{t}".encode(), key=key)
        if t % 2 == 0 else ScheduledOperation("read", 100.0 * t, key=key)
        for t in range(8)
    ])


def _run(tied_at=None):
    """Run the workload; ``tied_at`` adds a kernel event at that instant
    after ``add_workload`` returns.  Returns the order in which arrivals
    and that event ran, the merged history and the kernel fingerprint."""
    simulation = ClusterSimulation(LDSConfig(n1=3, n2=4, f1=1, f2=1), POOLS,
                                   seed=1)
    kernel = simulation.kernel
    order = []
    simulation.add_workload(
        _workload(), on_handle=lambda kind, handle: order.append(
            ("arrival", kernel.now)))
    if tied_at is not None:
        kernel.schedule_at(tied_at, lambda: order.append(("event", kernel.now)))
    simulation.run_until_idle()
    history = sorted((op.op_id, op.kind, op.value, op.invoked_at,
                      op.responded_at, op.tag) for op in simulation.history())
    return order, history, kernel.fingerprint


@pytest.mark.parametrize("tied_at", [0.0, 500.0, 700.0])
def test_an_arrival_wins_a_tie_against_a_later_scheduled_event(tied_at):
    order, history, _ = _run(tied_at)
    event = order.index(("event", tied_at))
    assert order[event - 1] == ("arrival", tied_at)
    assert [entry for entry in order if entry[0] == "arrival"] == [
        ("arrival", 100.0 * t) for t in range(8)]
    # The tied event observes nothing, so the run is the untied one.
    assert history == _run()[1]


def test_the_arrivals_run_in_the_same_order_every_time():
    assert _run(500.0) == _run(500.0)


def test_a_workload_keeps_one_arrival_on_the_queue():
    simulation = ClusterSimulation(LDSConfig(n1=3, n2=4, f1=1, f2=1), POOLS,
                                   seed=1)
    queue = simulation.kernel.simulator

    def arrivals_queued():
        return sum(1 for event in queue._queue
                   if getattr(event[2], "__qualname__", "").startswith(
                       "ObjectRouter.add_workload."))

    simulation.add_workload(_workload("obj-0"))
    simulation.add_workload(_workload("obj-1"), start=30.0)
    assert queue.pending_events == arrivals_queued() == 2
    assert simulation.arrivals_waiting == 14
    while simulation.kernel.step():
        assert arrivals_queued() <= 2
    assert simulation.stats.arrivals == 16
    assert simulation.arrivals_waiting == 0
    assert simulation.check_atomicity() is None
