"""Unit tests for the global simulation kernel (merged event pump)."""

from __future__ import annotations

import pytest

from repro.net.simulator import Simulator
from repro.sim.kernel import KERNEL_SOURCE, GlobalScheduler


def _recorder(kernel, log, name):
    def record():
        log.append((name, kernel.now))
    return record


class TestRegistration:
    def test_duplicate_names_rejected(self):
        kernel = GlobalScheduler()
        kernel.register_simulator(Simulator(), name="a")
        with pytest.raises(ValueError):
            kernel.register_simulator(Simulator(), name="a")

    def test_unregistered_source_is_forgotten(self):
        kernel = GlobalScheduler()
        kernel.register_simulator(Simulator(), name="gone")
        kernel.unregister("gone")
        with pytest.raises(KeyError):
            kernel.source("gone")


class TestMergedOrdering:
    def test_events_from_many_simulators_interleave_by_global_time(self):
        kernel = GlobalScheduler()
        log = []
        sim_a, sim_b = Simulator(), Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        sim_a.schedule(1.0, _recorder(kernel, log, "a1"))
        sim_a.schedule(5.0, _recorder(kernel, log, "a5"))
        sim_b.schedule(2.0, _recorder(kernel, log, "b2"))
        sim_b.schedule(4.0, _recorder(kernel, log, "b4"))
        kernel.run_until_idle()
        assert log == [("a1", 1.0), ("b2", 2.0), ("b4", 4.0), ("a5", 5.0)]
        assert kernel.stats.context_switches == 2  # a->b and b->a

    def test_a_source_born_late_keeps_its_own_timestamps(self):
        kernel = GlobalScheduler()
        log = []
        early, late = Simulator(), Simulator(start=10.0)
        kernel.register_simulator(early, name="early")
        kernel.register_simulator(late, name="late")
        early.schedule(11.0, _recorder(kernel, log, "early11"))
        late.schedule(0.5, lambda: log.append(("late10.5", late.now)))
        kernel.run_until_idle()
        # The late source's clock *is* the global clock: nothing is shifted.
        assert log == [("late10.5", 10.5), ("early11", 11.0)]
        assert kernel.now == 11.0

    def test_ties_break_by_registration_order(self):
        kernel = GlobalScheduler()
        log = []
        first, second = Simulator(), Simulator()
        kernel.register_simulator(first, name="first")
        kernel.register_simulator(second, name="second")
        second.schedule(3.0, _recorder(kernel, log, "second"))
        first.schedule(3.0, _recorder(kernel, log, "first"))
        kernel.run_until_idle()
        assert log == [("first", 3.0), ("second", 3.0)]

    def test_kernel_events_win_ties_against_shard_events(self):
        kernel = GlobalScheduler()
        log = []
        shard = Simulator()
        kernel.register_simulator(shard, name="shard")
        shard.schedule(2.0, _recorder(kernel, log, "shard"))
        kernel.schedule_at(2.0, _recorder(kernel, log, "kernel"))
        kernel.run_until_idle()
        assert log == [("kernel", 2.0), ("shard", 2.0)]

    def test_callbacks_may_schedule_across_sources(self):
        kernel = GlobalScheduler()
        log = []
        sim_a, sim_b = Simulator(), Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        # a's event plants a later event into b (like a repair scheduler
        # reacting to a failure by scheduling work on another shard).
        sim_a.schedule(1.0, lambda: sim_b.schedule_at(
            2.0, _recorder(kernel, log, "planted")))
        kernel.run_until_idle()
        assert log == [("planted", 2.0)]

    def test_clock_is_monotone_even_for_lagging_sources(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(10.0, lambda: None)
        kernel.run_until_idle()
        lagging = Simulator()
        kernel.register_simulator(lagging, name="lagging")
        lagging.schedule(1.0, _recorder(kernel, log, "late-event"))
        kernel.run_until_idle()
        # The event's nominal global time (1.0) already passed; it runs
        # immediately without rewinding the global clock.
        assert log == [("late-event", 10.0)]
        assert kernel.now == 10.0


class TestRunControl:
    def test_run_until_global_time(self):
        kernel = GlobalScheduler()
        log = []
        shard = Simulator()
        kernel.register_simulator(shard, name="shard")
        shard.schedule(1.0, _recorder(kernel, log, "one"))
        shard.schedule(9.0, _recorder(kernel, log, "nine"))
        kernel.run(until=5.0)
        assert log == [("one", 1.0)]
        assert kernel.now == 5.0
        kernel.run_until_idle()
        assert [name for name, _ in log] == ["one", "nine"]

    def test_run_until_advances_clock_when_idle(self):
        kernel = GlobalScheduler()
        kernel.run(until=33.0)
        assert kernel.now == 33.0

    def test_run_until_in_the_past_never_rewinds_the_clock(self):
        kernel = GlobalScheduler()
        kernel.run(until=100.0)
        # pending future work must not let a stale bound rewind the clock
        kernel.schedule_at(150.0, lambda: None)
        kernel.run(until=50.0)
        assert kernel.now == 100.0
        with pytest.raises(ValueError):
            kernel.schedule_at(60.0, lambda: None)
        kernel.run_until_idle()
        assert kernel.now == 150.0

    def test_run_max_events(self):
        kernel = GlobalScheduler()
        shard = Simulator()
        kernel.register_simulator(shard, name="shard")
        for i in range(5):
            shard.schedule(float(i + 1), lambda: None)
        kernel.run(max_events=3)
        assert kernel.events_processed == 3

    def test_run_until_idle_budget_guard(self):
        kernel = GlobalScheduler()
        shard = Simulator()
        kernel.register_simulator(shard, name="shard")

        def forever():
            shard.schedule(1.0, forever)

        shard.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            kernel.run_until_idle(max_events=50)

    def test_kernel_schedule_in_global_past_rejected(self):
        kernel = GlobalScheduler()
        kernel.schedule_at(5.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(ValueError):
            kernel.schedule_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            kernel.schedule(-1.0, lambda: None)


class TestStatsAndTrace:
    def test_per_source_event_counts(self):
        kernel = GlobalScheduler()
        sim_a, sim_b = Simulator(), Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        for i in range(3):
            sim_a.schedule(float(i), lambda: None)
        sim_b.schedule(0.5, lambda: None)
        kernel.run_until_idle()
        assert kernel.stats.events_by_source == {"a": 3, "b": 1}
        assert kernel.stats.events_total == 4
        assert kernel.stats.busiest_sources(1) == [("a", 3)]

    def test_trace_records_global_times_and_sources(self):
        kernel = GlobalScheduler(record_trace=True)
        shard = Simulator(start=100.0)
        kernel.register_simulator(shard, name="shard")
        shard.schedule(1.0, lambda: None)
        kernel.schedule_at(50.0, lambda: None)
        kernel.run_until_idle()
        assert kernel.trace == [(50.0, KERNEL_SOURCE), (101.0, "shard")]

    def test_fingerprint_is_reproducible(self):
        def run():
            kernel = GlobalScheduler()
            sim_a, sim_b = Simulator(), Simulator()
            kernel.register_simulator(sim_a, name="a")
            kernel.register_simulator(sim_b, name="b")
            sim_a.schedule(1.5, lambda: sim_a.schedule(2.0, lambda: None))
            sim_b.schedule(2.5, lambda: None)
            kernel.run_until_idle()
            return kernel.fingerprint

        assert run() == run()
        assert run() != GlobalScheduler().fingerprint


class TestHeapSelection:
    """The O(log S) head heap must replay the linear scan's order exactly."""

    def test_cross_source_scheduling_reindexes_the_target_head(self):
        # An event on A schedules an *earlier* event on B than anything the
        # kernel knew about; the head listener must surface it immediately.
        kernel = GlobalScheduler()
        sim_a = Simulator()
        sim_b = Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        log = []
        sim_a.schedule_at(1.0, lambda: sim_b.schedule_at(
            2.0, _recorder(kernel, log, "b")))
        sim_a.schedule_at(10.0, _recorder(kernel, log, "a"))
        kernel.run_until_idle()
        assert log == [("b", 2.0), ("a", 10.0)]

    def test_cancelled_head_is_skipped_for_the_next_real_head(self):
        kernel = GlobalScheduler()
        sim_a = Simulator()
        sim_b = Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        log = []
        doomed = sim_a.schedule_at(1.0, _recorder(kernel, log, "a-doomed"))
        sim_a.schedule_at(5.0, _recorder(kernel, log, "a"))
        sim_b.schedule_at(3.0, _recorder(kernel, log, "b"))
        doomed.cancel()
        kernel.run_until_idle()
        assert log == [("b", 3.0), ("a", 5.0)]

    def test_clamped_heads_tie_break_by_registration_order(self):
        # Two sources whose raw head times lie in the global past are both
        # effectively due "now"; the first-registered one must win even if
        # its raw head time is later -- the linear scan's exact semantics.
        kernel = GlobalScheduler()
        sim_a = Simulator()
        sim_b = Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        kernel.schedule_at(10.0, lambda: None)
        kernel.run_until_idle()
        assert kernel.now == 10.0
        log = []
        sim_a.schedule_at(5.0, _recorder(kernel, log, "a"))
        sim_b.schedule_at(3.0, _recorder(kernel, log, "b"))
        head = kernel.peek()
        assert head == (10.0, "a")
        kernel.run_until_idle()
        assert [name for name, _ in log] == ["a", "b"]
        # Both executed at the clamped global time.
        assert [t for _, t in log] == [10.0, 10.0]

    def test_unregistered_source_entries_are_discarded(self):
        kernel = GlobalScheduler()
        sim_a = Simulator()
        sim_b = Simulator()
        kernel.register_simulator(sim_a, name="a")
        kernel.register_simulator(sim_b, name="b")
        sim_a.schedule_at(1.0, lambda: None)
        sim_b.schedule_at(2.0, lambda: None)
        kernel.unregister("a")
        assert kernel.peek() == (2.0, "b")
        kernel.run_until_idle()
        assert kernel.now == 2.0

    def test_peek_is_idempotent_and_matches_step(self):
        kernel = GlobalScheduler()
        sim = Simulator()
        kernel.register_simulator(sim, name="s")
        sim.schedule_at(4.0, lambda: None)
        assert kernel.peek() == kernel.peek() == (4.0, "s")
        assert kernel.step()
        assert kernel.now == 4.0
