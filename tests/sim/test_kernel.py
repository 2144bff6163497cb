"""Unit tests for the global simulation kernel (one event queue)."""

from __future__ import annotations

import pytest

from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.kernel import FOREGROUND_SOURCE, TELEMETRY_SOURCE, GlobalScheduler


def _recorder(kernel, log, name):
    def record():
        log.append((name, kernel.now))
    return record


class TestMergedOrdering:
    def test_events_from_many_simulators_interleave_by_global_time(self):
        # Shard traffic and kernel activities share one queue: whoever
        # schedules, events run in time order.
        kernel = GlobalScheduler()
        log = []
        kernel.simulator.schedule(1.0, _recorder(kernel, log, "a1"))
        kernel.simulator.schedule(5.0, _recorder(kernel, log, "a5"))
        kernel.simulator.schedule(2.0, _recorder(kernel, log, "b2"))
        kernel.schedule_at(4.0, _recorder(kernel, log, "b4"))
        kernel.run_until_idle()
        assert log == [("a1", 1.0), ("b2", 2.0), ("b4", 4.0), ("a5", 5.0)]
        assert kernel.stats.events_total == 4

    def test_a_source_born_late_keeps_its_own_timestamps(self):
        # A shard built mid-run on the kernel stamps global
        # times from its first operation: there is nothing to translate.
        kernel = GlobalScheduler()
        kernel.schedule_at(10.0, lambda: None)
        kernel.run_until_idle()
        system = LDSSystem(LDSConfig(n1=3, n2=4, f1=1, f2=1),
                           kernel=kernel)
        result = system.write(b"late")
        assert result.invoked_at == 10.0 < result.responded_at == kernel.now

    def test_equal_times_run_in_scheduling_order(self):
        kernel = GlobalScheduler()
        log = []
        kernel.simulator.schedule(3.0, _recorder(kernel, log, "first"))
        kernel.schedule_at(3.0, _recorder(kernel, log, "second"))
        kernel.simulator.schedule(3.0, _recorder(kernel, log, "third"))
        kernel.run_until_idle()
        assert [name for name, _ in log] == ["first", "second", "third"]

    def test_callbacks_may_schedule_across_sources(self):
        kernel = GlobalScheduler()
        log = []
        # A shard event plants a kernel event (like a repair scheduler
        # reacting to a failure), which plants a shard event in turn.
        kernel.simulator.schedule(1.0, lambda: kernel.schedule_at(
            2.0, lambda: kernel.simulator.schedule(
                1.0, _recorder(kernel, log, "planted"))))
        kernel.run_until_idle()
        assert log == [("planted", 3.0)]


class TestProbes:
    def test_probes_lose_ties_and_never_move_the_clock(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(5.0, _recorder(kernel, log, "foreground"))
        kernel.schedule_probe(5.0, _recorder(kernel, log, "probe-5"))
        kernel.schedule_probe(7.0, _recorder(kernel, log, "probe-7"))
        kernel.run_until_idle()
        assert log == [("foreground", 5.0), ("probe-5", 5.0), ("probe-7", 5.0)]
        assert kernel.now == 5.0
        assert kernel.stats.events_total == 1

    def test_sources_name_the_queues(self):
        kernel = GlobalScheduler()
        assert [source.name for source in kernel.sources()] \
            == [FOREGROUND_SOURCE]
        kernel.schedule_probe(1.0, lambda: None)
        assert [source.name for source in kernel.sources()] \
            == [FOREGROUND_SOURCE, TELEMETRY_SOURCE]
        assert kernel.stats.switch_rate == 0.0


class TestProbeLoop:
    """``GlobalScheduler.every``: the one periodic probe loop."""

    def _ticks(self, kernel, log, name, interval):
        kernel.every(interval, lambda at: log.append((name, at, kernel.now)))

    def test_tick_receives_the_nominal_instant(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(30.0, lambda: None)
        self._ticks(kernel, log, "p", 10.0)
        kernel.run_until_idle()
        # ``at`` is the tick's nominal instant; ``now`` is the last
        # foreground event's time, which a probe never moves.
        assert log == [("p", 10.0, 0.0), ("p", 20.0, 0.0),
                       ("p", 30.0, 30.0)]

    def test_winds_down_when_the_foreground_drains(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(25.0, lambda: None)
        self._ticks(kernel, log, "p", 10.0)
        kernel.run_until_idle()
        # The tick past the last event records the drained state, then
        # the loop stops instead of keeping the pump alive.
        assert [at for _, at, _ in log] == [10.0, 20.0, 30.0]
        assert not kernel.step()

    @pytest.mark.parametrize("pump", ["run", "run_until_idle"])
    def test_rearms_on_the_next_pump(self, pump):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(5.0, lambda: None)
        self._ticks(kernel, log, "p", 10.0)
        kernel.run_until_idle()
        assert [at for _, at, _ in log] == [10.0]
        kernel.schedule_at(40.0, lambda: None)
        getattr(kernel, pump)()
        # Re-armed one interval after the clock (5.0), not after the
        # last tick.
        assert [at for _, at, _ in log] == [10.0, 15.0, 25.0, 35.0, 45.0]

    def test_never_moves_the_determinism_surface(self):
        def run(probed: bool) -> tuple:
            kernel = GlobalScheduler()
            kernel.schedule_at(12.5, lambda: kernel.simulator.schedule(7.0, lambda: None))
            if probed:
                kernel.every(3.0, lambda at: None)
            kernel.run_until_idle()
            kernel.schedule_at(30.0, lambda: None)
            kernel.run_until_idle()
            return kernel.now, kernel.stats.events_total, kernel.fingerprint

        assert run(True) == run(False)

    def test_equal_intervals_tick_in_registration_order(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(25.0, lambda: None)
        self._ticks(kernel, log, "first", 10.0)
        self._ticks(kernel, log, "second", 10.0)
        kernel.run_until_idle()
        kernel.schedule_at(40.0, lambda: None)
        kernel.run_until_idle()
        names = [name for name, _, _ in log]
        assert names == ["first", "second"] * (len(log) // 2)
        assert len(log) == 2 * 5


class TestRunControl:
    def test_run_until_global_time(self):
        kernel = GlobalScheduler()
        log = []
        kernel.simulator.schedule(1.0, _recorder(kernel, log, "one"))
        kernel.simulator.schedule(9.0, _recorder(kernel, log, "nine"))
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

    def test_an_infinite_until_is_rejected(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(1.0, _recorder(kernel, log, "one"))
        for until in (float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                kernel.run(until=until)
        assert (log, kernel.now, kernel.events_processed) == ([], 0.0, 0)

    def test_a_nan_until_is_rejected(self):
        kernel = GlobalScheduler()
        log = []
        kernel.schedule_at(1.0, _recorder(kernel, log, "one"))
        with pytest.raises(ValueError):
            kernel.run(until=float("nan"))
        assert (log, kernel.now, kernel.events_processed) == ([], 0.0, 0)

    def test_run_max_events(self):
        kernel = GlobalScheduler()
        for i in range(5):
            kernel.simulator.schedule(float(i + 1), lambda: None)
        kernel.run(max_events=3)
        assert kernel.events_processed == 3

    def test_run_until_idle_budget_guard(self):
        kernel = GlobalScheduler()

        def forever():
            kernel.simulator.schedule(1.0, forever)

        kernel.simulator.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            kernel.run_until_idle(max_events=50)

    def test_kernel_schedule_in_global_past_rejected(self):
        kernel = GlobalScheduler()
        kernel.schedule_at(5.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(ValueError):
            kernel.schedule_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            kernel.simulator.schedule(-1.0, lambda: None)

    def test_kernel_rejects_a_nan_time_on_both_queues(self):
        kernel = GlobalScheduler()
        with pytest.raises(ValueError):
            kernel.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            kernel.schedule_probe(float("nan"), lambda: None)
        assert not kernel.step()


class TestStatsAndTrace:
    def test_fingerprint_is_reproducible(self):
        def run():
            kernel = GlobalScheduler()
            kernel.simulator.schedule(1.5, lambda: kernel.simulator.schedule(
                2.0, lambda: None))
            kernel.simulator.schedule(2.5, lambda: None)
            kernel.run_until_idle()
            return kernel.fingerprint

        assert run() == run()
        assert run() != GlobalScheduler().fingerprint

