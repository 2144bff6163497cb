"""Unit tests for the event heap and clock, run by the pump that owns it."""

import pytest

from repro.net.kernel import GlobalScheduler
from repro.net.simulator import Simulator


def pump():
    """A pump and its heap: the tests schedule on the heap, the pump runs it."""
    kernel = GlobalScheduler()
    return kernel, kernel.simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        kernel, simulator = pump()
        order = []
        simulator.schedule(5.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.schedule(3.0, lambda: order.append("middle"))
        kernel.run_until_idle()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_scheduling_order(self):
        kernel, simulator = pump()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        kernel.run_until_idle()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        kernel, simulator = pump()
        times = []
        simulator.schedule(2.5, lambda: times.append(simulator.now))
        kernel.run_until_idle()
        assert times == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        kernel, simulator = pump()
        simulator.schedule(5.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(ValueError):
            simulator.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        kernel, simulator = pump()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                simulator.schedule(1.0, lambda: chain(depth + 1))

        simulator.schedule(0.0, lambda: chain(0))
        kernel.run_until_idle()
        assert seen == [0, 1, 2, 3]
        assert simulator.now == 3.0


class TestRunControl:
    def test_run_with_event_budget(self):
        kernel, simulator = pump()
        fired = []
        for i in range(5):
            simulator.schedule(i, lambda i=i: fired.append(i))
        kernel.run(max_events=2)
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        kernel, simulator = pump()
        for i in range(3):
            simulator.schedule(i, lambda: None)
        kernel.run_until_idle()
        assert kernel.events_processed == 3


class TestEdgeCases:
    """Past-due scheduling, budget exhaustion, and idle clock advances."""

    def test_schedule_at_exactly_now_is_allowed(self):
        kernel, simulator = pump()
        simulator.schedule(5.0, lambda: None)
        kernel.run_until_idle()
        fired = []
        simulator.schedule_at(5.0, lambda: fired.append(simulator.now))
        kernel.run_until_idle()
        assert fired == [5.0]

    def test_schedule_zero_delay_runs_at_current_time(self):
        kernel, simulator = pump()
        times = []
        simulator.schedule(3.0, lambda: simulator.schedule(
            0.0, lambda: times.append(simulator.now)))
        kernel.run_until_idle()
        assert times == [3.0]

    def test_schedule_at_epsilon_before_now_rejected(self):
        kernel, simulator = pump()
        simulator.schedule(2.0, lambda: None)
        kernel.run_until_idle()
        with pytest.raises(ValueError):
            simulator.schedule_at(2.0 - 1e-9, lambda: None)

    def test_a_nan_time_is_rejected_and_the_clock_stays_ordered(self):
        kernel, simulator = pump()
        times = []
        for at in (1.0, 3.0, 5.0):
            simulator.schedule_at(at, lambda: times.append(simulator.now))
        with pytest.raises(ValueError):
            simulator.schedule_at(float("nan"), lambda: times.append("nan"))
        with pytest.raises(ValueError):
            simulator.schedule(float("nan"), lambda: times.append("nan"))
        kernel.run_until_idle()
        assert times == [1.0, 3.0, 5.0]

    def test_past_due_rejection_inside_a_callback(self):
        kernel, simulator = pump()
        errors = []

        def callback():
            try:
                simulator.schedule_at(simulator.now - 0.5, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        simulator.schedule(1.0, callback)
        kernel.run_until_idle()
        assert len(errors) == 1

    def test_max_events_exhaustion_resumes_where_it_stopped(self):
        kernel, simulator = pump()
        fired = []
        for i in range(6):
            simulator.schedule(float(i), lambda i=i: fired.append(i))
        kernel.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert simulator.now == 3.0
        kernel.run(max_events=4)
        assert fired == [0, 1, 2, 3, 4, 5]
        assert kernel.events_processed == 6

    def test_clock_advances_to_until_when_idle(self):
        kernel, simulator = pump()
        kernel.run(until=42.0)
        assert simulator.now == 42.0
        # A second bounded run with a smaller horizon must not rewind.
        kernel.run(until=10.0)
        assert simulator.now == 42.0

    def test_a_past_until_with_events_pending_does_not_rewind(self):
        kernel, simulator = pump()
        fired = []
        simulator.schedule_at(100.0, lambda: fired.append(simulator.now))
        simulator.schedule_at(200.0, lambda: fired.append(simulator.now))
        kernel.run(until=120.0)
        assert (fired, simulator.now) == ([100.0], 120.0)
        kernel.run(until=50.0)
        assert simulator.now == 120.0
        # A later relative event lands after everything already executed.
        simulator.schedule(1.0, lambda: fired.append(simulator.now))
        kernel.run_until_idle()
        assert fired == [100.0, 121.0, 200.0]

    def test_clock_advances_past_last_event_to_until(self):
        kernel, simulator = pump()
        simulator.schedule(1.0, lambda: None)
        kernel.run(until=7.5)
        assert simulator.now == 7.5

    def test_event_exactly_at_until_runs(self):
        kernel, simulator = pump()
        fired = []
        simulator.schedule(5.0, lambda: fired.append("edge"))
        kernel.run(until=5.0)
        assert fired == ["edge"]
        assert simulator.now == 5.0

    def test_until_and_max_events_combine(self):
        kernel, simulator = pump()
        fired = []
        for i in range(5):
            simulator.schedule(float(i), lambda i=i: fired.append(i))
        kernel.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        kernel.run(until=2.5)
        assert fired == [0, 1, 2]
        assert simulator.now == 2.5


class TestPeek:
    def test_peek_time_on_empty_queue(self):
        assert Simulator().peek_time() is None

    def test_peek_time_reports_next_event_without_running_it(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(4.0, lambda: fired.append(4))
        simulator.schedule(2.0, lambda: fired.append(2))
        assert simulator.peek_time() == 2.0
        assert fired == []
        assert simulator.now == 0.0


class TestHeapOrdering:
    def test_ten_thousand_equal_time_events_stay_fifo(self):
        kernel, simulator = pump()
        fired = []
        for i in range(10_000):
            simulator.schedule_at(1.0, lambda i=i: fired.append(i))
        kernel.run_until_idle()
        assert fired == list(range(10_000))

    def test_callbacks_are_never_compared(self):
        class Callback:
            """Callable, with every ordering comparison an error."""

            def __init__(self, log, name):
                self.log, self.name = log, name

            def __call__(self):
                self.log.append(self.name)

            def __lt__(self, other):
                raise AssertionError("the heap compared two callbacks")

            __gt__ = __le__ = __ge__ = __lt__

        kernel, simulator = pump()
        log = []
        for name in "abcdef":
            simulator.schedule_at(1.0, Callback(log, name))
        simulator.schedule_at(0.5, Callback(log, "first"))
        kernel.run_until_idle()
        assert log == ["first", *"abcdef"]
