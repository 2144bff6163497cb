"""Unit tests for the discrete-event simulator."""

import pytest

from repro.net.simulator import Simulator


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(5.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.schedule(3.0, lambda: order.append("middle"))
        simulator.run_until_idle()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run_until_idle()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        simulator = Simulator()
        times = []
        simulator.schedule(2.5, lambda: times.append(simulator.now))
        simulator.run_until_idle()
        assert times == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        simulator = Simulator()
        simulator.schedule(5.0, lambda: None)
        simulator.run_until_idle()
        with pytest.raises(ValueError):
            simulator.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        simulator = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                simulator.schedule(1.0, lambda: chain(depth + 1))

        simulator.schedule(0.0, lambda: chain(0))
        simulator.run_until_idle()
        assert seen == [0, 1, 2, 3]
        assert simulator.now == 3.0


class TestRunControl:
    def test_run_until_time_bound(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(10))
        simulator.run(until=5.0)
        assert fired == [1]
        assert simulator.now == 5.0
        simulator.run_until_idle()
        assert fired == [1, 10]

    def test_run_with_event_budget(self):
        simulator = Simulator()
        fired = []
        for i in range(5):
            simulator.schedule(i, lambda i=i: fired.append(i))
        simulator.run(max_events=2)
        assert fired == [0, 1]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        simulator = Simulator()
        for i in range(3):
            simulator.schedule(i, lambda: None)
        simulator.run_until_idle()
        assert simulator.events_processed == 3

    def test_run_until_idle_budget_guard(self):
        simulator = Simulator()

        def forever():
            simulator.schedule(1.0, forever)

        simulator.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            simulator.run_until_idle(max_events=100)


class TestEdgeCases:
    """Past-due scheduling, budget exhaustion, and idle clock advances."""

    def test_schedule_at_exactly_now_is_allowed(self):
        simulator = Simulator()
        simulator.schedule(5.0, lambda: None)
        simulator.run_until_idle()
        fired = []
        simulator.schedule_at(5.0, lambda: fired.append(simulator.now))
        simulator.run_until_idle()
        assert fired == [5.0]

    def test_schedule_zero_delay_runs_at_current_time(self):
        simulator = Simulator()
        times = []
        simulator.schedule(3.0, lambda: simulator.schedule(
            0.0, lambda: times.append(simulator.now)))
        simulator.run_until_idle()
        assert times == [3.0]

    def test_schedule_at_epsilon_before_now_rejected(self):
        simulator = Simulator()
        simulator.schedule(2.0, lambda: None)
        simulator.run_until_idle()
        with pytest.raises(ValueError):
            simulator.schedule_at(2.0 - 1e-9, lambda: None)

    def test_past_due_rejection_inside_a_callback(self):
        simulator = Simulator()
        errors = []

        def callback():
            try:
                simulator.schedule_at(simulator.now - 0.5, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        simulator.schedule(1.0, callback)
        simulator.run_until_idle()
        assert len(errors) == 1

    def test_max_events_exhaustion_resumes_where_it_stopped(self):
        simulator = Simulator()
        fired = []
        for i in range(6):
            simulator.schedule(float(i), lambda i=i: fired.append(i))
        simulator.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert simulator.now == 3.0
        simulator.run(max_events=4)
        assert fired == [0, 1, 2, 3, 4, 5]
        assert simulator.events_processed == 6

    def test_max_events_does_not_count_cancelled_events(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("cancelled"))
        simulator.schedule(2.0, lambda: fired.append("a"))
        simulator.schedule(3.0, lambda: fired.append("b"))
        handle.cancel()
        simulator.run(max_events=2)
        assert fired == ["a", "b"]

    def test_clock_advances_to_until_when_idle(self):
        simulator = Simulator()
        simulator.run(until=42.0)
        assert simulator.now == 42.0
        # A second bounded run with a smaller horizon must not rewind.
        simulator.run(until=10.0)
        assert simulator.now == 42.0

    def test_clock_advances_past_last_event_to_until(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run(until=7.5)
        assert simulator.now == 7.5

    def test_event_exactly_at_until_runs(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(5.0, lambda: fired.append("edge"))
        simulator.run(until=5.0)
        assert fired == ["edge"]
        assert simulator.now == 5.0

    def test_until_and_max_events_combine(self):
        simulator = Simulator()
        fired = []
        for i in range(5):
            simulator.schedule(float(i), lambda i=i: fired.append(i))
        simulator.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        simulator.run(until=2.5)
        assert fired == [0, 1, 2]
        assert simulator.now == 2.5

    def test_step_skips_cancelled_and_runs_next_real_event(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("no"))
        simulator.schedule(2.0, lambda: fired.append("yes"))
        handle.cancel()
        assert simulator.step() is True
        assert fired == ["yes"]
        assert simulator.events_processed == 1


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

    def test_peek_time_skips_cancelled_head(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        simulator.schedule(3.0, lambda: None)
        handle.cancel()
        assert simulator.peek_time() == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("no"))
        handle.cancel()
        simulator.run_until_idle()
        assert fired == []
        assert handle.cancelled

    def test_cancel_one_of_many(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append("a"))
        handle = simulator.schedule(2.0, lambda: fired.append("b"))
        simulator.schedule(3.0, lambda: fired.append("c"))
        handle.cancel()
        simulator.run_until_idle()
        assert fired == ["a", "c"]

    def test_cancel_after_the_event_ran_leaves_later_events_untouched(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("ran"))
        simulator.schedule(2.0, lambda: fired.append("later"))
        assert simulator.step()
        handle.cancel()  # a no-op: the event already ran
        assert simulator.pending_events == 1
        simulator.run_until_idle()
        assert fired == ["ran", "later"]
        assert simulator.events_processed == 2

    def test_handle_reports_its_time_before_and_after_the_run(self):
        simulator = Simulator()
        handle = simulator.schedule(2.5, lambda: None)
        assert handle.time == 2.5 and not handle.cancelled
        simulator.run_until_idle()
        assert handle.time == 2.5 and not handle.cancelled


class TestHeapOrdering:
    def test_ten_thousand_equal_time_events_stay_fifo(self):
        simulator = Simulator()
        fired = []
        for i in range(10_000):
            simulator.schedule_at(1.0, lambda i=i: fired.append(i))
        simulator.run_until_idle()
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

        simulator = Simulator()
        log = []
        for name in "abcdef":
            simulator.schedule_at(1.0, Callback(log, name))
        simulator.schedule_at(0.5, Callback(log, "first"))
        simulator.run_until_idle()
        assert log == ["first", *"abcdef"]
