"""Unit tests for crash-failure injection."""

import pytest

from repro.net.failures import CrashSchedule, FailureInjector
from repro.net.latency import FixedLatencyModel, L1
from repro.net.network import Network
from repro.net.process import Process


def build_network(pids):
    network = Network(latency_model=FixedLatencyModel())
    for pid in pids:
        process = Process(pid, link_class=L1)
        process.on_message = lambda sender, message: None  # type: ignore[assignment]
        network.register(process)
    return network


class TestCrashSchedule:
    def test_add_and_apply(self):
        network = build_network(["a", "b", "c"])
        schedule = CrashSchedule().add("a", 1.0).add("c", 2.0)
        schedule.apply(network)
        network.kernel.run_until_idle()
        assert not network.alive("a")
        assert network.alive("b")
        assert not network.alive("c")

    def test_crash_happens_at_the_scheduled_time(self):
        network = build_network(["a"])
        CrashSchedule().add("a", 5.0).apply(network)
        network.kernel.run(until=4.0)
        assert network.alive("a")
        network.kernel.run_until_idle()
        assert not network.alive("a")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule().add("a", -1.0)

    def test_unknown_process_rejected(self):
        network = build_network(["a"])
        with pytest.raises(ValueError):
            CrashSchedule().add("ghost", 1.0).apply(network)

    def test_merge_prefers_other(self):
        merged = CrashSchedule().add("a", 1.0).merge(CrashSchedule().add("a", 9.0))
        assert merged.crash_times["a"] == 9.0
        assert len(merged) == 1


class TestFailureInjector:
    def test_random_schedule_respects_budget(self):
        injector = FailureInjector(seed=1)
        schedule = injector.random_schedule(["a", "b", "c", "d"], max_failures=2,
                                            time_range=(0.0, 10.0))
        assert len(schedule) == 2
        assert all(0.0 <= t <= 10.0 for t in schedule.crash_times.values())

    def test_random_schedule_exact_count(self):
        injector = FailureInjector(seed=2)
        schedule = injector.random_schedule(["a", "b", "c"], max_failures=2,
                                            time_range=(0.0, 1.0), failures=1)
        assert len(schedule) == 1

    def test_budget_violation_rejected(self):
        injector = FailureInjector(seed=3)
        with pytest.raises(ValueError):
            injector.random_schedule(["a", "b"], max_failures=1, time_range=(0, 1), failures=2)

    def test_not_enough_candidates_rejected(self):
        injector = FailureInjector(seed=3)
        with pytest.raises(ValueError):
            injector.random_schedule(["a"], max_failures=3, time_range=(0, 1))

    def test_seeded_injector_is_reproducible(self):
        a = FailureInjector(seed=7).random_schedule(list("abcdef"), 3, (0, 5))
        b = FailureInjector(seed=7).random_schedule(list("abcdef"), 3, (0, 5))
        assert a.crash_times == b.crash_times
