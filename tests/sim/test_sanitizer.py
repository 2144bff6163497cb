"""Drills for the runtime kernel sanitizer.

Each invariant gets a drill that breaks it on purpose -- rewinding the
clock, scheduling into the past, mutating foreground state from a probe,
leaking a watched pending map -- and the sanitizer must catch every one.
The flip side is noninterference: a sanitized fixed-seed cluster run must
produce a byte-identical kernel fingerprint to the unsanitized run.
"""

from __future__ import annotations

import pytest

from repro.core.config import LDSConfig
from repro.cluster.replicas import ReplicationConfig
from repro.sim import ClusterSimulation, quorum_reads_under_lag
from repro.net.kernel import FOREGROUND_SOURCE, TELEMETRY_SOURCE, GlobalScheduler
from repro.net.sanitizer import (
    CLOCK_REGRESSION,
    PAST_SCHEDULE,
    PENDING_LEAK,
    PROBE_MUTATION,
    SanitizerError,
)

CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)


def _sanitized_kernel(strict: bool = True):
    kernel = GlobalScheduler()
    sanitizer = kernel.enable_sanitizer(strict=strict)
    return kernel, sanitizer


class TestClockRegressionDrill:
    def test_callback_rewinding_the_local_clock_is_caught(self):
        kernel, _ = _sanitized_kernel()
        simulator = kernel.simulator
        simulator.schedule(5.0, lambda: None)

        def rewind():
            simulator._now = 2.0

        simulator.schedule(6.0, rewind)
        with pytest.raises(SanitizerError) as err:
            kernel.run_until_idle()
        assert err.value.violation.kind == CLOCK_REGRESSION
        assert err.value.violation.source == FOREGROUND_SOURCE

    def test_recording_mode_accumulates_instead_of_raising(self):
        kernel, sanitizer = _sanitized_kernel(strict=False)
        simulator = kernel.simulator
        simulator.schedule(5.0, lambda: None)

        def rewind():
            simulator._now = 2.0

        simulator.schedule(6.0, rewind)
        kernel.run_until_idle()
        kinds = [v.kind for v in sanitizer.violations]
        assert CLOCK_REGRESSION in kinds
        assert not sanitizer.ok

    def test_clean_run_checks_every_event_and_stays_ok(self):
        kernel, sanitizer = _sanitized_kernel()
        simulator = kernel.simulator
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        kernel.run_until_idle()
        assert sanitizer.ok
        assert sanitizer.events_checked == 3


class TestPastScheduleDrill:
    def test_scheduling_into_the_local_past_raises_structured_error(self):
        kernel, _ = _sanitized_kernel()
        simulator = kernel.simulator

        def schedule_backwards():
            simulator.schedule_at(1.0, lambda: None)

        simulator.schedule(5.0, schedule_backwards)
        with pytest.raises(SanitizerError) as err:
            kernel.run_until_idle()
        assert err.value.violation.kind == PAST_SCHEDULE
        assert err.value.violation.source == FOREGROUND_SOURCE

    def test_recording_mode_still_records_before_the_value_error(self):
        kernel, sanitizer = _sanitized_kernel(strict=False)
        simulator = kernel.simulator

        def schedule_backwards():
            simulator.schedule_at(1.0, lambda: None)

        simulator.schedule(5.0, schedule_backwards)
        # The simulator's own past-check still raises; the sanitizer's
        # guard has already recorded the attempt.
        with pytest.raises(ValueError):
            kernel.run_until_idle()
        assert [v.kind for v in sanitizer.violations] == [PAST_SCHEDULE]

    def test_scheduling_at_exactly_now_is_legal(self):
        kernel, sanitizer = _sanitized_kernel()
        simulator = kernel.simulator
        ran = []

        def schedule_now():
            simulator.schedule_at(simulator.now, lambda: ran.append(True))

        simulator.schedule(5.0, schedule_now)
        kernel.run_until_idle()
        assert ran == [True]
        assert sanitizer.ok


class TestProbeMutationDrill:
    def test_probe_scheduling_foreground_work_is_caught(self):
        kernel, _ = _sanitized_kernel()
        kernel.simulator.schedule(10.0, lambda: None)

        def impure_probe():
            kernel.schedule_at(7.0, lambda: None)

        kernel.schedule_probe(5.0, impure_probe)
        with pytest.raises(SanitizerError) as err:
            kernel.run_until_idle()
        assert err.value.violation.kind == PROBE_MUTATION
        assert err.value.violation.source == TELEMETRY_SOURCE
        assert "pending_events" in err.value.violation.detail

    def test_probe_pumping_another_source_is_caught(self):
        kernel, _ = _sanitized_kernel()
        simulator = kernel.simulator
        simulator.schedule(10.0, lambda: None)

        def impure_probe():
            simulator.step()

        kernel.schedule_probe(5.0, impure_probe)
        with pytest.raises(SanitizerError) as err:
            kernel.run_until_idle()
        assert err.value.violation.kind == PROBE_MUTATION
        assert "global clock changed 0.0 -> 10.0" in err.value.violation.detail

    def test_pure_probe_passes_the_write_barrier(self):
        kernel, sanitizer = _sanitized_kernel()
        kernel.simulator.schedule(10.0, lambda: None)
        seen = []

        def pure_probe():
            seen.append((kernel.now, kernel.pending_work()))

        kernel.schedule_probe(5.0, pure_probe)
        kernel.run_until_idle()
        assert seen == [(0.0, True)]
        assert sanitizer.ok
        assert sanitizer.probes_checked == 1


class TestPendingLeakDrill:
    def test_watched_map_left_nonempty_at_idle_is_caught(self):
        kernel, sanitizer = _sanitized_kernel()
        simulator = kernel.simulator
        pending = {}
        sanitizer.watch_map("drill.pending", pending)

        def start_and_forget():
            pending["op-1"] = ("key", 5.0)

        simulator.schedule(5.0, start_and_forget)
        with pytest.raises(SanitizerError) as err:
            kernel.run_until_idle()
        assert err.value.violation.kind == PENDING_LEAK
        assert err.value.violation.source == "drill.pending"
        assert "op-1" in err.value.violation.detail

    def test_drained_map_is_clean(self):
        kernel, sanitizer = _sanitized_kernel()
        simulator = kernel.simulator
        pending = {}
        sanitizer.watch_map("drill.pending", pending)
        simulator.schedule(5.0, lambda: pending.__setitem__("op-1", 1))
        simulator.schedule(6.0, lambda: pending.pop("op-1"))
        kernel.run_until_idle()
        assert sanitizer.ok


class TestHarnessIntegration:
    def _run(self, sanitize: bool) -> ClusterSimulation:
        simulation = ClusterSimulation(
            CONFIG, ["pool-0", "pool-1", "pool-2"], seed=7,
            writers_per_shard=2, readers_per_shard=2,
            replication=ReplicationConfig(r=3, replication_lag=400.0,
                                          read_quorum=2),
            read_policy="quorum", sanitize=sanitize)
        keys = [f"obj-{i}" for i in range(4)]
        simulation.ensure_shards(keys)
        simulation.apply(quorum_reads_under_lag(keys, seed=7))
        return simulation

    def test_sanitized_run_is_byte_identical_and_clean(self):
        bare = self._run(sanitize=False)
        sanitized = self._run(sanitize=True)
        assert bare.kernel.sanitizer is None
        sanitizer = sanitized.kernel.sanitizer
        assert sanitized.kernel.fingerprint == bare.kernel.fingerprint
        assert sanitizer.ok
        assert sanitizer.events_checked == bare.kernel.stats.events_total

    def test_replica_pending_maps_are_watched_end_to_end(self):
        simulation = self._run(sanitize=True)
        # Plant a leak in the replica layer's watched pending map: the
        # next drain to idle must flag it through the harness wiring.
        simulation.replicas._pending_reads["ghost"] = object()
        with pytest.raises(SanitizerError) as err:
            simulation.run_until_idle()
        assert err.value.violation.kind == PENDING_LEAK
        assert err.value.violation.source == "replicas.pending_reads"
