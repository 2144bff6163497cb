"""Property-based tests of LDS executions: liveness + atomicity on random schedules.

These are the Theorem IV.8 / IV.9 checks: for randomly generated
invocation schedules, latency samples and crash patterns within the
failure budgets, every operation of a non-faulty client completes and the
resulting history is atomic (checked with ``check_atomicity`` and with the
tag-free exhaustive search of the test oracle).  Every example runs on a
sanitized event pump, and a schedule replayed gives the same fingerprint.
"""

import os
import sys

from hypothesis import given, settings, strategies as st

from repro.consistency.linearizability import check_atomicity
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.core.tags import Tag
from repro.net.latency import BoundedLatencyModel

ORACLE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "consistency")
if ORACLE_DIR not in sys.path:
    sys.path.insert(0, ORACLE_DIR)

import linearizability_oracle  # noqa: E402


@st.composite
def schedules(draw):
    """A random schedule of client invocations plus crash times."""
    num_writes = draw(st.integers(min_value=1, max_value=4))
    num_reads = draw(st.integers(min_value=1, max_value=4))
    writes = [
        (draw(st.integers(min_value=0, max_value=1)),            # writer index
         draw(st.floats(min_value=0.0, max_value=150.0)))        # invocation time
        for _ in range(num_writes)
    ]
    reads = [
        (draw(st.integers(min_value=0, max_value=1)),
         draw(st.floats(min_value=0.0, max_value=150.0)))
        for _ in range(num_reads)
    ]
    latency_seed = draw(st.integers(min_value=0, max_value=2**16))
    crash_l1 = draw(st.booleans())
    crash_l2 = draw(st.booleans())
    crash_time = draw(st.floats(min_value=0.0, max_value=150.0))
    return writes, reads, latency_seed, crash_l1, crash_l2, crash_time


def run_schedule(schedule):
    writes, reads, latency_seed, crash_l1, crash_l2, crash_time = schedule
    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    system = LDSSystem(config, num_writers=2, num_readers=2,
                       latency_model=BoundedLatencyModel(tau0=1, tau1=1, tau2=5,
                                                         seed=latency_seed))
    sanitizer = system.kernel.enable_sanitizer()
    # Well-formedness: serialise operations per client by spacing them out.
    next_free = {}
    spacing = 120.0
    for index, (writer, at) in enumerate(writes):
        key = ("w", writer)
        at = max(at, next_free.get(key, 0.0))
        next_free[key] = at + spacing
        system.invoke_write(f"value-{index}".encode(), writer=writer, at=at)
    for reader, at in reads:
        key = ("r", reader)
        at = max(at, next_free.get(key, 0.0))
        next_free[key] = at + spacing
        system.invoke_read(reader=reader, at=at)
    if crash_l1:
        system.crash_l1(2, at=crash_time)
    if crash_l2:
        system.crash_l2(4, at=crash_time)
    system.run_until_idle()
    assert sanitizer.ok and sanitizer.events_checked == system.kernel.events_processed
    return system


class TestRandomExecutions:
    @settings(max_examples=25, deadline=None)
    @given(schedules())
    def test_liveness_every_client_operation_completes(self, schedule):
        system = run_schedule(schedule)
        history = system.history()
        assert all(op.is_complete for op in history)

    @settings(max_examples=25, deadline=None)
    @given(schedules())
    def test_atomicity_of_random_executions(self, schedule):
        system = run_schedule(schedule)
        history = system.history().complete()
        assert check_atomicity(history) is None

    @settings(max_examples=10, deadline=None)
    @given(schedules())
    def test_a_replayed_schedule_gives_the_same_fingerprint(self, schedule):
        first, second = run_schedule(schedule), run_schedule(schedule)
        assert first.kernel.events_processed > 0
        assert first.kernel.fingerprint == second.kernel.fingerprint

    @settings(max_examples=10, deadline=None)
    @given(schedules())
    def test_tag_free_linearizability_of_random_executions(self, schedule):
        system = run_schedule(schedule)
        history = system.history().complete()
        assert linearizability_oracle.is_linearizable(history)

    @settings(max_examples=15, deadline=None)
    @given(schedules())
    def test_server_invariants_hold_at_quiescence(self, schedule):
        system = run_schedule(schedule)
        for server in system.l1_servers:
            if server.crashed:
                continue
            # Lemma IV.2: live values never carry tags below the committed tag.
            for tag, value in server.list_storage.items():
                if value is not None:
                    assert tag >= server.committed_tag
        for server in system.l2_servers:
            if server.crashed:
                continue
            assert server.stored_tag >= Tag.initial()

    @settings(max_examples=15, deadline=None)
    @given(schedules())
    def test_reads_return_values_that_were_actually_written(self, schedule):
        system = run_schedule(schedule)
        history = system.history()
        written = {op.value for op in history.writes()} | {system.config.initial_value}
        for read in history.reads():
            if read.is_complete:
                assert read.value in written
