"""A deterministic guard on the fixed host cost of one simulated message.

A workload at smoke scale runs under a ``sys.setprofile`` hook that counts
Python-level ``call`` events only -- no C calls, no host clock -- so the
number is exact for a given interpreter and says how many Python frames one
event costs on the net -> sim -> core path and in the code layer below it.
Wall time is ``lds_bench``'s job; this only keeps the frame count from
creeping back unnoticed.  Two rows, as two tests rather than one
parametrised one because the first test's id is pinned.  A third test
counts the one product the code layer could repeat per message: helper data.
"""

import sys
from pathlib import Path

import pytest

from repro.codes.layered import LayeredCode

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def check_calls_per_event(monkeypatch, workload, scale, expected_events, measured):
    """``measured`` is Python-level calls per kernel event on CPython 3.11
    (3.12 inlines comprehensions, so it can only read lower); the budget is
    10% above it."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.workloads import BY_NAME, build

    simulation, scenario, _attempted = build(BY_NAME[workload].scaled(scale), 1)
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        simulation.apply(scenario)
    finally:
        sys.setprofile(previous)
    events = simulation.kernel.stats.events_total
    assert events == expected_events
    budget = measured * 1.10
    assert calls / events <= budget, (
        f"{calls} Python calls for {events} events = {calls / events:.2f} per "
        f"event, over the budget of {budget:.2f} ({measured} measured + 10%)")


def test_python_calls_per_kernel_event_stay_within_budget(monkeypatch):
    # pump_small, one stripe per value: 24.14 (65,842 calls); 27.23 while
    # the kernel merged one queue per shard, 28.66 while an L2 server
    # computed helper data per request, 29.54 before the whole-value codec,
    # 51.75 before messages were made cheap.
    check_calls_per_event(monkeypatch, "pump_small", 1 / 40, 2727, 24.14)


def test_calls_per_event_do_not_grow_with_the_value_size(monkeypatch):
    # regen_large, 11 stripes per value: 23.39 (72,834 calls); 26.52 while
    # the kernel merged one queue per shard, 30.07 while an L2 server
    # computed helper data per request, **83.87** while the codec walked a
    # value stripe by stripe.  What a value costs the code layer must not
    # depend on its size: the budget here (25.73) may follow the message
    # path down, but never goes above 35.
    check_calls_per_event(monkeypatch, "regen_large", 1 / 4, 3114, 23.39)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_helper_data_is_computed_once_per_stored_element(monkeypatch, seed):
    # Each of a shard's n2 L2 servers computes helper data at most once per
    # element it ever stores -- the initial one and one per write -- however
    # many reads regenerate from it: 77 here, 140 at full size (139 measured
    # at seed 1, where 3,752 requests are answered).
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.workloads import BY_NAME, build, generate_inputs

    spec = BY_NAME["regen_large"].scaled(1 / 4)
    writes = sum(kind == "write" for kind, *_ in generate_inputs(spec, seed)[0])
    assert writes == 3
    computed = []
    compute = LayeredCode.helper_data

    def counting(self, **stored):
        computed.append(stored["l2_server"])
        return compute(self, **stored)

    monkeypatch.setattr(LayeredCode, "helper_data", counting)
    simulation, scenario, _attempted = build(spec, seed)
    simulation.apply(scenario)
    n2 = 7  # lds_bench's LDSConfig(n1=5, n2=7, f1=1, f2=1)
    assert 0 < len(computed) <= n2 * (spec.keys + writes)
