"""A deterministic guard on the fixed host cost of one simulated message.

A workload at smoke scale runs under a ``sys.setprofile`` hook that counts
Python-level ``call`` events only -- no C calls, no host clock -- so the
number is exact for a given interpreter and says how many Python frames one
event costs on the net -> sim -> core path and in the code layer below it.
Wall time is ``lds_bench``'s job; this only keeps the frame count from
creeping back unnoticed.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: ``(workload, scale, kernel events at seed 1, Python-level calls per event
#: measured on CPython 3.11)``; 3.12 inlines comprehensions, so it can only
#: read lower.  ``pump_small`` (one stripe per value) read 29.54 before the
#: whole-value codec and 51.75 before messages were made cheap.
#: ``regen_large`` has 11 stripes per value and read **83.87** while the
#: codec walked a value stripe by stripe: what a value costs the code layer
#: must not depend on its size, so this row stays under 35 whatever else moves.
MEASURED = [
    ("pump_small", 1 / 40, 2727, 28.66),
    ("regen_large", 1 / 4, 3114, 30.07),
]


@pytest.mark.parametrize("workload, scale, expected_events, measured", MEASURED,
                         ids=[row[0] for row in MEASURED])
def test_python_calls_per_kernel_event_stay_within_budget(
        monkeypatch, workload, scale, expected_events, measured):
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
    budget = min(measured * 1.10, 35.0)
    assert calls / events <= budget, (
        f"{calls} Python calls for {events} events = {calls / events:.2f} per "
        f"event, over the budget of {budget:.2f} ({measured} measured + 10%)")
