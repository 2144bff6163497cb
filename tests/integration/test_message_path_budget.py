"""A deterministic guard on the fixed host cost of one simulated message.

``pump_small`` at smoke scale (1/40, seed 1: 2,727 kernel events) runs
under a ``sys.setprofile`` hook that counts Python-level ``call`` events
only -- no C calls, no host clock -- so the number is exact for a given
interpreter and says how many Python frames one event costs on the
net -> sim -> core path.  Wall time is ``lds_bench``'s job; this only
keeps the frame count from creeping back unnoticed.
"""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: Python-level calls per kernel event.  Measured on CPython 3.11: 29.54
#: (80,567 calls) at the commit that made messages cheap, 51.75 (141,109)
#: at its parent.  3.12 inlines comprehensions, so it can only read lower.
MEASURED = 29.54
BUDGET = MEASURED * 1.10


def test_python_calls_per_kernel_event_stay_within_budget(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.workloads import BY_NAME, build

    simulation, scenario, _attempted = build(BY_NAME["pump_small"].scaled(1 / 40), 1)
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
    assert events == 2727
    assert calls / events <= BUDGET, (
        f"{calls} Python calls for {events} events = {calls / events:.2f} per "
        f"event, over the budget of {BUDGET:.2f} ({MEASURED} measured + 10%)")
