"""Pins what the four lds_bench workloads do at smoke scale, seed 1.

The values were recorded at commit f5baaa1, before the code layer was
rewritten (product-table GF(2^8), batched stripes, memoised repair
inverses): a change underneath the protocol that alters any coded byte,
message or event order moves these, and must not.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: workload -> (kernel fingerprint, events executed, messages sent)
RECORDED = {
    "pump_small": (3418208950, 2727, 2676),
    "regen_large": (3057707594, 839, 822),
    "write_heavy": (1226215423, 865, 848),
    "replica_faults": (1569939775, 4651, 3455),
}


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_smoke_scale_run_is_unchanged(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.repetition import run_repetition
    from lds_bench.workloads import BY_NAME

    exact = run_repetition(BY_NAME[workload].scaled(1 / 40), 1, "timed")["exact"]
    assert exact["audit_ok"] and not exact["incomplete"]
    assert (exact["fingerprint"], exact["sim.events"],
            exact["net.messages_sent"]) == RECORDED[workload]
