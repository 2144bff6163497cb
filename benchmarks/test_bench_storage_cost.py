"""E2 -- permanent (L2) storage cost (Lemma V.3 and Remark 2).

Measures the back-end storage cost of one object for the MBR code used by
LDS and compares against the MSR and replication alternatives:

* MBR:          2 d n2 / (k (2d - k + 1))    (what LDS pays)
* MSR:          n2 / k                        (at most half of MBR)
* replication:  n2                            (the Figure 6 discussion point)
"""

import pytest

from repro.core.analysis import (
    mbr_storage_cost_l2,
    msr_storage_cost_l2,
    replication_storage_cost_l2,
)
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import FixedLatencyModel

from bench_utils import emit_table

SWEEP = [
    # (n1, n2, f1, f2)
    (4, 6, 1, 1),
    (5, 6, 1, 1),
    (8, 9, 2, 2),
    (12, 12, 3, 3),
    (16, 18, 4, 5),
]


def _measure(n1, n2, f1, f2):
    config = LDSConfig(n1=n1, n2=n2, f1=f1, f2=f2)
    system = LDSSystem(config, latency_model=FixedLatencyModel())
    system.write(b"storage benchmark value")
    system.run_until_idle()
    return config, system.storage.l2_cost, system.storage.l1_cost


def run_experiment():
    rows = []
    for n1, n2, f1, f2 in SWEEP:
        config, measured_l2, residual_l1 = _measure(n1, n2, f1, f2)
        rows.append((
            config.describe(),
            f"{mbr_storage_cost_l2(n2, config.k, config.d):.3f}",
            f"{measured_l2:.3f}",
            f"{msr_storage_cost_l2(n2, config.k, config.d):.3f}",
            f"{replication_storage_cost_l2(n2):.0f}",
            f"{residual_l1:.3f}",
        ))
    emit_table(
        "E2-storage-cost", "Permanent storage cost per object (Lemma V.3, Remark 2)",
        ("system", "MBR (paper)", "MBR (measured)", "MSR (paper)",
         "replication (paper)", "residual L1 after write"),
        rows,
    )
    return rows


def test_bench_l2_storage_cost():
    rows = run_experiment()
    for row in rows:
        paper, measured = float(row[1]), float(row[2])
        assert measured == pytest.approx(paper, rel=1e-6)
        # Remark 2: MBR costs at most twice MSR; both are far below replication.
        assert paper <= 2 * float(row[3]) + 1e-9
        assert paper < float(row[4])
        # Lemma V.1: temporary storage has drained once the write settles.
        assert float(row[5]) == pytest.approx(0.0)
