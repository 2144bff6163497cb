"""E5 -- MBR vs MSR operating point (Remarks 1 and 2).

Remark 1: at the MBR point, the read cost with no concurrency is Theta(1);
an MSR back-end would make it Omega(n1) even with delta = 0.
Remark 2: the MBR storage cost is at most twice the MSR storage cost.

The benchmark measures both operating points on the same deployment shape
(n1 = 2f1 + k, n2 = 2f2 + d with d = 2k - 2 so that the product-matrix MSR
construction applies) and prints the measured costs next to the formulas.
"""

import pytest

from repro.core.analysis import (
    mbr_read_cost,
    mbr_storage_cost_l2,
    msr_read_cost,
    msr_storage_cost_l2,
)
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import FixedLatencyModel

#: (n1, n2, f1, f2) with k derived so that d = 2k - 2 (PM-MSR requirement).
SWEEP = [
    (5, 6, 1, 1),    # k=3, d=4
    (8, 10, 2, 2),   # k=4, d=6
    (11, 14, 3, 3),  # k=5, d=8
]

from bench_utils import emit_table


def _measure(config: LDSConfig):
    system = LDSSystem(config, latency_model=FixedLatencyModel())
    system.write(b"operating point comparison")
    system.run_until_idle()
    read = system.read()
    return system.operation_cost(read.op_id), system.storage.l2_cost


def run_experiment():
    rows = []
    for n1, n2, f1, f2 in SWEEP:
        mbr_config = LDSConfig(n1=n1, n2=n2, f1=f1, f2=f2, operating_point="mbr")
        msr_config = LDSConfig(n1=n1, n2=n2, f1=f1, f2=f2, operating_point="msr")
        mbr_read, mbr_store = _measure(mbr_config)
        msr_read, msr_store = _measure(msr_config)
        k, d = mbr_config.k, mbr_config.d
        rows.append((
            f"n1={n1}, n2={n2}, k={k}, d={d}",
            f"{mbr_read_cost(n1, n2, k, d, 0):.2f}", f"{mbr_read:.2f}",
            f"{msr_read_cost(n1, n2, k, d, 0):.2f}", f"{msr_read:.2f}",
            f"{mbr_storage_cost_l2(n2, k, d):.2f}", f"{mbr_store:.2f}",
            f"{msr_storage_cost_l2(n2, k, d):.2f}", f"{msr_store:.2f}",
        ))
    emit_table(
        "E5-mbr-vs-msr", "MBR vs MSR back-end (Remarks 1 and 2), delta = 0 reads",
        ("system", "MBR read (paper)", "MBR read (meas)", "MSR read (paper)",
         "MSR read (meas)", "MBR store (paper)", "MBR store (meas)",
         "MSR store (paper)", "MSR store (meas)"),
        rows,
    )
    return rows


def test_bench_mbr_vs_msr():
    rows = run_experiment()
    for row in rows:
        mbr_read_paper, mbr_read_meas = float(row[1]), float(row[2])
        msr_read_paper, msr_read_meas = float(row[3]), float(row[4])
        mbr_store_paper, mbr_store_meas = float(row[5]), float(row[6])
        msr_store_paper, msr_store_meas = float(row[7]), float(row[8])
        assert mbr_read_meas == pytest.approx(mbr_read_paper, rel=1e-6)
        assert msr_read_meas == pytest.approx(msr_read_paper, rel=1e-6)
        assert mbr_store_meas == pytest.approx(mbr_store_paper, rel=1e-6)
        assert msr_store_meas == pytest.approx(msr_store_paper, rel=1e-6)
        # Remark 1: MSR reads are more expensive than MBR reads at delta = 0.
        assert msr_read_meas > mbr_read_meas
        # Remark 2: MBR storage is at most twice MSR storage.
        assert mbr_store_meas <= 2 * msr_store_meas + 1e-9
    # Shape at the paper's scale (n1 = n2 = 100, k = d = 80, Remark 1): the
    # MSR read cost is an order of magnitude above the MBR read cost even
    # with delta = 0, because relaying MSR elements alone costs n1 / k.
    assert msr_read_cost(100, 100, 80, 80, 0) > 10 * mbr_read_cost(100, 100, 80, 80, 0)
