"""E7 -- repair bandwidth of the code layer (Section II-c, reference [25]).

The reason LDS uses MBR regenerating codes is that reconstructing one
coded element via repair downloads only ``d * beta = alpha`` symbols,
whereas a Reed-Solomon style recreation downloads ``k`` full elements
(the whole object).  This benchmark measures the actual bytes moved by
the implemented codes for a sweep of (k, d) and compares with the
normalised formulas.
"""

import pytest

from repro.codes.product_matrix import ProductMatrixMBRCode
from repro.codes.reed_solomon import ReedSolomonCode

from bench_utils import emit_table

SWEEP = [(3, 4, 10), (4, 6, 12), (5, 8, 16), (8, 12, 24)]  # (k, d, n)
PAYLOAD = bytes(range(256)) * 2


def _mbr_repair_bytes(code: ProductMatrixMBRCode, payload: bytes) -> int:
    elements = code.encode(payload)
    failed = 0
    helpers = {i: code.helper_data(i, elements[i].data, failed) for i in range(1, code.d + 1)}
    repaired = code.repair(failed, helpers)
    assert repaired.data == elements[failed].data
    return sum(len(data) for data in helpers.values())


def _rs_recreate_bytes(code: ReedSolomonCode, payload: bytes) -> int:
    elements = code.encode(payload)
    subset = elements[1 : code.k + 1]
    assert code.decode(subset) == payload
    return sum(len(element.data) for element in subset)


def run_experiment():
    rows = []
    for k, d, n in SWEEP:
        mbr = ProductMatrixMBRCode(n=n, k=k, d=d)
        rs = ReedSolomonCode(n=n, k=k)
        payload_symbols = mbr.stripe_count(len(PAYLOAD)) * mbr.block_size
        mbr_bytes = _mbr_repair_bytes(mbr, PAYLOAD)
        rs_bytes = _rs_recreate_bytes(rs, PAYLOAD)
        rows.append((
            f"(n={n}, k={k}, d={d})",
            f"{float(mbr.repair_bandwidth_fraction):.3f}",
            f"{mbr_bytes / payload_symbols:.3f}",
            "1.000",
            f"{rs_bytes / (rs.stripe_count(len(PAYLOAD)) * rs.block_size):.3f}",
            f"{float(mbr.storage_overhead):.2f}",
            f"{rs.storage_overhead:.2f}",
        ))
    emit_table(
        "E7-repair-bandwidth",
        "Rebuilding one element: MBR repair vs Reed-Solomon recreation (normalised)",
        ("code", "MBR repair (paper)", "MBR repair (measured)",
         "RS recreate (paper)", "RS recreate (measured)",
         "MBR storage overhead", "RS storage overhead"),
        rows,
    )
    return rows


def test_bench_repair_bandwidth():
    rows = run_experiment()
    for row in rows:
        mbr_paper, mbr_measured = float(row[1]), float(row[2])
        rs_measured = float(row[4])
        assert mbr_measured == pytest.approx(mbr_paper, rel=1e-6)
        assert rs_measured == pytest.approx(1.0, rel=1e-6)
        # The headline claim: MBR repair moves strictly less data than a full
        # Reed-Solomon recreation whenever k > 1.
        assert mbr_measured < rs_measured
    # Shape: the repair advantage grows as k grows.
    fractions = [float(row[2]) for row in rows]
    assert fractions[-1] < fractions[0]
