#!/usr/bin/env python3
"""Code-layer comparison: MBR vs MSR vs Reed-Solomon vs replication.

Works directly with the code substrate (no protocol) to show why the paper
picks product-matrix MBR codes for the back-end: rebuilding one coded
element via regenerating-code repair downloads far less data than a
Reed-Solomon recreation, while the storage overhead stays close to MDS.

Run with:  python examples/code_comparison.py
"""

from repro.codes import (
    ProductMatrixMBRCode,
    ProductMatrixMSRCode,
    ReedSolomonCode,
    ReplicationCode,
)

PAYLOAD = bytes(range(256)) * 4
N, K, D = 12, 4, 6


def section(title: str) -> None:
    print(f"\n--- {title} ---")


def main() -> None:
    print(f"payload: {len(PAYLOAD)} bytes, code parameters n={N}, k={K}, d={D}")

    section("storage overhead (stored bytes / payload bytes)")
    for name, code in [
        ("replication", ReplicationCode(N)),
        ("Reed-Solomon", ReedSolomonCode(N, K)),
        ("product-matrix MSR", ProductMatrixMSRCode(N, K)),
        ("product-matrix MBR", ProductMatrixMBRCode(N, K, D)),
    ]:
        print(f"  {name:<20} {code.storage_overhead:6.2f}x")

    section("rebuilding one element (download / payload size)")
    mbr = ProductMatrixMBRCode(N, K, D)
    rs = ReedSolomonCode(N, K)
    mbr_elements = mbr.encode(PAYLOAD)
    helpers = {i: mbr.helper_data(i, mbr_elements[i].data, 0) for i in range(1, D + 1)}
    mbr_download = sum(len(h) for h in helpers.values())
    payload_bytes = mbr.stripe_count(len(PAYLOAD)) * mbr.block_size
    repaired = mbr.repair(0, helpers)
    assert repaired.data == mbr_elements[0].data
    print(f"  MBR repair ({D} helpers, beta each):  {mbr_download / payload_bytes:6.3f}")
    rs_elements = rs.encode(PAYLOAD)
    rs_download = sum(len(e.data) for e in rs_elements[:K])
    print(f"  Reed-Solomon recreation (k elements): "
          f"{rs_download / (rs.stripe_count(len(PAYLOAD)) * rs.block_size):6.3f}")

    section("decode-from-any-k sanity checks")
    print(f"  MBR decode from elements 3..{3+K-1}:   "
          f"{mbr.decode(mbr_elements[3:3 + K]) == PAYLOAD}")
    print(f"  RS  decode from elements 5..{5+K-1}:   "
          f"{rs.decode(rs_elements[5:5 + K]) == PAYLOAD}")


if __name__ == "__main__":
    main()
