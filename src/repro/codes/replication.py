"""Replication as a degenerate erasure code.

Replication is the comparison point the paper uses when discussing storage
cost: "If we had used replication in L2 ... the L2 storage cost per object
would have been n2 = 100" (Section V, discussion of Figure 6).  Modelling
it through the same :class:`~repro.codes.base.ErasureCode` interface lets
the benchmarks swap it in for the regenerating code without touching the
protocol code.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.codes.base import ErasureCode


class ReplicationCode(ErasureCode):
    """An (n, 1) replication code: every server stores the full value."""

    def __init__(self, n: int, block_size: int = 64) -> None:
        if n < 1:
            raise ValueError("replication requires at least one server")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.n = n
        self.k = 1
        self._block_size = block_size

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def element_size(self) -> int:
        return self._block_size

    def _encode_stripes(self, payload: bytes, stripes: int) -> Tuple[bytes, ...]:
        return (payload,) * self.n

    def _decode_stripes(self, indices: List[int], received: List[bytes],
                        stripes: int) -> bytes:
        return received[0]

    def __repr__(self) -> str:
        return f"ReplicationCode(n={self.n})"


__all__ = ["ReplicationCode"]
