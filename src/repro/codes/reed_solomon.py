"""Reed-Solomon (MDS) codes over GF(2^8).

An ``(n, k)`` Reed-Solomon code encodes ``k`` payload symbols into ``n``
coded symbols such that any ``k`` of them suffice to decode.  The paper
uses Reed-Solomon codes as the representative of "popular erasure codes"
that regenerating codes are compared against: they are storage-optimal
(MSR-like) but a repair or recreation of one symbol requires downloading
``k`` full symbols.

The implementation uses a Vandermonde generator matrix; decoding inverts
the k x k submatrix formed by the surviving rows.  A systematic variant is
available so that the first ``k`` coded symbols equal the payload.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.codes.base import DecodingError, ErasureCode, interleave
from repro.gf.builders import systematic_vandermonde, vandermonde_matrix
from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix, SingularMatrixError


class ReedSolomonCode(ErasureCode):
    """An (n, k) MDS code built from a Vandermonde generator matrix."""

    def __init__(self, n: int, k: int, systematic: bool = False) -> None:
        if not 1 <= k <= n:
            raise ValueError("Reed-Solomon requires 1 <= k <= n")
        if n > 255:
            raise ValueError("GF(2^8) Reed-Solomon supports at most n = 255")
        self.n = n
        self.k = k
        self.systematic = systematic
        builder = systematic_vandermonde if systematic else vandermonde_matrix
        self.generator: GFMatrix = builder(n, k)

    @property
    def block_size(self) -> int:
        return self.k

    @property
    def element_size(self) -> int:
        return 1

    # -- codec ----------------------------------------------------------------

    def _encode_stripes(self, payload: bytes, stripes: int) -> Tuple[bytes, ...]:
        # Symbol s of G @ [payload symbol j of every stripe] is stripe s's codeword.
        k = self.k
        return GF256.matmul(self.generator.data, [payload[j::k] for j in range(k)])

    def _decode_stripes(self, indices: List[int], received: List[bytes],
                        stripes: int) -> bytes:
        try:
            inverse = self.generator.inverse_of_rows(indices)  # k x k
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("received symbols do not span the payload") from exc
        return interleave(GF256.matmul(inverse, received))

    def __repr__(self) -> str:
        return f"ReedSolomonCode(n={self.n}, k={self.k}, systematic={self.systematic})"


__all__ = ["ReedSolomonCode"]
