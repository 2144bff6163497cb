"""The layered (C, C1, C2) code used by the LDS algorithm.

Section II-c of the paper defines a single ``{(n = n1 + n2, k, d)(alpha,
beta)}`` MBR code ``C`` whose first ``n1`` symbols are associated with the
edge-layer servers (code ``C1``) and whose last ``n2`` symbols are
associated with the back-end servers (code ``C2``).  The protocol uses the
three codes as follows:

* an L1 server that holds the value encodes it with ``C2`` and sends coded
  element ``c_{n1+i}`` to L2 server ``i`` (internal ``write-to-L2``);
* an L1 server ``s_j`` that needs coded data back reconstructs *its own*
  code symbol ``c_j`` of ``C`` via the regenerating-code repair procedure
  with ``d`` helpers drawn from L2 (internal ``regenerate-from-L2``);
* a reader that has received ``k`` coded elements from distinct L1 servers
  decodes the value using ``C1`` (any ``k`` symbols of an MBR code decode).

:class:`LayeredCode` packages exactly these operations so the protocol
code never touches matrix algebra directly.  It works with either the MBR
code (the paper's choice) or the MSR code (for the Remark 1/2 ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Tuple

from repro.codes.base import CodedElement, DecodingError, RegeneratingCode, RepairError
from repro.codes.product_matrix import ProductMatrixMBRCode, ProductMatrixMSRCode


@dataclass(frozen=True)
class LayeredCodeCosts:
    """Normalised (value size = 1) message/storage sizes of the layered code."""

    #: Size of one coded element (alpha / B) -- stored per L2 server and sent
    #: per server during write-to-L2 and when relaying regenerated elements.
    element_fraction: Fraction
    #: Size of one repair-helper message (beta / B).
    helper_fraction: Fraction
    #: Total download of one regenerate-from-L2 operation (d * beta / B).
    regeneration_fraction: Fraction
    #: Total permanent storage across L2 (n2 * alpha / B).
    backend_storage_fraction: Fraction


@lru_cache(maxsize=None)
def _regenerating_code(operating_point: str, n: int, k: int, d: int) -> RegeneratingCode:
    """The code ``C``: immutable, so every system on one parameter set shares it."""
    if operating_point == "mbr":
        return ProductMatrixMBRCode(n, k, d)
    if operating_point == "msr":
        if d != 2 * k - 2:
            raise ValueError("the product-matrix MSR construction requires d = 2k - 2")
        return ProductMatrixMSRCode(n, k)
    raise ValueError(f"unknown operating point {operating_point!r}")


class LayeredCode:
    """The two-layer view of a single regenerating code.

    Args:
        n1: number of edge-layer (L1) servers.
        n2: number of back-end (L2) servers.
        k: reconstruction parameter of the regenerating code.
        d: repair degree of the regenerating code (helpers are L2 servers,
            so ``d <= n2`` is required for regeneration to be possible).
        operating_point: ``"mbr"`` (the paper's choice) or ``"msr"``.
    """

    def __init__(self, n1: int, n2: int, k: int, d: int,
                 operating_point: str = "mbr") -> None:
        if n1 < 1 or n2 < 1:
            raise ValueError("both layers need at least one server")
        if d > n2:
            raise ValueError("regeneration needs d <= n2 (helpers come from L2)")
        if k > n1:
            raise ValueError("decoding from L1 needs k <= n1")
        self.n1 = n1
        self.n2 = n2
        self.operating_point = operating_point.lower()
        self.code: RegeneratingCode = _regenerating_code(self.operating_point, n1 + n2, k, d)
        self.k = k
        self.d = d
        params = self.code.parameters
        #: The normalised message/storage sizes used for cost accounting.
        self.costs = LayeredCodeCosts(
            element_fraction=params.storage_per_node,
            helper_fraction=params.helper_per_node,
            regeneration_fraction=params.repair_bandwidth,
            backend_storage_fraction=Fraction(n2) * params.storage_per_node,
        )

    # -- index mapping --------------------------------------------------------

    def l1_symbol_index(self, l1_server: int) -> int:
        """Code-symbol index of L1 server ``l1_server`` (0-based)."""
        if not 0 <= l1_server < self.n1:
            raise ValueError(f"L1 server index {l1_server} out of range")
        return l1_server

    def l2_symbol_index(self, l2_server: int) -> int:
        """Code-symbol index of L2 server ``l2_server`` (0-based)."""
        if not 0 <= l2_server < self.n2:
            raise ValueError(f"L2 server index {l2_server} out of range")
        return self.n1 + l2_server

    # -- the three protocol-facing operations ----------------------------------

    def encode_for_backend(self, value: bytes) -> Dict[int, CodedElement]:
        """Encode a value with C2: coded elements keyed by L2 server index."""
        elements = self.code.encode(value)
        return {
            l2_server: elements[self.l2_symbol_index(l2_server)]
            for l2_server in range(self.n2)
        }

    def helper_data(self, l2_server: int, stored: CodedElement) -> Tuple[bytes, ...]:
        """Helper data an L2 server computes for repairing each L1 symbol:
        entry ``j`` is what it sends L1 server ``j``, all ``n1`` from one product.

        Only the identity of the requesting L1 server is needed -- the L2
        server does not know (and must not need to know) which other L2
        servers will also act as helpers -- so the answer to every request
        is fixed once the element is stored.
        """
        return self.code.helper_data_for(
            helper_index=self.l2_symbol_index(l2_server),
            helper_element=stored.data,
            failed_indices=range(self.n1),  # the L1 symbols of C
        )

    def regenerate_l1_element(self, l1_server: int,
                              helper_messages: Mapping[int, bytes]) -> CodedElement:
        """Regenerate L1 server ``l1_server``'s code symbol from L2 helper data.

        ``helper_messages`` is keyed by L2 server index.  At least ``d``
        distinct helpers are required.
        """
        if len(helper_messages) < self.d:
            raise RepairError(
                f"regeneration needs d={self.d} helpers, got {len(helper_messages)}"
            )
        translated = {
            self.l2_symbol_index(l2_server): data
            for l2_server, data in helper_messages.items()
        }
        return self.code.repair(self.l1_symbol_index(l1_server), translated)

    def decode_from_l1(self, elements: Mapping[int, bytes]) -> bytes:
        """Decode the value from coded elements held by >= k L1 servers (code C1)."""
        if len(elements) < self.k:
            raise DecodingError(
                f"decoding needs k={self.k} coded elements, got {len(elements)}"
            )
        coded = [
            CodedElement(index=self.l1_symbol_index(l1_server), data=data)
            for l1_server, data in elements.items()
        ]
        return self.code.decode(coded)

    def decode_from_backend(self, elements: Mapping[int, bytes]) -> bytes:
        """Decode the value directly from >= k L2 coded elements (code C2).

        Not used by the LDS protocol itself but useful for recovery tooling
        and tests: the back-end alone must always be able to rebuild the
        persistent value.
        """
        if len(elements) < self.k:
            raise DecodingError(
                f"decoding needs k={self.k} coded elements, got {len(elements)}"
            )
        coded = [
            CodedElement(index=self.l2_symbol_index(l2_server), data=data)
            for l2_server, data in elements.items()
        ]
        return self.code.decode(coded)

    def __repr__(self) -> str:
        return (
            f"LayeredCode(n1={self.n1}, n2={self.n2}, k={self.k}, d={self.d}, "
            f"point={self.operating_point!r})"
        )


__all__ = ["LayeredCode", "LayeredCodeCosts"]
