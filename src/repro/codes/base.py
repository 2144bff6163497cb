"""Common interfaces for the code layer.

Every code exposes two views:

* a **block view** -- ``encode_block`` / ``decode_block`` operate on a
  fixed-size block of ``block_size`` GF(2^8) symbols (one byte per symbol)
  and produce per-server coded elements of ``element_size`` symbols; and
* a **byte view** -- ``encode`` / ``decode`` operate on arbitrary byte
  strings by striping them across as many blocks as needed and prefixing
  the payload with its length, so that round-tripping restores the exact
  bytes.

Regenerating codes additionally expose the repair interface
(``helper_symbols`` / ``repair_element``) that the LDS internal
``regenerate-from-L2`` operation relies on.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.gf.gf256 import GF256

#: Number of bytes used to record the original payload length in the
#: striped byte-level encoding.
_LENGTH_HEADER = 4


class DecodingError(ValueError):
    """Raised when decoding cannot recover the original data."""


class RepairError(ValueError):
    """Raised when a coded element cannot be regenerated from helper data."""


@dataclass(frozen=True)
class CodedElement:
    """A coded element destined for / stored by one server.

    Attributes:
        index: the code-symbol index (0-based position within the codeword).
        data: the coded bytes for this index.
    """

    index: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


class ErasureCode(ABC):
    """Abstract base class for all codes in :mod:`repro.codes`."""

    #: Total number of code symbols (servers).
    n: int
    #: Number of symbols sufficient for decoding.
    k: int

    # -- block-level interface (must be provided by subclasses) -----------

    @property
    @abstractmethod
    def block_size(self) -> int:
        """Number of payload symbols encoded per block (the file size B)."""

    @property
    @abstractmethod
    def element_size(self) -> int:
        """Number of symbols stored per server per block (alpha)."""

    @abstractmethod
    def encode_block(self, block: np.ndarray) -> List[np.ndarray]:
        """Encode one block of ``block_size`` symbols into ``n`` elements."""

    @abstractmethod
    def decode_block(self, elements: Mapping[int, np.ndarray]) -> np.ndarray:
        """Decode one block from coded elements keyed by symbol index."""

    # -- derived size properties -------------------------------------------

    @property
    def storage_overhead(self) -> float:
        """Total stored symbols divided by payload symbols (n * alpha / B)."""
        return self.n * self.element_size / self.block_size

    @property
    def element_fraction(self) -> float:
        """Size of one coded element as a fraction of the payload (alpha / B)."""
        return self.element_size / self.block_size

    # -- byte-level interface ----------------------------------------------

    def _padded_payload(self, data: bytes) -> np.ndarray:
        """Length-prefix and zero-pad ``data`` to a whole number of blocks."""
        payload = struct.pack(">I", len(data)) + bytes(data)
        block = self.block_size
        padding = (-len(payload)) % block
        padded = payload + b"\x00" * padding
        return np.frombuffer(padded, dtype=np.uint8).copy()

    def _strip_payload(self, symbols: np.ndarray) -> bytes:
        """Inverse of :meth:`_padded_payload`."""
        raw = symbols.astype(np.uint8).tobytes()
        if len(raw) < _LENGTH_HEADER:
            raise DecodingError("decoded payload shorter than length header")
        (length,) = struct.unpack(">I", raw[:_LENGTH_HEADER])
        body = raw[_LENGTH_HEADER:]
        if length > len(body):
            raise DecodingError("decoded payload truncated")
        return body[:length]

    def stripe_count(self, data_length: int) -> int:
        """Number of blocks needed to encode ``data_length`` payload bytes."""
        total = data_length + _LENGTH_HEADER
        return max(1, -(-total // self.block_size))

    def encode(self, data: bytes) -> List[CodedElement]:
        """Encode arbitrary bytes into ``n`` coded elements.

        The elements concatenate the per-stripe coded symbols, so each
        element has length ``stripe_count * element_size`` bytes.
        """
        symbols = self._padded_payload(data)
        stripes = symbols.reshape(-1, self.block_size)
        outputs: List[List[np.ndarray]] = [[] for _ in range(self.n)]
        for stripe in stripes:
            encoded = self.encode_block(stripe)
            for index, element in enumerate(encoded):
                outputs[index].append(element)
        return [
            CodedElement(index=i, data=np.concatenate(parts).astype(np.uint8).tobytes())
            for i, parts in enumerate(outputs)
        ]

    def decode(self, elements: Sequence[CodedElement]) -> bytes:
        """Decode the original bytes from any sufficient set of elements."""
        if not elements:
            raise DecodingError("no coded elements supplied")
        by_index: Dict[int, np.ndarray] = {}
        for element in elements:
            by_index[element.index] = GF256.as_array(element.data)
        lengths = {arr.size for arr in by_index.values()}
        if len(lengths) != 1:
            raise DecodingError("coded elements have inconsistent lengths")
        (total_length,) = lengths
        if total_length == 0:
            raise DecodingError("empty coded element: zero stripes")
        if total_length % self.element_size:
            raise DecodingError("coded element length is not a whole number of stripes")
        stripes = total_length // self.element_size
        decoded_blocks = []
        for stripe in range(stripes):
            start = stripe * self.element_size
            stop = start + self.element_size
            stripe_elements = {idx: arr[start:stop] for idx, arr in by_index.items()}
            decoded_blocks.append(self.decode_block(stripe_elements))
        symbols = np.concatenate(decoded_blocks)
        return self._strip_payload(symbols)


class RegeneratingCode(ErasureCode):
    """Base class for codes that additionally support node repair.

    Subclasses must provide the per-block repair primitives; the byte-level
    ``helper_data`` / ``repair`` methods handle striping.
    """

    #: Number of helpers contacted during repair.
    d: int

    @property
    @abstractmethod
    def helper_size(self) -> int:
        """Symbols sent by one helper per block (beta)."""

    @abstractmethod
    def helper_symbols_block(
        self, helper_index: int, helper_element: np.ndarray, failed_index: int
    ) -> np.ndarray:
        """Compute the ``beta`` helper symbols one helper sends for a repair.

        The computation must depend only on the helper's own element and the
        identity of the failed node -- *not* on which other servers end up
        being helpers.  This is the property of the product-matrix codes the
        LDS algorithm relies on (Section II-c of the paper).
        """

    @abstractmethod
    def repair_block(
        self, failed_index: int, helper_data: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild the failed node's element for one block from helper data."""

    @property
    def helper_fraction(self) -> float:
        """Size of one helper message as a fraction of the payload (beta / B)."""
        return self.helper_size / self.block_size

    @property
    def repair_bandwidth_fraction(self) -> float:
        """Total repair download as a fraction of the payload (d * beta / B)."""
        return self.d * self.helper_size / self.block_size

    def helper_data(
        self, helper_index: int, helper_element: bytes, failed_index: int
    ) -> bytes:
        """Byte-level helper computation (handles striping)."""
        element = GF256.as_array(helper_element)
        if element.size == 0:
            raise RepairError("empty helper element: zero stripes")
        if element.size % self.element_size:
            raise RepairError("helper element length is not a whole number of stripes")
        stripes = element.size // self.element_size
        pieces = []
        for stripe in range(stripes):
            start = stripe * self.element_size
            chunk = element[start : start + self.element_size]
            pieces.append(self.helper_symbols_block(helper_index, chunk, failed_index))
        return np.concatenate(pieces).astype(np.uint8).tobytes()

    def repair(self, failed_index: int, helper_data: Mapping[int, bytes]) -> CodedElement:
        """Byte-level repair of a coded element from helper responses."""
        if len(helper_data) < self.d:
            raise RepairError(
                f"repair needs at least d={self.d} helpers, got {len(helper_data)}"
            )
        arrays = {idx: GF256.as_array(data) for idx, data in helper_data.items()}
        lengths = {arr.size for arr in arrays.values()}
        if len(lengths) != 1:
            raise RepairError("helper messages have inconsistent lengths")
        (total,) = lengths
        if total == 0:
            raise RepairError("empty helper message: zero stripes")
        if total % self.helper_size:
            raise RepairError("helper message length is not a whole number of stripes")
        stripes = total // self.helper_size
        pieces = []
        for stripe in range(stripes):
            start = stripe * self.helper_size
            stop = start + self.helper_size
            per_stripe = {idx: arr[start:stop] for idx, arr in arrays.items()}
            pieces.append(self.repair_block(failed_index, per_stripe))
        data = np.concatenate(pieces).astype(np.uint8).tobytes()
        return CodedElement(index=failed_index, data=data)


__all__ = [
    "CodedElement",
    "DecodingError",
    "ErasureCode",
    "RegeneratingCode",
    "RepairError",
]
