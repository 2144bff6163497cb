"""Common interfaces for the code layer.

Every code is linear, so all ``S`` stripes of a value go through the same
small matrices: a code implements each operation **once**, as an array
computation with a stripe axis (``_encode_stripes`` and friends), and the
base classes derive both public views from it:

* a **byte view** -- ``encode`` / ``decode`` operate on arbitrary byte
  strings by striping them across as many blocks as needed and prefixing
  the payload with its length, so that round-tripping restores the exact
  bytes; one array-level call per value, whatever its length; and
* a **block view** -- ``encode_block`` / ``decode_block`` operate on one
  block of ``block_size`` GF(2^8) symbols (one byte per symbol) and
  per-server coded elements of ``element_size`` symbols: the one-stripe
  case of the same call.

Regenerating codes additionally expose the repair interface
(``helper_data`` / ``repair`` and their block forms) that the LDS internal
``regenerate-from-L2`` operation relies on.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Type

import numpy as np

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


def _as_bytes(symbols) -> bytes:
    """``symbols`` (bytes, or anything array-like of GF(2^8) symbols) as bytes."""
    if isinstance(symbols, (bytes, bytearray)):
        return symbols
    return np.asarray(symbols, dtype=np.uint8).tobytes()


def _stripe_count(pieces, width: int, error: Type[ValueError], what: str) -> int:
    """How many stripes of ``width`` symbols each of ``pieces`` holds."""
    lengths = {len(piece) for piece in pieces}
    if len(lengths) != 1:
        raise error(f"{what}s have inconsistent lengths")
    (total,) = lengths
    if total == 0:
        raise error(f"empty {what}: zero stripes")
    if total % width:
        raise error(f"{what} length is not a whole number of stripes")
    return total // width


def _stacked(pieces: Mapping[int, bytes], chosen: List[int], stripes: int, width: int,
             error: Type[ValueError], what: str) -> np.ndarray:
    """The ``chosen`` pieces as one ``(len(chosen), stripes, width)`` array."""
    if any(len(pieces[index]) != stripes * width for index in chosen):
        raise error(f"{what}s have the wrong length")
    joined = b"".join([pieces[index] for index in chosen])
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(chosen), stripes, width)


class ErasureCode(ABC):
    """Abstract base class for all codes in :mod:`repro.codes`."""

    #: Total number of code symbols (servers).
    n: int
    #: Number of symbols sufficient for decoding.
    k: int

    # -- what a code provides -----------------------------------------------

    @property
    @abstractmethod
    def block_size(self) -> int:
        """Number of payload symbols encoded per block (the file size B)."""

    @property
    @abstractmethod
    def element_size(self) -> int:
        """Number of symbols stored per server per block (alpha)."""

    @abstractmethod
    def _encode_stripes(self, stripes: np.ndarray) -> np.ndarray:
        """Encode ``(S, B)`` payload stripes into ``(n, S, alpha)`` elements."""

    @abstractmethod
    def _decode_stripes(self, indices: List[int], received: np.ndarray) -> np.ndarray:
        """Decode ``(S, B)`` stripes from the ``(k, S, alpha)`` elements of the
        ``k`` distinct in-range symbol ``indices`` (ascending)."""

    # -- derived size properties -------------------------------------------

    @property
    def storage_overhead(self) -> float:
        """Total stored symbols divided by payload symbols (n * alpha / B)."""
        return self.n * self.element_size / self.block_size

    @property
    def element_fraction(self) -> float:
        """Size of one coded element as a fraction of the payload (alpha / B)."""
        return self.element_size / self.block_size

    # -- striping -----------------------------------------------------------

    def _padded_payload(self, data: bytes) -> np.ndarray:
        """Length-prefix and zero-pad ``data`` to a whole number of blocks."""
        payload = struct.pack(">I", len(data)) + bytes(data)
        return np.frombuffer(payload + bytes(-len(payload) % self.block_size), dtype=np.uint8)

    def _strip_payload(self, symbols: np.ndarray) -> bytes:
        """Inverse of :meth:`_padded_payload`."""
        raw = symbols.astype(np.uint8, copy=False).tobytes()
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

    # -- encode: both views ---------------------------------------------------

    def encode(self, data: bytes) -> List[CodedElement]:
        """Encode arbitrary bytes into ``n`` coded elements.

        The elements concatenate the per-stripe coded symbols, so each
        element has length ``stripe_count * element_size`` bytes.
        """
        stripes = self._padded_payload(data).reshape(-1, self.block_size)
        return [
            CodedElement(index=index, data=element.tobytes())
            for index, element in enumerate(self._encode_stripes(stripes))
        ]

    def encode_block(self, block: np.ndarray) -> List[np.ndarray]:
        """Encode one block of ``block_size`` symbols into ``n`` elements."""
        block = np.asarray(block, dtype=np.uint8)
        if block.size != self.block_size:
            raise ValueError(
                f"block must contain B={self.block_size} symbols, got {block.size}"
            )
        return list(self._encode_stripes(block.reshape(1, -1))[:, 0])

    # -- decode: both views ---------------------------------------------------

    def decode(self, elements: Sequence[CodedElement]) -> bytes:
        """Decode the original bytes from any sufficient set of elements."""
        if not elements:
            raise DecodingError("no coded elements supplied")
        pieces = {element.index: _as_bytes(element.data) for element in elements}
        stripes = _stripe_count(
            pieces.values(), self.element_size, DecodingError, "coded element"
        )
        return self._strip_payload(self._decode(pieces, stripes))

    def decode_block(self, elements: Mapping[int, np.ndarray]) -> np.ndarray:
        """Decode one block from coded elements keyed by symbol index."""
        pieces = {index: _as_bytes(element) for index, element in elements.items()}
        return self._decode(pieces, 1)[0]

    def _decode(self, pieces: Mapping[int, bytes], stripes: int) -> np.ndarray:
        """Decode ``(stripes, B)`` symbols from the ``k`` lowest indices given."""
        if len(pieces) < self.k:
            raise DecodingError(
                f"{type(self).__name__} decode requires k={self.k} elements, "
                f"got {len(pieces)}"
            )
        indices = sorted(pieces)[: self.k]
        if not (0 <= indices[0] and indices[-1] < self.n):
            raise DecodingError(f"invalid element index among {indices}")
        return self._decode_stripes(indices, _stacked(
            pieces, indices, stripes, self.element_size, DecodingError, "coded element"))


class RegeneratingCode(ErasureCode):
    """Base class for codes that additionally support node repair.

    Subclasses provide the two array-level repair primitives; the byte-level
    ``helper_data`` / ``repair`` and the block-level ``helper_symbols_block``
    / ``repair_block`` are the many-stripe and one-stripe calls of them.
    """

    #: Number of helpers contacted during repair.
    d: int

    @property
    @abstractmethod
    def helper_size(self) -> int:
        """Symbols sent by one helper per block (beta)."""

    @abstractmethod
    def _helper_stripes(self, element: np.ndarray, failed_indices: Sequence[int]) -> np.ndarray:
        """The ``(S, F * beta)`` helper symbols a node holding the ``(S, alpha)``
        ``element`` sends for the repair of each of the ``F`` ``failed_indices``
        (``beta`` symbols per target, targets in the order given).

        The computation must depend only on the helper's own element and the
        identity of the failed node -- *not* on which other servers end up
        being helpers.  This is the property of the product-matrix codes the
        LDS algorithm relies on (Section II-c of the paper), and what makes
        the helper data of every target one product over a stored element.
        """

    @abstractmethod
    def _repair_stripes(
        self, failed_index: int, helpers: List[int], received: np.ndarray
    ) -> np.ndarray:
        """Rebuild the failed node's ``(S, alpha)`` element from the
        ``(d, S, beta)`` symbols of the ``d`` distinct in-range ``helpers``
        (ascending)."""

    @property
    def helper_fraction(self) -> float:
        """Size of one helper message as a fraction of the payload (beta / B)."""
        return self.helper_size / self.block_size

    @property
    def repair_bandwidth_fraction(self) -> float:
        """Total repair download as a fraction of the payload (d * beta / B)."""
        return self.d * self.helper_size / self.block_size

    # -- helper data: both views ------------------------------------------------

    def helper_data(
        self, helper_index: int, helper_element: bytes, failed_index: int
    ) -> bytes:
        """Helper symbols for every stripe of a stored element, as bytes."""
        return self.helper_data_for(helper_index, helper_element, (failed_index,))[0]

    def helper_data_for(
        self, helper_index: int, helper_element: bytes, failed_indices: Sequence[int]
    ) -> Tuple[bytes, ...]:
        """:meth:`helper_data` for each of ``failed_indices``, from one product."""
        element = _as_bytes(helper_element)
        stripes = _stripe_count(
            (element,), self.element_size, RepairError, "helper element"
        )
        symbols = self._helper(helper_index, element, failed_indices, stripes)
        per_target = symbols.reshape(stripes, len(failed_indices), self.helper_size)
        return tuple(target.tobytes() for target in per_target.transpose(1, 0, 2))

    def helper_symbols_block(
        self, helper_index: int, helper_element: np.ndarray, failed_index: int
    ) -> np.ndarray:
        """Compute the ``beta`` helper symbols one helper sends for a repair."""
        return self._helper(helper_index, _as_bytes(helper_element), (failed_index,), 1)[0]

    def _helper(
        self, helper_index: int, element: bytes, failed_indices: Sequence[int], stripes: int
    ) -> np.ndarray:
        """The ``(stripes, F * beta)`` helper symbols of one stored element."""
        if not 0 <= helper_index < self.n or not all(
                0 <= failed_index < self.n for failed_index in failed_indices):
            raise RepairError("helper or failed index out of range")
        width = self.element_size
        if len(element) != stripes * width:
            raise RepairError("helper element has the wrong length")
        symbols = np.frombuffer(element, dtype=np.uint8)
        return self._helper_stripes(symbols.reshape(stripes, width), failed_indices)

    # -- repair: both views -------------------------------------------------------

    def repair(self, failed_index: int, helper_data: Mapping[int, bytes]) -> CodedElement:
        """Byte-level repair of a coded element from helper responses."""
        if len(helper_data) < self.d:
            raise RepairError(
                f"repair needs at least d={self.d} helpers, got {len(helper_data)}"
            )
        pieces = {index: _as_bytes(data) for index, data in helper_data.items()}
        stripes = _stripe_count(
            pieces.values(), self.helper_size, RepairError, "helper message"
        )
        repaired = self._repair(failed_index, pieces, stripes)
        return CodedElement(index=failed_index, data=repaired.tobytes())

    def repair_block(
        self, failed_index: int, helper_data: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild the failed node's element for one block from helper data."""
        pieces = {index: _as_bytes(data) for index, data in helper_data.items()}
        return self._repair(failed_index, pieces, 1)[0]

    def _repair(
        self, failed_index: int, pieces: Mapping[int, bytes], stripes: int
    ) -> np.ndarray:
        """Repair from the ``d`` lowest helper indices given (``failed_index``
        apart).  Every index is range-checked before any matrix is touched,
        so only row sets of the encoding matrix are ever inverted."""
        helpers = sorted(index for index in pieces if index != failed_index)
        if not 0 <= failed_index < self.n or (
            helpers and not (0 <= helpers[0] and helpers[-1] < self.n)
        ):
            raise RepairError("helper or failed index out of range")
        if len(helpers) < self.d:
            raise RepairError(
                f"repair requires d={self.d} distinct helpers, got {len(helpers)}"
            )
        helpers = helpers[: self.d]
        return self._repair_stripes(failed_index, helpers, _stacked(
            pieces, helpers, stripes, self.helper_size, RepairError, "helper message"))


__all__ = [
    "CodedElement",
    "DecodingError",
    "ErasureCode",
    "RegeneratingCode",
    "RepairError",
]
