"""Common interfaces for the code layer.

Every code is linear, so all ``S`` stripes of a value go through the same
small matrices: a code implements each operation **once**, over all the
stripes of a value (``_encode_stripes`` and friends), and the base classes
derive both public views from it:

* a **byte view** -- ``encode`` / ``decode`` operate on arbitrary byte
  strings by striping them across as many blocks as needed and prefixing
  the payload with its length, so that round-tripping restores the exact
  bytes; one call over all stripes per value, whatever its length; and
* a **block view** -- ``encode_block`` / ``decode_block`` operate on one
  block of ``block_size`` GF(2^8) symbols (one byte per symbol) and
  per-server coded elements of ``element_size`` symbols: the one-stripe
  case of the same call.

Symbols are ``bytes`` throughout.  A coded element is stripe-major: its
``alpha`` symbols of stripe 0, then those of stripe 1, and so on, so
symbol ``c`` of every stripe is the slice ``element[c::alpha]``.

Regenerating codes additionally expose the repair interface
(``helper_data`` / ``repair`` and their block forms) that the LDS internal
``regenerate-from-L2`` operation relies on.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Type

from repro.gf.gf256 import as_vector

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


def _chosen(pieces: Mapping[int, bytes], chosen: List[int], stripes: int, width: int,
            error: Type[ValueError], what: str) -> List[bytes]:
    """The ``chosen`` pieces, each checked to hold ``stripes`` stripes of ``width``."""
    received = [pieces[index] for index in chosen]
    if set(map(len, received)) != {stripes * width}:
        raise error(f"{what}s have the wrong length")
    return received


def interleave(columns: Sequence[bytes]) -> bytes:
    """The stripe-major element whose symbol ``c`` of every stripe is
    ``columns[c]``: each column is written back in place as one slice."""
    count = len(columns)
    element = bytearray(count * len(columns[0]))
    for index, column in enumerate(columns):
        element[index::count] = column
    return bytes(element)


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
    def _encode_stripes(self, payload: bytes, stripes: int) -> Sequence[bytes]:
        """Encode a payload of ``stripes`` blocks of ``B`` symbols into the
        ``n`` stripe-major elements of ``stripes * alpha`` symbols."""

    @abstractmethod
    def _decode_stripes(self, indices: List[int], received: List[bytes],
                        stripes: int) -> bytes:
        """Decode the ``stripes * B`` payload symbols from the elements of the
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

    def _padded_payload(self, data: bytes) -> bytes:
        """Length-prefix and zero-pad ``data`` to a whole number of blocks."""
        payload = struct.pack(">I", len(data)) + bytes(data)
        return payload + bytes(-len(payload) % self.block_size)

    def _strip_payload(self, raw: bytes) -> bytes:
        """Inverse of :meth:`_padded_payload`."""
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
        payload = self._padded_payload(data)
        return [
            CodedElement(index=index, data=element)
            for index, element in enumerate(
                self._encode_stripes(payload, len(payload) // self.block_size))
        ]

    def encode_block(self, block) -> List[bytes]:
        """Encode one block of ``block_size`` symbols into ``n`` elements."""
        block = as_vector(block)
        if len(block) != self.block_size:
            raise ValueError(f"block must contain B={self.block_size} symbols, got {len(block)}")
        return list(self._encode_stripes(block, 1))

    # -- decode: both views ---------------------------------------------------

    def decode(self, elements: Sequence[CodedElement]) -> bytes:
        """Decode the original bytes from any sufficient set of elements."""
        if not elements:
            raise DecodingError("no coded elements supplied")
        pieces = {element.index: as_vector(element.data) for element in elements}
        stripes = _stripe_count(pieces.values(), self.element_size, DecodingError,
                                "coded element")
        return self._strip_payload(self._decode(pieces, stripes))

    def decode_block(self, elements: Mapping[int, bytes]) -> bytes:
        """Decode one block from coded elements keyed by symbol index."""
        pieces = {index: as_vector(element) for index, element in elements.items()}
        return self._decode(pieces, 1)

    def _decode(self, pieces: Mapping[int, bytes], stripes: int) -> bytes:
        """Decode ``stripes * B`` symbols from the ``k`` lowest indices given."""
        if len(pieces) < self.k:
            raise DecodingError(
                f"{type(self).__name__} decode requires k={self.k} elements, "
                f"got {len(pieces)}"
            )
        indices = sorted(pieces)[: self.k]
        if not (0 <= indices[0] and indices[-1] < self.n):
            raise DecodingError(f"invalid element index among {indices}")
        return self._decode_stripes(indices, _chosen(
            pieces, indices, stripes, self.element_size, DecodingError, "coded element"),
            stripes)


class RegeneratingCode(ErasureCode):
    """Base class for codes that additionally support node repair.

    Subclasses provide the two all-stripe repair primitives; the byte-level
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
    def _helper_stripes(self, element: bytes, failed_indices: Sequence[int],
                        stripes: int) -> Sequence[bytes]:
        """The helper symbols a node holding the ``stripes``-stripe ``element``
        sends for the repair of each of ``failed_indices``: one stripe-major
        ``stripes * beta`` string per target, targets in the order given.

        The computation must depend only on the helper's own element and the
        identity of the failed node -- *not* on which other servers end up
        being helpers.  This is the property of the product-matrix codes the
        LDS algorithm relies on (Section II-c of the paper), and what makes
        the helper data of every target one product over a stored element.
        """

    @abstractmethod
    def _repair_stripes(self, failed_index: int, helpers: List[int], received: List[bytes],
                        stripes: int) -> bytes:
        """Rebuild the failed node's ``stripes``-stripe element from the
        helper symbols of the ``d`` distinct in-range ``helpers`` (ascending)."""

    @property
    def helper_fraction(self) -> float:
        """Size of one helper message as a fraction of the payload (beta / B)."""
        return self.helper_size / self.block_size

    @property
    def repair_bandwidth_fraction(self) -> float:
        """Total repair download as a fraction of the payload (d * beta / B)."""
        return self.d * self.helper_size / self.block_size

    # -- helper data: both views ------------------------------------------------

    def helper_data(self, helper_index: int, helper_element: bytes, failed_index: int) -> bytes:
        """Helper symbols for every stripe of a stored element, as bytes."""
        return self.helper_data_for(helper_index, helper_element, (failed_index,))[0]

    def helper_data_for(self, helper_index: int, helper_element: bytes,
                        failed_indices: Sequence[int]) -> Tuple[bytes, ...]:
        """:meth:`helper_data` for each of ``failed_indices``, from one product."""
        element = as_vector(helper_element)
        stripes = _stripe_count((element,), self.element_size, RepairError, "helper element")
        return tuple(self._helper(helper_index, element, failed_indices, stripes))

    def helper_symbols_block(self, helper_index: int, helper_element: bytes,
                             failed_index: int) -> bytes:
        """Compute the ``beta`` helper symbols one helper sends for a repair."""
        return self._helper(helper_index, as_vector(helper_element), (failed_index,), 1)[0]

    def _helper(self, helper_index: int, element: bytes, failed_indices: Sequence[int],
                stripes: int) -> Sequence[bytes]:
        """The helper symbols of one stored element, one string per target."""
        if not (0 <= helper_index < self.n and 0 <= min(failed_indices, default=0)
                and max(failed_indices, default=0) < self.n):
            raise RepairError("helper or failed index out of range")
        if len(element) != stripes * self.element_size:
            raise RepairError("helper element has the wrong length")
        return self._helper_stripes(element, failed_indices, stripes)

    # -- repair: both views -------------------------------------------------------

    def repair(self, failed_index: int, helper_data: Mapping[int, bytes]) -> CodedElement:
        """Byte-level repair of a coded element from helper responses."""
        if len(helper_data) < self.d:
            raise RepairError(
                f"repair needs at least d={self.d} helpers, got {len(helper_data)}"
            )
        pieces = {index: as_vector(data) for index, data in helper_data.items()}
        stripes = _stripe_count(pieces.values(), self.helper_size, RepairError, "helper message")
        return CodedElement(index=failed_index,
                            data=self._repair(failed_index, pieces, stripes))

    def repair_block(self, failed_index: int, helper_data: Mapping[int, bytes]) -> bytes:
        """Rebuild the failed node's element for one block from helper data."""
        pieces = {index: as_vector(data) for index, data in helper_data.items()}
        return self._repair(failed_index, pieces, 1)

    def _repair(self, failed_index: int, pieces: Mapping[int, bytes], stripes: int) -> bytes:
        """Repair from the ``d`` lowest helper indices given (``failed_index``
        apart).  Every index is range-checked before any matrix is touched,
        so only row sets of the encoding matrix are ever inverted."""
        helpers = sorted(pieces.keys() - {failed_index})
        if not 0 <= failed_index < self.n or (
            helpers and not (0 <= helpers[0] and helpers[-1] < self.n)
        ):
            raise RepairError("helper or failed index out of range")
        if len(helpers) < self.d:
            raise RepairError(
                f"repair requires d={self.d} distinct helpers, got {len(helpers)}"
            )
        helpers = helpers[: self.d]
        return self._repair_stripes(failed_index, helpers, _chosen(
            pieces, helpers, stripes, self.helper_size, RepairError, "helper message"),
            stripes)


__all__ = ["CodedElement", "DecodingError", "ErasureCode", "RegeneratingCode", "RepairError"]
