"""Protocol messages of the LDS algorithm (Figures 1-3 of the paper).

Every message is a :class:`~repro.net.messages.Message` subclass with
typed fields.  ``data_size`` follows the paper's accounting: full values
count 1, coded elements count ``alpha / B``, repair-helper data counts
``beta / B``, and all metadata-only messages count 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TypeVar

from repro.core.tags import Tag
from repro.net.messages import Message


# -- client <-> L1: write path (Figure 1, writer side) -------------------------

@dataclass
class QueryTag(Message):
    """get-tag phase: writer asks an L1 server for its maximum list tag."""


@dataclass
class QueryTagResponse(Message):
    """Response to :class:`QueryTag` carrying the maximum tag in the list."""

    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class PutData(Message):
    """put-data phase: writer sends the new (tag, value) pair; data size 1."""

    tag: Tag = field(default_factory=Tag.initial)
    value: bytes = b""


@dataclass
class PutDataAck(Message):
    """Acknowledgement of a put-data (sent directly or from broadcast-resp)."""

    tag: Tag = field(default_factory=Tag.initial)


# -- L1 <-> L1: metadata broadcast (Figure 2) ------------------------------------

@dataclass
class CommitTag(Message):
    """COMMIT-TAG broadcast payload announcing reception of a (tag, value) pair."""

    tag: Tag = field(default_factory=Tag.initial)


# -- client <-> L1: read path (Figure 1, reader side) ------------------------------

@dataclass
class QueryCommittedTag(Message):
    """get-committed-tag phase: reader asks an L1 server for its committed tag."""


@dataclass
class QueryCommittedTagResponse(Message):
    """Response carrying the server's committed tag tc."""

    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class QueryData(Message):
    """get-data phase: reader requests data for tags >= ``requested_tag``."""

    requested_tag: Tag = field(default_factory=Tag.initial)


@dataclass
class QueryDataResponse(Message):
    """An L1 server's response to a reader during the get-data phase.

    Exactly one of the following shapes:

    * a (tag, value) pair (``is_value`` True, ``value`` set, data size 1);
    * a (tag, coded-element) pair (``is_value`` False, ``coded_element``
      set, data size alpha / B);
    * a null response ``(⊥, ⊥)`` signalling failed regeneration
      (``is_null`` True, data size 0).
    """

    tag: Optional[Tag] = None
    value: Optional[bytes] = None
    coded_element: Optional[bytes] = None
    is_value: bool = False
    is_null: bool = False


@dataclass
class PutTag(Message):
    """put-tag phase: reader writes back the tag it is about to return."""

    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class PutTagAck(Message):
    """Acknowledgement of a put-tag."""


# -- L1 <-> L2: internal operations (Figures 2 and 3) ----------------------------------

@dataclass
class WriteCodeElem(Message):
    """write-to-L2: an L1 server sends a (tag, coded element) to an L2 server."""

    tag: Tag = field(default_factory=Tag.initial)
    coded_element: bytes = b""


@dataclass
class AckCodeElem(Message):
    """L2 acknowledgement of a :class:`WriteCodeElem`."""

    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class QueryCodeElem(Message):
    """regenerate-from-L2: an L1 server asks all L2 servers for helper data.

    ``reader_id`` identifies the outstanding read this regeneration serves,
    ``l1_index`` is the code-symbol index the helper data must target and
    ``regen_id`` is the requester's sequence number for this regeneration
    (echoed in the reply so that stale replies can be told apart).
    """

    reader_id: str = ""
    l1_index: int = 0
    regen_id: Optional[int] = None


@dataclass
class SendHelperElem(Message):
    """L2 response to :class:`QueryCodeElem` with beta symbols of helper data."""

    reader_id: str = ""
    tag: Tag = field(default_factory=Tag.initial)
    helper_data: bytes = b""
    regen_id: Optional[int] = None


_Handler = TypeVar("_Handler")


def inherited_handler(table: Dict[type, _Handler],
                      message_type: type) -> Optional[_Handler]:
    """The miss path of a ``type(message)`` dispatch table.

    A subclass of a protocol message is handled like its nearest base in
    ``table``; None means the message is unknown to the receiver.
    """
    for base in message_type.__mro__[1:]:
        handler = table.get(base)
        if handler is not None:
            return handler
    return None


__all__ = [
    "QueryTag",
    "QueryTagResponse",
    "PutData",
    "PutDataAck",
    "CommitTag",
    "QueryCommittedTag",
    "QueryCommittedTagResponse",
    "QueryData",
    "QueryDataResponse",
    "PutTag",
    "PutTagAck",
    "WriteCodeElem",
    "AckCodeElem",
    "QueryCodeElem",
    "SendHelperElem",
    "inherited_handler",
]
