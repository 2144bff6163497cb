"""The writer automaton (Figure 1, left, of the paper).

A write is two phases:

1. **get-tag** -- query every L1 server for the maximum tag in its list,
   wait for ``f1 + k`` responses, and pick the maximum ``t``; the new tag
   is ``tw = (t.z + 1, writer_id)``.
2. **put-data** -- send ``(tw, value)`` to every L1 server and wait for
   ``f1 + k`` acknowledgements.

The writer is *well-formed*: it issues one operation at a time.  Crashing
the writer process mid-operation simply leaves the operation incomplete,
which the protocol tolerates.
"""

from __future__ import annotations

from typing import Optional

from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.results import Client, CompletionCallback
from repro.core.tags import Tag
from repro.net.messages import Message


class Writer(Client):
    """A client that performs write operations against the L1 layer."""

    def __init__(self, pid: str, config: LDSConfig) -> None:
        super().__init__(pid)
        self.config = config
        self._l1_pids = tuple(config.l1_pids)
        self._l1_quorum = config.l1_quorum
        # State of the in-flight operation.
        self._value: Optional[bytes] = None
        self._max_tag = Tag.initial()
        self._write_tag: Optional[Tag] = None

    # -- public API ---------------------------------------------------------------

    def write(self, value: bytes, callback: Optional[CompletionCallback] = None,
              op_id: Optional[str] = None) -> str:
        """Invoke a write operation; returns the operation id."""
        op_id = self._begin("write", "get-tag", callback, op_id)
        self._value = bytes(value)
        self._max_tag = Tag.initial()
        self._write_tag = None
        for server in self._l1_pids:
            self.send(server, msg.QueryTag(op_id=op_id))
        return op_id

    # -- message handling -------------------------------------------------------------

    def on_message(self, sender: str, message: Message) -> None:
        if message.op_id != self._op_id or self._phase is None:
            return
        kind = type(message)
        entry = self._HANDLERS.get(kind) or msg.inherited_handler(self._HANDLERS, kind)
        if entry is not None and entry[0] == self._phase:
            entry[1](self, sender, message)

    def _handle_tag_response(self, sender: str, message: msg.QueryTagResponse) -> None:
        if sender in self._responders:
            return
        self._responders.add(sender)
        if message.tag > self._max_tag:
            self._max_tag = message.tag
        if len(self._responders) < self._l1_quorum:
            return
        # Move to the put-data phase with the new, strictly larger tag.
        self._write_tag = self._max_tag.next_tag(self.pid)
        self._phase = "put-data"
        self._responders = set()
        for server in self._l1_pids:
            self.send(
                server,
                msg.PutData(
                    tag=self._write_tag, value=self._value or b"",
                    data_size=1.0, op_id=self._op_id,
                ),
            )

    def _handle_put_data_ack(self, sender: str, message: msg.PutDataAck) -> None:
        if message.tag != self._write_tag or sender in self._responders:
            return
        self._responders.add(sender)
        if len(self._responders) < self._l1_quorum:
            return
        self._finish("write", self._write_tag or Tag.initial(), self._value)

    #: message type -> (the phase that accepts it, its handler)
    _HANDLERS = {
        msg.QueryTagResponse: ("get-tag", _handle_tag_response),
        msg.PutDataAck: ("put-data", _handle_put_data_ack),
    }


__all__ = ["Writer", "CompletionCallback"]
