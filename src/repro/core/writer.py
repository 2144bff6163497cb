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

from typing import Callable, Optional, Set

from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.results import OperationResult
from repro.core.tags import Tag
from repro.net.latency import CLIENT
from repro.net.messages import Message
from repro.net.process import Process

CompletionCallback = Callable[[OperationResult], None]


class Writer(Process):
    """A client that performs write operations against the L1 layer."""

    def __init__(self, pid: str, config: LDSConfig) -> None:
        super().__init__(pid, link_class=CLIENT)
        self.config = config
        self._l1_pids = tuple(config.l1_pids)
        self._l1_quorum = config.l1_quorum
        self._operation_counter = 0
        # State of the in-flight operation (None when idle).
        self._phase: Optional[str] = None
        self._op_id: Optional[str] = None
        self._value: Optional[bytes] = None
        self._callback: Optional[CompletionCallback] = None
        self._invoked_at = 0.0
        self._responders: Set[str] = set()
        self._max_tag = Tag.initial()
        self._write_tag: Optional[Tag] = None

    # -- public API ---------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while an operation is in flight."""
        return self._phase is not None

    def write(self, value: bytes, callback: Optional[CompletionCallback] = None,
              op_id: Optional[str] = None) -> str:
        """Invoke a write operation; returns the operation id.

        Raises :class:`RuntimeError` if the previous operation has not
        completed (clients are well-formed).
        """
        if self.busy:
            raise RuntimeError(f"writer {self.pid} already has an operation in flight")
        if self.crashed:
            raise RuntimeError(f"writer {self.pid} has crashed")
        self._operation_counter += 1
        self._op_id = op_id or f"{self.pid}:write-{self._operation_counter}"
        self._value = bytes(value)
        self._callback = callback
        self._invoked_at = self.now
        self._responders = set()
        self._max_tag = Tag.initial()
        self._write_tag = None
        self._phase = "get-tag"
        for server in self._l1_pids:
            self.send(server, msg.QueryTag(op_id=self._op_id))
        return self._op_id

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
        result = OperationResult(
            op_id=self._op_id or "",
            client_id=self.pid,
            kind="write",
            tag=self._write_tag or Tag.initial(),
            value=self._value,
            invoked_at=self._invoked_at,
            responded_at=self.now,
        )
        callback = self._callback
        self._phase = None
        self._op_id = None
        self._callback = None
        if callback is not None:
            callback(result)

    #: message type -> (the phase that accepts it, its handler)
    _HANDLERS = {
        msg.QueryTagResponse: ("get-tag", _handle_tag_response),
        msg.PutDataAck: ("put-data", _handle_put_data_ack),
    }


__all__ = ["Writer", "CompletionCallback"]
