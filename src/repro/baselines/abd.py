"""The ABD replicated atomic register (multi-writer multi-reader variant).

This is the classic algorithm of Attiya, Bar-Noy and Dolev [3] adapted to
multiple writers: a single layer of ``n`` servers each storing a full
(tag, value) replica, tolerating ``f < n / 2`` crashes with majority
quorums.

* **write**: query a majority for their tags, pick the maximum, bump it,
  send the new (tag, value) to all servers, wait for a majority of acks.
* **read**: query a majority for their (tag, value) pairs, pick the pair
  with the maximum tag, write it back to a majority, and return the value.

Costs (normalised, value size = 1): a write transfers the value to all
``n`` servers (cost ``n``); a read downloads up to ``n`` values and writes
the chosen one back (cost up to ``2 n``); every server stores a full copy
(storage cost ``n``).  These are the comparison numbers the paper's
Figure 6 discussion quotes for a replicated back-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.consistency.history import READ, WRITE
from repro.core.results import Client
from repro.core.system import RegisterSystem
from repro.core.tags import Tag
from repro.net.latency import L1, LatencyModel
from repro.net.messages import Message
from repro.net.process import Process


# -- messages -------------------------------------------------------------------

@dataclass
class AbdQueryTag(Message):
    """Writer phase 1: request the server's tag."""


@dataclass
class AbdQueryTagResponse(Message):
    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class AbdPutData(Message):
    """Writer phase 2 / reader write-back: store (tag, value) if newer."""

    tag: Tag = field(default_factory=Tag.initial)
    value: bytes = b""


@dataclass
class AbdPutDataAck(Message):
    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class AbdQueryData(Message):
    """Reader phase 1: request the server's (tag, value) pair."""


@dataclass
class AbdQueryDataResponse(Message):
    tag: Tag = field(default_factory=Tag.initial)
    value: bytes = b""


# -- server ------------------------------------------------------------------------

class ABDServer(Process):
    """A replica server storing a single (tag, value) pair."""

    def __init__(self, pid: str, initial_value: bytes) -> None:
        super().__init__(pid, link_class=L1)
        self.stored_tag = Tag.initial()
        self.stored_value = initial_value

    def on_message(self, sender: str, message: Message) -> None:
        if isinstance(message, AbdQueryTag):
            self.send(sender, AbdQueryTagResponse(tag=self.stored_tag, op_id=message.op_id))
        elif isinstance(message, AbdQueryData):
            self.send(
                sender,
                AbdQueryDataResponse(
                    tag=self.stored_tag, value=self.stored_value,
                    data_size=1.0, op_id=message.op_id,
                ),
            )
        elif isinstance(message, AbdPutData):
            if message.tag > self.stored_tag:
                self.stored_tag = message.tag
                self.stored_value = message.value
            self.send(sender, AbdPutDataAck(tag=message.tag, op_id=message.op_id))


# -- clients -----------------------------------------------------------------------------

class ABDWriter(Client):
    """ABD writer: query-tag then put-data, both against a majority."""

    def __init__(self, pid: str, server_pids: List[str], quorum: int) -> None:
        super().__init__(pid)
        self.server_pids = server_pids
        self.quorum = quorum
        self._value: bytes = b""
        self._max_tag = Tag.initial()
        self._write_tag: Optional[Tag] = None

    def write(self, value: bytes, callback=None, op_id=None) -> str:
        op_id = self._begin(WRITE, "query", callback, op_id)
        self._value = bytes(value)
        self._max_tag = Tag.initial()
        for server in self.server_pids:
            self.send(server, AbdQueryTag(op_id=op_id))
        return op_id

    def on_message(self, sender: str, message: Message) -> None:
        if message.op_id != self._op_id or self._phase is None:
            return
        if self._phase == "query" and isinstance(message, AbdQueryTagResponse):
            if sender in self._responders:
                return
            self._responders.add(sender)
            self._max_tag = max(self._max_tag, message.tag)
            if len(self._responders) < self.quorum:
                return
            self._write_tag = self._max_tag.next_tag(self.pid)
            self._phase = "put"
            self._responders = set()
            for server in self.server_pids:
                self.send(
                    server,
                    AbdPutData(tag=self._write_tag, value=self._value,
                               data_size=1.0, op_id=self._op_id),
                )
        elif self._phase == "put" and isinstance(message, AbdPutDataAck):
            if message.tag != self._write_tag or sender in self._responders:
                return
            self._responders.add(sender)
            if len(self._responders) < self.quorum:
                return
            self._finish(WRITE, self._write_tag or Tag.initial(), self._value)


class ABDReader(Client):
    """ABD reader: query-data then write-back, both against a majority."""

    def __init__(self, pid: str, server_pids: List[str], quorum: int) -> None:
        super().__init__(pid)
        self.server_pids = server_pids
        self.quorum = quorum
        self._best_tag = Tag.initial()
        self._best_value: bytes = b""

    def read(self, callback=None, op_id=None) -> str:
        op_id = self._begin(READ, "query", callback, op_id)
        self._best_tag = Tag.initial()
        self._best_value = b""
        for server in self.server_pids:
            self.send(server, AbdQueryData(op_id=op_id))
        return op_id

    def on_message(self, sender: str, message: Message) -> None:
        if message.op_id != self._op_id or self._phase is None:
            return
        if self._phase == "query" and isinstance(message, AbdQueryDataResponse):
            if sender in self._responders:
                return
            self._responders.add(sender)
            if message.tag > self._best_tag or (
                message.tag == self._best_tag and not self._best_value
            ):
                self._best_tag = message.tag
                self._best_value = message.value
            if len(self._responders) < self.quorum:
                return
            self._phase = "write-back"
            self._responders = set()
            for server in self.server_pids:
                self.send(
                    server,
                    AbdPutData(tag=self._best_tag, value=self._best_value,
                               data_size=1.0, op_id=self._op_id),
                )
        elif self._phase == "write-back" and isinstance(message, AbdPutDataAck):
            if message.tag != self._best_tag or sender in self._responders:
                return
            self._responders.add(sender)
            if len(self._responders) < self.quorum:
                return
            self._finish(READ, self._best_tag, self._best_value)


# -- system facade -------------------------------------------------------------------------

class ABDSystem(RegisterSystem):
    """A simulated single-layer ABD deployment with the LDSSystem driving API."""

    def __init__(self, n: int, f: Optional[int] = None, num_writers: int = 1,
                 num_readers: int = 1, latency_model: Optional[LatencyModel] = None,
                 initial_value: bytes = b"\x00", object_id: str = "object-0") -> None:
        if n < 1:
            raise ValueError("ABD requires at least one server")
        if f is None:
            f = (n - 1) // 2
        if not f < n / 2:
            raise ValueError("ABD requires f < n / 2")
        super().__init__(object_id, initial_value, latency_model)
        self.n = n
        self.f = f
        self.quorum = n - f  # a majority when f is maximal; always intersects.
        self.initial_value = initial_value
        self.server_pids = [f"abd-{i}" for i in range(n)]
        self.servers = self._register(ABDServer(pid, initial_value) for pid in self.server_pids)
        self.writers = self._register(
            ABDWriter(f"writer-{i}", self.server_pids, self.quorum) for i in range(num_writers))
        self.readers = self._register(
            ABDReader(f"reader-{i}", self.server_pids, self.quorum) for i in range(num_readers))

    def crash_server(self, index: int, at: Optional[float] = None) -> None:
        """Crash the ``index``-th server (immediately or at a virtual time)."""
        self._crash(self.server_pids[index], at)

    @property
    def storage_cost(self) -> float:
        """Normalised storage cost: every live server stores one full value."""
        return float(sum(1 for server in self.servers if not server.crashed))


__all__ = ["ABDSystem", "ABDServer", "ABDWriter", "ABDReader"]
