"""A single-layer erasure-coded atomic register (CAS-style baseline).

This baseline follows the Coded Atomic Storage algorithm of Cadambe,
Lynch, Médard and Musial [6]: one layer of ``n`` servers stores
Reed-Solomon coded elements of the value, using quorums of size
``ceil((n + k) / 2)``; any two quorums intersect in at least ``k``
servers, which is what makes decoding during reads possible.

* **write** (three phases): *query-tag* collects the maximum finalized
  tag from a quorum; *pre-write* sends one coded element (size ``1/k``) to
  every server and waits for a quorum of acks; *finalize* marks the tag
  ``fin`` at a quorum.
* **read** (two phases): *query-tag* collects the maximum finalized tag
  ``t_r`` from a quorum; *finalize-and-get* asks every server for its
  coded element of ``t_r`` (also propagating the ``fin`` label) and waits
  for a quorum of responses of which at least ``k`` carry coded elements,
  then decodes.

Garbage collection follows the CASGC variant: a server keeps coded
elements only for the ``gc_depth`` highest finalized tags it knows about
(older elements are replaced by tombstones), which bounds storage at
``(gc_depth) * n / k`` per object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.codes.base import CodedElement, DecodingError
from repro.codes.reed_solomon import ReedSolomonCode
from repro.consistency.history import READ, WRITE
from repro.core.results import Client
from repro.core.system import RegisterSystem
from repro.core.tags import Tag
from repro.net.latency import L1, LatencyModel
from repro.net.messages import Message
from repro.net.process import Process


# -- messages --------------------------------------------------------------------

@dataclass
class CasQueryTag(Message):
    """Query the server's maximum finalized tag."""


@dataclass
class CasQueryTagResponse(Message):
    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class CasPreWrite(Message):
    """Pre-write one coded element under a tag (size 1/k)."""

    tag: Tag = field(default_factory=Tag.initial)
    coded_element: bytes = b""


@dataclass
class CasPreWriteAck(Message):
    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class CasFinalize(Message):
    """Mark a tag as finalized (metadata only)."""

    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class CasFinalizeAck(Message):
    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class CasReadRequest(Message):
    """Reader phase 2: finalize the tag and request the coded element."""

    tag: Tag = field(default_factory=Tag.initial)


@dataclass
class CasReadResponse(Message):
    tag: Tag = field(default_factory=Tag.initial)
    coded_element: Optional[bytes] = None
    has_element: bool = False


# -- server -------------------------------------------------------------------------

class CASServer(Process):
    """One server of the single-layer coded register; it stores elements of
    a code of dimension ``k``, so each one it returns has size ``1/k``."""

    def __init__(self, pid: str, index: int, k: int, gc_depth: int = 2) -> None:
        super().__init__(pid, link_class=L1)
        self.index = index
        self.k = k
        self.gc_depth = gc_depth
        #: tag -> coded element bytes (None once garbage collected).
        self.elements: Dict[Tag, Optional[bytes]] = {}
        self.finalized: Set[Tag] = {Tag.initial()}

    def max_finalized_tag(self) -> Tag:
        return max(self.finalized)

    def _garbage_collect(self) -> None:
        """Keep coded elements only for the gc_depth highest finalized tags."""
        keep = set(sorted(self.finalized, reverse=True)[: self.gc_depth])
        for tag in list(self.elements):
            if tag not in keep and self.elements[tag] is not None and tag in self.finalized:
                self.elements[tag] = None

    def on_message(self, sender: str, message: Message) -> None:
        if isinstance(message, CasQueryTag):
            self.send(sender, CasQueryTagResponse(tag=self.max_finalized_tag(),
                                                  op_id=message.op_id))
        elif isinstance(message, CasPreWrite):
            self.elements.setdefault(message.tag, message.coded_element)
            self.send(sender, CasPreWriteAck(tag=message.tag, op_id=message.op_id))
        elif isinstance(message, CasFinalize):
            self.finalized.add(message.tag)
            self._garbage_collect()
            self.send(sender, CasFinalizeAck(tag=message.tag, op_id=message.op_id))
        elif isinstance(message, CasReadRequest):
            self.finalized.add(message.tag)
            element = self.elements.get(message.tag)
            has_element = element is not None
            self.send(
                sender,
                CasReadResponse(tag=message.tag, coded_element=element,
                                has_element=has_element,
                                data_size=1.0 / self.k if has_element else 0.0,
                                op_id=message.op_id),
            )
            self._garbage_collect()


# -- clients ---------------------------------------------------------------------------

class CASWriter(Client):
    """Three-phase CAS writer."""

    def __init__(self, pid: str, server_pids: List[str], quorum: int,
                 code: ReedSolomonCode) -> None:
        super().__init__(pid)
        self.server_pids = server_pids
        self.quorum = quorum
        self.code = code
        self._value: bytes = b""
        self._max_tag = Tag.initial()
        self._write_tag: Optional[Tag] = None

    def write(self, value: bytes, callback=None, op_id=None) -> str:
        op_id = self._begin(WRITE, "query", callback, op_id)
        self._value = bytes(value)
        self._max_tag = Tag.initial()
        for server in self.server_pids:
            self.send(server, CasQueryTag(op_id=op_id))
        return op_id

    def on_message(self, sender: str, message: Message) -> None:
        if message.op_id != self._op_id or self._phase is None:
            return
        if self._phase == "query" and isinstance(message, CasQueryTagResponse):
            if sender in self._responders:
                return
            self._responders.add(sender)
            self._max_tag = max(self._max_tag, message.tag)
            if len(self._responders) < self.quorum:
                return
            self._write_tag = self._max_tag.next_tag(self.pid)
            self._phase = "pre-write"
            self._responders = set()
            elements = self.code.encode(self._value)
            for index, server in enumerate(self.server_pids):
                self.send(
                    server,
                    CasPreWrite(tag=self._write_tag, coded_element=elements[index].data,
                                data_size=1.0 / self.code.k, op_id=self._op_id),
                )
        elif self._phase == "pre-write" and isinstance(message, CasPreWriteAck):
            if message.tag != self._write_tag or sender in self._responders:
                return
            self._responders.add(sender)
            if len(self._responders) < self.quorum:
                return
            self._phase = "finalize"
            self._responders = set()
            for server in self.server_pids:
                self.send(server, CasFinalize(tag=self._write_tag, op_id=self._op_id))
        elif self._phase == "finalize" and isinstance(message, CasFinalizeAck):
            if message.tag != self._write_tag or sender in self._responders:
                return
            self._responders.add(sender)
            if len(self._responders) < self.quorum:
                return
            self._finish(WRITE, self._write_tag or Tag.initial(), self._value)


class CASReader(Client):
    """Two-phase CAS reader."""

    def __init__(self, pid: str, server_pids: List[str], quorum: int,
                 code: ReedSolomonCode, initial_value: bytes) -> None:
        super().__init__(pid)
        self.server_pids = server_pids
        self.quorum = quorum
        self.code = code
        self.initial_value = initial_value
        self._server_index = {pid: i for i, pid in enumerate(server_pids)}
        self._max_tag = Tag.initial()
        self._elements: Dict[int, bytes] = {}

    def read(self, callback=None, op_id=None) -> str:
        op_id = self._begin(READ, "query", callback, op_id)
        self._max_tag = Tag.initial()
        self._elements = {}
        for server in self.server_pids:
            self.send(server, CasQueryTag(op_id=op_id))
        return op_id

    def on_message(self, sender: str, message: Message) -> None:
        if message.op_id != self._op_id or self._phase is None:
            return
        if self._phase == "query" and isinstance(message, CasQueryTagResponse):
            if sender in self._responders:
                return
            self._responders.add(sender)
            self._max_tag = max(self._max_tag, message.tag)
            if len(self._responders) < self.quorum:
                return
            self._phase = "get"
            self._responders = set()
            for server in self.server_pids:
                self.send(server, CasReadRequest(tag=self._max_tag, op_id=self._op_id))
        elif self._phase == "get" and isinstance(message, CasReadResponse):
            if sender in self._responders:
                return
            self._responders.add(sender)
            if message.has_element and message.coded_element is not None:
                self._elements[self._server_index[sender]] = message.coded_element
            if len(self._responders) < self.quorum:
                return
            if self._max_tag == Tag.initial():
                value = self.initial_value
            else:
                if len(self._elements) < self.code.k:
                    return
                try:
                    value = self.code.decode(
                        [CodedElement(index=i, data=data) for i, data in self._elements.items()]
                    )
                except DecodingError:
                    return
            self._finish(READ, self._max_tag, value)


# -- system facade --------------------------------------------------------------------------

class CASSystem(RegisterSystem):
    """A simulated single-layer coded atomic register with the LDSSystem API."""

    def __init__(self, n: int, k: int, num_writers: int = 1, num_readers: int = 1,
                 latency_model: Optional[LatencyModel] = None,
                 initial_value: bytes = b"\x00", gc_depth: int = 2,
                 object_id: str = "object-0") -> None:
        if not 1 <= k <= n:
            raise ValueError("CAS requires 1 <= k <= n")
        super().__init__(object_id, initial_value, latency_model)
        self.n = n
        self.k = k
        self.quorum = math.ceil((n + k) / 2)
        self.f = n - self.quorum  # tolerated failures
        self.initial_value = initial_value
        self.code = ReedSolomonCode(n, k)
        self.server_pids = [f"cas-{i}" for i in range(n)]
        self.servers = self._register(CASServer(pid, index, k, gc_depth=gc_depth)
                                      for index, pid in enumerate(self.server_pids))
        self.writers = self._register(
            CASWriter(f"writer-{i}", self.server_pids, self.quorum, self.code)
            for i in range(num_writers))
        self.readers = self._register(
            CASReader(f"reader-{i}", self.server_pids, self.quorum, self.code, initial_value)
            for i in range(num_readers))

    def crash_server(self, index: int, at: Optional[float] = None) -> None:
        """Crash the ``index``-th server (immediately or at a virtual time)."""
        self._crash(self.server_pids[index], at)

    def crash_budgets(self) -> List[tuple]:
        return [("servers", self.servers, "f", self.f)]

    @property
    def storage_cost(self) -> float:
        """Normalised storage: each live coded element counts 1/k."""
        total = 0.0
        for server in self.servers:
            if server.crashed:
                continue
            total += sum(1.0 / self.k for element in server.elements.values()
                         if element is not None)
        return total


__all__ = ["CASSystem", "CASServer", "CASWriter", "CASReader"]
