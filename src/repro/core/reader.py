"""The reader automaton (Figure 1, right, of the paper).

A read is three phases:

1. **get-committed-tag** -- collect committed tags ``tc`` from ``f1 + k``
   L1 servers; the requested tag ``treq`` is their maximum.
2. **get-data** -- send ``treq`` to every L1 server and wait until
   responses from ``f1 + k`` *distinct* servers have arrived such that at
   least one of them is a (tag, value) pair, or at least ``k`` of them are
   (tag, coded-element) pairs for a common tag.  In the latter case the
   value is decoded with code ``C1``.  The pair with the highest tag wins.
3. **put-tag** -- write back the chosen tag (not the value!) and wait for
   ``f1 + k`` acknowledgements before returning the value.

Note that servers may respond more than once in phase 2 (a ``(⊥, ⊥)``
after a failed regeneration, then later a real (tag, value) pair pushed
when a concurrent write commits); the reader keys its quorum count on
distinct server identities and keeps every data response it has seen.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.codes.base import DecodingError
from repro.codes.layered import LayeredCode
from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.results import Client, CompletionCallback
from repro.core.tags import Tag
from repro.net.messages import Message


class UndecodableReadError(DecodingError):
    """A read's k coded elements of one tag do not decode."""


class Reader(Client):
    """A client that performs read operations against the L1 layer."""

    def __init__(self, pid: str, config: LDSConfig, code: LayeredCode) -> None:
        super().__init__(pid)
        self.config = config
        self.code = code
        self._l1_pids = tuple(config.l1_pids)
        self._l1_quorum = config.l1_quorum
        self._l1_index = {pid: i for i, pid in enumerate(self._l1_pids)}
        # In-flight operation state.
        self._requested_tag = Tag.initial()
        self._value_candidates: Dict[Tag, bytes] = {}
        self._coded_candidates: Dict[Tag, Dict[int, bytes]] = {}
        self._chosen_tag: Optional[Tag] = None
        self._chosen_value: Optional[bytes] = None

    # -- public API -----------------------------------------------------------------

    def read(self, callback: Optional[CompletionCallback] = None,
             op_id: Optional[str] = None) -> str:
        """Invoke a read operation; returns the operation id."""
        op_id = self._begin("read", "get-committed-tag", callback, op_id)
        self._requested_tag = Tag.initial()
        self._value_candidates = {}
        self._coded_candidates = {}
        self._chosen_tag = None
        self._chosen_value = None
        for server in self._l1_pids:
            self.send(server, msg.QueryCommittedTag(op_id=op_id))
        return op_id

    # -- message handling ---------------------------------------------------------------

    def on_message(self, sender: str, message: Message) -> None:
        if message.op_id != self._op_id or self._phase is None:
            return
        kind = type(message)
        entry = self._HANDLERS.get(kind) or msg.inherited_handler(self._HANDLERS, kind)
        if entry is not None and entry[0] == self._phase:
            entry[1](self, sender, message)

    # -- phase 1: get-committed-tag ---------------------------------------------------------

    def _handle_committed_tag(self, sender: str,
                              message: msg.QueryCommittedTagResponse) -> None:
        if sender in self._responders:
            return
        self._responders.add(sender)
        if message.tag > self._requested_tag:
            self._requested_tag = message.tag
        if len(self._responders) < self._l1_quorum:
            return
        self._phase = "get-data"
        self._responders = set()
        for server in self._l1_pids:
            self.send(
                server,
                msg.QueryData(requested_tag=self._requested_tag, op_id=self._op_id),
            )

    # -- phase 2: get-data ---------------------------------------------------------------------

    def _handle_data_response(self, sender: str, message: msg.QueryDataResponse) -> None:
        self._responders.add(sender)
        if not message.is_null and message.tag is not None:
            if message.is_value and message.value is not None:
                self._value_candidates[message.tag] = message.value
            elif message.coded_element is not None:
                server_index = self._l1_index.get(sender)
                if server_index is not None:
                    self._coded_candidates.setdefault(message.tag, {})[server_index] = (
                        message.coded_element
                    )
        self._try_finish_get_data()

    def _decodable_tags(self) -> Dict[Tag, Dict[int, bytes]]:
        """Coded-element groups that already contain at least k distinct servers."""
        return {
            tag: elements
            for tag, elements in self._coded_candidates.items()
            if len(elements) >= self.config.k
        }

    def _try_finish_get_data(self) -> None:
        if len(self._responders) < self._l1_quorum:
            return
        decodable = self._decodable_tags()
        if not self._value_candidates and not decodable:
            return
        best_value_tag = max(self._value_candidates) if self._value_candidates else None
        best_coded_tag = max(decodable) if decodable else None
        # Pick the highest tag among all candidates, preferring the directly
        # received value when both carry the same tag.
        if best_coded_tag is not None and (
            best_value_tag is None or best_coded_tag > best_value_tag
        ):
            chosen_tag = best_coded_tag
            try:
                value = self.code.decode_from_l1(decodable[chosen_tag])
            except DecodingError as error:
                # A lower tag's value would be stale: fail loudly instead.
                raise UndecodableReadError(
                    f"{self.pid}: the coded elements of tag {chosen_tag} from L1 "
                    f"servers {sorted(decodable[chosen_tag])} do not decode"
                ) from error
        else:
            chosen_tag = best_value_tag
            value = self._value_candidates[best_value_tag]
        self._chosen_tag = chosen_tag
        self._chosen_value = value
        self._phase = "put-tag"
        self._responders = set()
        for server in self._l1_pids:
            self.send(server, msg.PutTag(tag=chosen_tag, op_id=self._op_id))

    # -- phase 3: put-tag --------------------------------------------------------------------------

    def _handle_put_tag_ack(self, sender: str, message: msg.PutTagAck) -> None:
        if sender in self._responders:
            return
        self._responders.add(sender)
        if len(self._responders) < self._l1_quorum:
            return
        self._finish("read", self._chosen_tag or Tag.initial(), self._chosen_value)

    #: message type -> (the phase that accepts it, its handler)
    _HANDLERS = {
        msg.QueryCommittedTagResponse: ("get-committed-tag", _handle_committed_tag),
        msg.QueryDataResponse: ("get-data", _handle_data_response),
        msg.PutTagAck: ("put-tag", _handle_put_tag_ack),
    }


__all__ = ["Reader", "CompletionCallback", "UndecodableReadError"]
