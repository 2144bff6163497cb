"""The layer-2 (back-end) server automaton (Figure 3 of the paper).

An L2 server's state is a single ``(tag, coded element)`` pair,
initialised to the coded element of the initial value ``v0`` under the
initial tag ``t0``.  It participates in two internal operations:

* ``write-to-L2`` -- on a ``WRITE-CODE-ELEM`` it keeps the incoming pair
  if the incoming tag is larger than the stored one, and acknowledges in
  every case;
* ``regenerate-from-L2`` -- on a ``QUERY-CODE-ELEM`` it computes, from its
  stored coded element alone, the ``beta`` helper symbols needed to repair
  the requesting L1 server's code symbol, and returns them together with
  the stored tag.  Crucially (Section II-c) the computation depends only
  on the identity of the requesting L1 server, never on which other L2
  servers end up helping.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.codes.base import CodedElement
from repro.codes.layered import LayeredCode
from repro.core import messages as msg
from repro.core.costs import StorageCostTracker
from repro.core.tags import Tag
from repro.net.latency import L2
from repro.net.messages import Message
from repro.net.process import Process


class L2Server(Process):
    """One back-end server holding a single (tag, coded element) pair."""

    def __init__(self, pid: str, index: int, code: LayeredCode,
                 initial_tag: Tag, initial_element: CodedElement,
                 storage_tracker: Optional[StorageCostTracker] = None) -> None:
        super().__init__(pid, link_class=L2)
        self.index = index
        self.code = code
        self.stored_tag = initial_tag
        self.stored_element = initial_element
        #: Helper data of ``stored_element`` for every L1 index, filled by the
        #: first regenerate-from-L2 after a store.  Simulator state, not
        #: modelled storage: it is a pure function of the stored element.
        self._helpers: Optional[Tuple[bytes, ...]] = None
        self.storage_tracker = storage_tracker
        self._symbol_index = code.l2_symbol_index(index)
        self._element_fraction = float(code.costs.element_fraction)
        self._helper_fraction = float(code.costs.helper_fraction)
        if storage_tracker is not None:
            storage_tracker.l2_element_stored(self.pid, self._element_fraction)

    # -- message dispatch -------------------------------------------------------

    def on_message(self, sender: str, message: Message) -> None:
        kind = type(message)
        handler = self._HANDLERS.get(kind) or msg.inherited_handler(self._HANDLERS, kind)
        # Unknown messages are ignored (crash-stop model, no byzantine behaviour).
        if handler is not None:
            handler(self, sender, message)

    # -- handlers ----------------------------------------------------------------

    def _write_to_l2_resp(self, sender: str, message: msg.WriteCodeElem) -> None:
        """write-to-L2-resp: keep the pair with the larger tag, always ack."""
        if message.tag > self.stored_tag:
            self.stored_tag = message.tag
            self.stored_element = CodedElement(index=self._symbol_index,
                                               data=message.coded_element)
            self._helpers = None
            if self.storage_tracker is not None:
                self.storage_tracker.l2_element_stored(self.pid, self._element_fraction)
        self.send(sender, msg.AckCodeElem(tag=message.tag, op_id=message.op_id))

    def _regenerate_from_l2_resp(self, sender: str, message: msg.QueryCodeElem) -> None:
        """regenerate-from-L2-resp: compute and return helper data.

        The helper data targets the code symbol of the requesting L1 server
        (``message.l1_index``); it is computed from this server's stored
        element only, so once per element, for every L1 server at once.
        """
        helpers = self._helpers
        if helpers is None:
            helpers = self._helpers = self.code.helper_data(
                l2_server=self.index, stored=self.stored_element)
        self.send(sender, msg.SendHelperElem(
            reader_id=message.reader_id,
            tag=self.stored_tag,
            helper_data=helpers[message.l1_index],
            regen_id=message.regen_id,
            data_size=self._helper_fraction,
            op_id=message.op_id,
        ))

    _HANDLERS = {
        msg.WriteCodeElem: _write_to_l2_resp,
        msg.QueryCodeElem: _regenerate_from_l2_resp,
    }


__all__ = ["L2Server"]
