"""The layer-1 (edge) server automaton (Figure 2 of the paper).

L1 servers are where nearly all of the atomicity machinery lives.  Each
server maintains:

* ``L`` -- the temporary storage list of (tag, value) pairs; garbage
  collection replaces values of old tags by ``⊥`` (``None`` here) so that
  only the tags remain as metadata;
* ``tc`` -- the committed tag, the highest tag the server has finished
  writing (or is writing) to L2;
* ``Γ`` -- the set of registered (outstanding) readers, with the tag each
  requested;
* ``commitCounter`` / ``writeCounter`` / ``readCounter`` and the key-value
  set ``K`` used by the internal operations.

The server reacts to client messages (Figure 1), COMMIT-TAG broadcasts,
and the responses of the internal ``write-to-L2`` and
``regenerate-from-L2`` operations exactly as in Figure 2 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codes.base import RepairError
from repro.codes.layered import LayeredCode
from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.costs import StorageCostTracker
from repro.core.tags import Tag
from repro.net.broadcast import BroadcastEnvelope, BroadcastPrimitive
from repro.net.latency import L1
from repro.net.messages import Message
from repro.net.process import Process


class _RegistedReader:
    """Bookkeeping for one entry of the outstanding-reader set Γ."""

    __slots__ = ("reader_id", "requested_tag", "op_id")

    def __init__(self, reader_id: str, requested_tag: Tag, op_id: Optional[str]) -> None:
        self.reader_id = reader_id
        self.requested_tag = requested_tag
        self.op_id = op_id


class L1Server(Process):
    """One edge-layer server running the LDS protocol of Figure 2."""

    def __init__(self, pid: str, index: int, config: LDSConfig, code: LayeredCode,
                 storage_tracker: Optional[StorageCostTracker] = None) -> None:
        super().__init__(pid, link_class=L1)
        self.index = index
        self.config = config
        self.code = code
        self.storage_tracker = storage_tracker

        initial_tag = Tag.initial()
        #: The list L: tag -> value bytes, or None for ⊥ (garbage-collected).
        self.list_storage: Dict[Tag, Optional[bytes]] = {initial_tag: None}
        #: max{t : (t, *) ∈ L}; tags enter L only through ``_store_value``
        #: and ``_note_tag``, which keep it current.
        self._max_list_tag: Tag = initial_tag
        #: The tags of L that currently hold a value, in insertion order
        #: (what garbage collection has to look at).
        self._valued_tags: Dict[Tag, None] = {}
        #: Committed tag tc.
        self.committed_tag: Tag = initial_tag
        #: Γ: outstanding readers, keyed by reader process id.
        self.registered_readers: Dict[str, _RegistedReader] = {}
        #: commitCounter[t].
        self.commit_counter: Dict[Tag, int] = {}
        #: writeCounter[t] for in-flight write-to-L2 operations.
        self.write_counter: Dict[Tag, int] = {}
        #: readCounter[r] and K[r] for in-flight regenerate-from-L2 operations.
        self.read_counter: Dict[str, int] = {}
        self.helper_store: Dict[str, List[Tuple[int, Tag, bytes]]] = {}
        #: Current regeneration sequence number per reader (ignores stale replies).
        self._regen_ids: Dict[str, int] = {}
        #: Writer operation id associated with each tag (for cost attribution).
        self._tag_op_ids: Dict[Tag, str] = {}
        #: Tags already acknowledged to their writer (avoids duplicate ACKs).
        self._acked_tags: set[Tag] = set()
        #: Tags for which this server already launched write-to-L2.
        self._write_to_l2_started: set[Tag] = set()

        self.broadcaster = BroadcastPrimitive(
            owner=self,
            group=config.l1_pids,
            relay_set=config.broadcast_relay_pids,
        )
        self._element_fraction = float(code.costs.element_fraction)
        self._l1_quorum = config.l1_quorum
        self._l2_quorum = config.l2_quorum
        self._l2_pids = tuple(config.l2_pids)
        self._l2_index = {pid: i for i, pid in enumerate(self._l2_pids)}

    # ------------------------------------------------------------------------
    # helpers on the list L
    # ------------------------------------------------------------------------

    def max_list_tag(self) -> Tag:
        """max{t : (t, *) ∈ L}."""
        return self._max_list_tag

    def value_for(self, tag: Tag) -> Optional[bytes]:
        """The value stored under ``tag`` or None when absent / garbage collected."""
        return self.list_storage.get(tag)

    def _store_value(self, tag: Tag, value: bytes) -> None:
        self.list_storage[tag] = value
        self._valued_tags[tag] = None
        if tag > self._max_list_tag:
            self._max_list_tag = tag
        if self.storage_tracker is not None:
            self.storage_tracker.value_added(self.now, self.pid, tag, 1.0)

    def _note_tag(self, tag: Tag) -> None:
        """Record ``tag`` in L as (tag, ⊥) metadata unless it is there already."""
        if tag not in self.list_storage:
            self.list_storage[tag] = None
            if tag > self._max_list_tag:
                self._max_list_tag = tag

    def _drop_value(self, tag: Tag) -> None:
        """Replace (tag, value) by (tag, ⊥), keeping the tag as metadata."""
        if tag in self._valued_tags:
            del self._valued_tags[tag]
            self.list_storage[tag] = None
            if self.storage_tracker is not None:
                self.storage_tracker.value_removed(self.now, self.pid, tag)

    def _garbage_collect_older_than(self, tag: Tag) -> None:
        """Drop every value whose tag is strictly smaller than ``tag``."""
        for stored_tag in [t for t in self._valued_tags if t < tag]:
            self._drop_value(stored_tag)

    # ------------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------------

    def on_message(self, sender: str, message: Message) -> None:
        kind = type(message)
        handler = self._HANDLERS.get(kind) or msg.inherited_handler(self._HANDLERS, kind)
        # Unknown messages are ignored.
        if handler is not None:
            handler(self, sender, message)

    def _consume_broadcast(self, sender: str, envelope: BroadcastEnvelope) -> None:
        """Relay / consume a broadcast copy; a COMMIT-TAG runs broadcast-resp."""
        inner = self.broadcaster.handle(envelope)
        if isinstance(inner, msg.CommitTag):
            self._broadcast_resp(inner)

    # ------------------------------------------------------------------------
    # write path (Figure 2, lines 3-27)
    # ------------------------------------------------------------------------

    def _get_tag_resp(self, writer: str, message: msg.QueryTag) -> None:
        """get-tag-resp: return the maximum tag present in the list."""
        self.send(writer, msg.QueryTagResponse(tag=self.max_list_tag(), op_id=message.op_id))

    def _put_data_resp(self, writer: str, message: msg.PutData) -> None:
        """put-data-resp: broadcast COMMIT-TAG, then store or ack immediately."""
        incoming_tag = message.tag
        self._tag_op_ids.setdefault(incoming_tag, message.op_id)
        self.broadcaster.broadcast(msg.CommitTag(tag=incoming_tag, op_id=message.op_id))
        if incoming_tag > self.committed_tag:
            self._store_value(incoming_tag, message.value)
        else:
            # The tag is already committed here (the commit broadcast beat the
            # put-data message).  Record it in L as (t, ⊥) metadata before
            # acking: a quorum peer answering a later get-tag query from its
            # list must see this tag, otherwise two writes can pick the same
            # tag and atomicity breaks.
            self._note_tag(incoming_tag)
            self.send(writer, msg.PutDataAck(tag=incoming_tag, op_id=message.op_id))

    def _broadcast_resp(self, message: msg.CommitTag) -> None:
        """broadcast-resp: count the commit announcement and run the extra steps."""
        tag = message.tag
        if message.op_id is not None:
            self._tag_op_ids.setdefault(tag, message.op_id)
        self.commit_counter[tag] = self.commit_counter.get(tag, 0) + 1
        if (
            tag in self.list_storage
            and self.commit_counter[tag] >= self._l1_quorum
            and tag not in self._acked_tags
        ):
            self._acked_tags.add(tag)
            if tag.writer_id:
                self.send(
                    tag.writer_id,
                    msg.PutDataAck(tag=tag, op_id=self._tag_op_ids.get(tag)),
                )
        if tag > self.committed_tag:
            self._commit_tag(tag)

    def _commit_tag(self, tag: Tag) -> None:
        """Advance tc to ``tag``: serve readers, garbage collect, offload to L2.

        These are the "additional steps" of the broadcast-resp phase
        (Section III-B); they also run when a put-tag request commits a tag
        whose value is present in the list.
        """
        self.committed_tag = tag
        # Keep the committed tag in L as metadata even when its value never
        # reached this server (commit broadcast ahead of put-data), so
        # get-tag queries never under-report the maximum tag.
        self._note_tag(tag)
        value = self.value_for(tag)
        if value is not None:
            self._serve_registered_readers(tag, value)
        self._garbage_collect_older_than(tag)
        if value is not None:
            self._write_to_l2(tag, value)

    def _serve_registered_readers(self, tag: Tag, value: bytes) -> None:
        """Send (tag, value) to every registered reader with requested tag <= tag."""
        for reader_id in list(self.registered_readers):
            entry = self.registered_readers[reader_id]
            if tag >= entry.requested_tag:
                self.send(
                    reader_id,
                    msg.QueryDataResponse(
                        tag=tag, value=value, is_value=True,
                        data_size=1.0, op_id=entry.op_id,
                    ),
                )
                del self.registered_readers[reader_id]

    # -- internal write-to-L2 (Figure 2, lines 20-27) ------------------------------

    def _write_to_l2(self, tag: Tag, value: bytes) -> None:
        """Encode the value with C2 and push coded elements to every L2 server."""
        if tag in self._write_to_l2_started:
            return
        self._write_to_l2_started.add(tag)
        self.write_counter[tag] = 0
        op_id = self._tag_op_ids.get(tag)
        coded_elements = self.code.encode_for_backend(value)
        for l2_index, element in coded_elements.items():
            self.send(
                self._l2_pids[l2_index],
                msg.WriteCodeElem(
                    tag=tag,
                    coded_element=element.data,
                    data_size=self._element_fraction,
                    op_id=op_id,
                ),
            )

    def _write_to_l2_complete(self, sender: str, message: msg.AckCodeElem) -> None:
        """Count WRITE-CODE-ELEM acks; garbage collect the value once done."""
        tag = message.tag
        if tag not in self.write_counter:
            return
        self.write_counter[tag] += 1
        if self.write_counter[tag] == self._l2_quorum:
            self._drop_value(tag)

    # ------------------------------------------------------------------------
    # read path (Figure 2, lines 28-66)
    # ------------------------------------------------------------------------

    def _get_committed_tag_resp(self, reader: str, message: msg.QueryCommittedTag) -> None:
        """get-committed-tag-resp: return tc."""
        self.send(
            reader,
            msg.QueryCommittedTagResponse(tag=self.committed_tag, op_id=message.op_id),
        )

    def _get_data_resp(self, reader: str, message: msg.QueryData) -> None:
        """get-data-resp: serve from the list if possible, else regenerate."""
        requested_tag = message.requested_tag
        requested_value = self.value_for(requested_tag)
        if requested_value is not None:
            self.send(
                reader,
                msg.QueryDataResponse(
                    tag=requested_tag, value=requested_value, is_value=True,
                    data_size=1.0, op_id=message.op_id,
                ),
            )
            return
        committed_value = self.value_for(self.committed_tag)
        if self.committed_tag > requested_tag and committed_value is not None:
            self.send(
                reader,
                msg.QueryDataResponse(
                    tag=self.committed_tag, value=committed_value, is_value=True,
                    data_size=1.0, op_id=message.op_id,
                ),
            )
            return
        self.registered_readers[reader] = _RegistedReader(
            reader_id=reader, requested_tag=requested_tag, op_id=message.op_id
        )
        self._regenerate_from_l2(reader, message.op_id)

    # -- internal regenerate-from-L2 (Figure 2, lines 39-51) --------------------------

    def _regenerate_from_l2(self, reader: str, op_id: Optional[str]) -> None:
        """Ask every L2 server for helper data targeting this server's symbol."""
        self._regen_ids[reader] = self._regen_ids.get(reader, 0) + 1
        regen_id = self._regen_ids[reader]
        self.read_counter[reader] = 0
        self.helper_store[reader] = []
        request = msg.QueryCodeElem(
            reader_id=reader, l1_index=self.index, regen_id=regen_id, op_id=op_id,
        )
        for l2_pid in self._l2_pids:
            self.send(l2_pid, request)

    def _regenerate_from_l2_complete(self, sender: str, message: msg.SendHelperElem) -> None:
        """Collect helper data; once n2 - f2 responses arrived, try to regenerate."""
        reader = message.reader_id
        if message.regen_id != self._regen_ids.get(reader):
            return  # stale response from an earlier regeneration
        l2_index = self._l2_index[sender]
        self.read_counter[reader] = self.read_counter.get(reader, 0) + 1
        self.helper_store.setdefault(reader, []).append(
            (l2_index, message.tag, message.helper_data)
        )
        if self.read_counter[reader] != self._l2_quorum:
            return
        helpers = self.helper_store.pop(reader, [])
        self.read_counter.pop(reader, None)
        # Invalidate the regeneration id so responses that arrive after the
        # quorum (there can be up to f2 more) are ignored instead of being
        # accumulated into a stale helper set.
        self._regen_ids[reader] = self._regen_ids.get(reader, 0) + 1
        regenerated = self._try_regenerate(helpers)
        entry = self.registered_readers.get(reader)
        if entry is None:
            # The reader has already been served (e.g. via broadcast-resp) or
            # has unregistered through put-tag; nothing more to send.
            return
        if regenerated is not None and regenerated[0] >= entry.requested_tag:
            tag, coded = regenerated
            self.send(
                reader,
                msg.QueryDataResponse(
                    tag=tag, coded_element=coded, is_value=False,
                    data_size=self._element_fraction, op_id=entry.op_id,
                ),
            )
        else:
            self.send(
                reader,
                msg.QueryDataResponse(is_null=True, data_size=0.0, op_id=entry.op_id),
            )

    def _try_regenerate(
        self, helpers: List[Tuple[int, Tag, bytes]]
    ) -> Optional[Tuple[Tag, bytes]]:
        """Regenerate the highest tag for which at least d helpers responded."""
        by_tag: Dict[Tag, Dict[int, bytes]] = {}
        for l2_index, tag, helper_data in helpers:
            by_tag.setdefault(tag, {})[l2_index] = helper_data
        for tag in sorted(by_tag, reverse=True):
            candidates = by_tag[tag]
            if len(candidates) < self.config.d:
                continue
            chosen = dict(list(candidates.items())[: self.config.d])
            try:
                element = self.code.regenerate_l1_element(self.index, chosen)
            except RepairError:
                continue
            return tag, element.data
        return None

    # -- put-tag (Figure 2, lines 52-66) ------------------------------------------------

    def _put_tag_resp(self, reader: str, message: msg.PutTag) -> None:
        """put-tag-resp: unregister the reader, commit the tag, ack."""
        incoming_tag = message.tag
        self.registered_readers.pop(reader, None)
        if incoming_tag > self.committed_tag:
            value = self.value_for(incoming_tag)
            if value is not None:
                # Same steps as committing via broadcast-resp (serve readers,
                # garbage collect, offload to L2) but without acking a writer.
                self._commit_tag(incoming_tag)
            else:
                self.committed_tag = incoming_tag
                self._note_tag(incoming_tag)
                fallback = self._highest_value_below(incoming_tag)
                if fallback is not None:
                    self._serve_registered_readers(fallback[0], fallback[1])
                self._garbage_collect_older_than(incoming_tag)
        self.send(reader, msg.PutTagAck(op_id=message.op_id))

    def _highest_value_below(self, tag: Tag) -> Optional[Tuple[Tag, bytes]]:
        """max{t : t < tag ∧ (t, v) ∈ L with an actual value}, with its value."""
        best = max((t for t in self._valued_tags if t < tag), default=None)
        return None if best is None else (best, self.list_storage[best])

    _HANDLERS = {
        BroadcastEnvelope: _consume_broadcast,
        msg.QueryTag: _get_tag_resp,
        msg.PutData: _put_data_resp,
        msg.QueryCommittedTag: _get_committed_tag_resp,
        msg.QueryData: _get_data_resp,
        msg.PutTag: _put_tag_resp,
        msg.AckCodeElem: _write_to_l2_complete,
        msg.SendHelperElem: _regenerate_from_l2_complete,
    }


__all__ = ["L1Server"]
