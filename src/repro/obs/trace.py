"""Per-operation trace spans in Chrome ``trace_event`` JSON.

Every ``invoke_write`` / ``invoke_read`` opens a **root span** keyed by
its router handle; the replication layer hangs **child spans** off the
same handle for each protocol phase it passes through:

====================  =========================================================
span                  covers
====================  =========================================================
``write <key>``       root: queued at the router -> primary protocol completes
``read <key>``        root: routed -> served (store, quorum merge, or primary)
``forward-hop``       follower ingress -> delivery at the primary's router
``protocol-*``        the erasure-coded write/read protocol on the shard
``quorum-leg <pool>`` one store leg of a quorum fan-out, dispatch -> response
``store-read <pool>`` a single-store follower read, dispatch -> serve
``replication-apply`` commit on the primary -> the record landing on one store
``freeze-wait``       an operation held by a migration or failover freeze ->
                      the next epoch's flush
``read-repair``       instant: a lagging store caught up during a quorum merge
====================  =========================================================

The output is the JSON Object Format (``{"traceEvents": [...]}``) using
*nestable async* events (``ph`` ``b``/``e``/``n``) so one operation's
phases stack on a single track in Perfetto / ``chrome://tracing``.  All
events of an operation share ``id`` = the root handle and carry
``args.parent`` = that handle, which is what tests and the acceptance
gate key on.  One virtual time unit is rendered as one millisecond
(``ts`` is in microseconds, so ``ts = t * 1000``).

Like the rest of ``repro.obs`` the recorder is pure observation: it
appends dicts to a list and never touches simulators or clocks.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Trace microseconds per virtual time unit (1 unit renders as 1 ms).
TS_SCALE = 1000.0

#: ``pid`` for every event -- the whole cluster is one simulated process.
TRACE_PID = 1


class TraceRecorder:
    """Collects Chrome trace events; write with :meth:`write`.

    Tracks (``tid``) are allocated per object key so concurrent
    operations on different keys render side by side, and named via
    ``thread_name`` metadata events.
    """

    def __init__(self, scale: float = TS_SCALE) -> None:
        self.scale = float(scale)
        self.events: List[dict] = []
        self._tids: Dict[str, int] = {}
        #: handle -> track id, so children land on their root's track.
        self._handle_tids: Dict[str, int] = {}
        self._open: Dict[str, dict] = {}

    # -- track bookkeeping -------------------------------------------------------

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
            self.events.append({
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            })
        return tid

    def _handle_tid(self, handle: str) -> int:
        """The track of ``handle``'s root span; the "cluster" track (made on
        first use) for a child whose root was never opened."""
        tid = self._handle_tids.get(handle)
        return self._tid("cluster") if tid is None else tid

    def _ts(self, time: float) -> float:
        return float(time) * self.scale

    # -- root spans --------------------------------------------------------------

    def begin_op(self, handle: str, kind: str, key: str, time: float,
                 args: Optional[dict] = None) -> None:
        """Open the root span for one router operation."""
        tid = self._tid(f"key {key}")
        self._handle_tids[handle] = tid
        event = {
            "ph": "b",
            "cat": "op",
            "id": handle,
            "pid": TRACE_PID,
            "tid": tid,
            "name": f"{kind} {key}",
            "ts": self._ts(time),
            "args": dict(args or ()),
        }
        self.events.append(event)
        self._open[handle] = event

    def end_op(self, handle: str, time: float,
               args: Optional[dict] = None) -> None:
        """Close the root span; unknown / already-closed handles are no-ops."""
        event = self._open.pop(handle, None)
        if event is None:
            return
        self.events.append({
            "ph": "e",
            "cat": "op",
            "id": handle,
            "pid": TRACE_PID,
            "tid": event["tid"],
            "name": event["name"],
            "ts": self._ts(time),
            "args": dict(args or ()),
        })

    def open_handles(self) -> List[str]:
        """Handles whose root span never closed (stranded operations)."""
        return list(self._open)

    # -- children ----------------------------------------------------------------

    def child_span(self, handle: str, name: str, cat: str, start: float,
                   end: float, args: Optional[dict] = None) -> None:
        """A completed child phase of ``handle``'s operation.

        Children are usually emitted retrospectively, once both endpoints
        are known -- trace viewers sort by ``ts``, so appending them out
        of order is fine.
        """
        tid = self._handle_tid(handle)
        payload = dict(args or ())
        payload["parent"] = handle
        base = {
            "cat": cat,
            "id": handle,
            "pid": TRACE_PID,
            "tid": tid,
            "name": name,
        }
        self.events.append({**base, "ph": "b", "ts": self._ts(start),
                            "args": payload})
        self.events.append({**base, "ph": "e", "ts": self._ts(end),
                            "args": {"parent": handle}})

    def child_instant(self, handle: str, name: str, cat: str, time: float,
                      args: Optional[dict] = None) -> None:
        """A zero-duration marker inside ``handle``'s operation."""
        payload = dict(args or ())
        payload["parent"] = handle
        self.events.append({
            "ph": "n",
            "cat": cat,
            "id": handle,
            "pid": TRACE_PID,
            "tid": self._handle_tid(handle),
            "name": name,
            "ts": self._ts(time),
            "args": payload,
        })

    # -- global events -----------------------------------------------------------

    def instant(self, name: str, time: float, cat: str = "scenario",
                args: Optional[dict] = None) -> None:
        """A process-wide instant (scenario actions, failovers, ...)."""
        self.events.append({
            "ph": "i",
            "s": "p",
            "cat": cat,
            "pid": TRACE_PID,
            "tid": self._tid("scenario"),
            "name": name,
            "ts": self._ts(time),
            "args": dict(args or ()),
        })

    def counter(self, name: str, time: float, values: Dict[str, float]) -> None:
        """A counter sample (renders as a stacked area chart)."""
        self.events.append({
            "ph": "C",
            "cat": "metrics",
            "pid": TRACE_PID,
            "tid": 0,
            "name": name,
            "ts": self._ts(time),
            "args": dict(values),
        })

    # -- queries (tests and the acceptance gate) ----------------------------------

    def spans(self, name_prefix: str = "") -> List[dict]:
        """All ``ph: b`` events whose name starts with ``name_prefix``."""
        return [event for event in self.events
                if event["ph"] == "b"
                and event["name"].startswith(name_prefix)]

    def children_of(self, handle: str) -> List[dict]:
        """Child events (span begins and instants) parented on ``handle``."""
        return [event for event in self.events
                if event["ph"] in ("b", "n")
                and event.get("args", {}).get("parent") == handle]

    # -- output ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        """Write the trace as JSON; open the file in Perfetto to view it."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


__all__ = ["TraceRecorder", "TS_SCALE", "TRACE_PID"]
