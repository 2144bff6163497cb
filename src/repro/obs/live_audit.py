"""Live session auditing: the streaming auditor as a kernel probe.

:class:`LiveAuditProbe` runs the
:class:`~repro.consistency.streaming.StreamingSessionAuditor` *during*
the simulation, on the kernel's dedicated telemetry source -- the same
non-perturbing machinery as :class:`~repro.obs.sampler.ClusterSampler`.
The feed is push-based and O(1) per operation: the router's completion
observers buffer every finished operation (primary-shard completions as
raw results, replica serves already merged), and each probe tick drains
the buffer into the auditor in merged-history form, computes the per-key
**watermarks**, and lets the auditor check and retire state.

The watermark for a key is the earliest global invocation time a
not-yet-delivered operation on that key could still carry::

    W(key) = min(kernel.now,
                 min invocation time of in-flight primary ops on key,
                 min invocation time of in-flight replica reads on key)

``kernel.now`` bounds operations not yet invoked: arrivals, deferred
replica dispatches and forwarded writes all record their invocation at
(or after) the kernel event that delivers them, and the router's flush
only ever shifts a batch's nominal times *forward* onto the shard
clock.  Operations already invoked but still in flight are the two
explicit floors: the recorder's pending primary protocol ops and the
replica coordinator's in-flight reads (``pending_read_invocations``,
which drops reads stranded by a pool crash -- they never respond, so
they constrain nothing).  Anything the probe has not yet drained
satisfies the auditor's watermark contract by the kernel's pump order:
events execute in global-time order, so an undelivered completion
carries a response time at or after the probe's tick.

Violations surface **at sim time**: a detection increments the
``audit_violations{guarantee=...}`` counter family, drops an instant on
the Perfetto timeline, and appends a JSONL row -- all before the run
finishes.  Probes never mutate the cluster, so fixed-seed runs stay
byte-identical with live audit on or off (the CI gate
``examples/live_audit.py`` enforces exactly this).
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.consistency.history import Operation
from repro.consistency.sessions import SessionAuditReport
from repro.consistency.streaming import StreamingSessionAuditor
from repro.obs.registry import MetricsRegistry

#: Default audit cadence, in virtual time units.
DEFAULT_AUDIT_INTERVAL = 25.0


class LiveAuditProbe:
    """Online session auditing over a ``ClusterSimulation``.

    Duck-typed over the harness (needs ``kernel``, ``router``,
    ``replicas``); register before the first shard exists -- the
    constructor subscribes to the router's operation observers, and
    shards install their completion hook at build time.
    """

    def __init__(self, simulation, *, interval: float = DEFAULT_AUDIT_INTERVAL,
                 registry: Optional[MetricsRegistry] = None,
                 trace=None) -> None:
        if interval <= 0:
            raise ValueError("the audit interval must be positive")
        self.simulation = simulation
        self.interval = float(interval)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.auditor = StreamingSessionAuditor()
        self.auditor.on_violation = self._on_violation
        #: JSONL rows, one per detected violation.
        self.rows: List[dict] = []
        #: Raw completion feed, drained at each probe tick:
        #: ``(shard, result)`` for primary completions,
        #: ``(None, operation)`` for replica serves (merged form).
        self._buffer: List[tuple] = []
        self._armed = False
        self._next_tick = 0.0
        registry = self.registry
        self._c_violations = registry.counter(
            "audit_violations",
            "session-guarantee violations detected by the live auditor",
            labels=("guarantee",))
        self._g_operations = registry.gauge(
            "audit_operations_checked", "operations the live auditor admitted")
        self._g_pairs = registry.gauge(
            "audit_pairs_checked", "witness pairs the live auditor checked")
        self._g_unsessioned = registry.gauge(
            "audit_unsessioned_skipped",
            "operations skipped for carrying no session identity")
        self._g_unlinearized = registry.gauge(
            "audit_unlinearized_skipped",
            "sessioned operations skipped as incomplete or untagged")
        self._g_groups = registry.gauge(
            "audit_tracked_groups", "(session, key) groups held by the auditor")
        self._g_entries = registry.gauge(
            "audit_tracked_entries",
            "per-operation audit state not yet retired by the watermark")
        self._g_entries_peak = registry.gauge(
            "audit_tracked_entries_peak",
            "high-water mark of per-operation audit state (retention bound)")
        router = simulation.router
        router.operation_observers.append(self._on_completion)

    # -- the feed ---------------------------------------------------------------

    def _on_completion(self, shard, payload) -> None:
        """Router observer: buffer one completion (O(1))."""
        self._buffer.append((shard, payload))

    def _drain(self) -> None:
        """Consume everything the feed buffered, in merged-history form."""
        if not self._buffer:
            return
        router = self.simulation.router
        internal = router._internal_ops
        sessions = router._op_sessions
        buffered, self._buffer = self._buffer, []
        for shard, payload in buffered:
            if shard is None:
                # Replica serve: already merged-form, session attached.
                self.auditor.consume(payload)
                continue
            object_id = shard.object_id
            result = payload
            if (object_id, result.op_id) in internal:
                continue  # migration copy reads are not client traffic
            self.auditor.consume(Operation(
                op_id=f"{object_id}/{result.op_id}",
                client_id=f"{object_id}/{result.client_id}",
                kind=result.kind, object_id=object_id, value=result.value,
                invoked_at=result.invoked_at,
                responded_at=result.responded_at,
                tag=result.tag,
                session=sessions.get((object_id, result.op_id)),
            ))

    # -- watermarks ---------------------------------------------------------------

    def _watermarks(self, keys) -> dict:
        simulation = self.simulation
        router = simulation.router
        kernel = simulation.kernel
        replica_floor: dict = {}
        replicas = simulation.replicas
        if replicas is not None:
            for key, invoked in replicas.pending_read_invocations():
                current = replica_floor.get(key)
                if current is None or invoked < current:
                    replica_floor[key] = invoked
        marks = {}
        shards = router._shards
        for key in keys:
            mark = kernel.now
            shard = shards.get(key)
            if shard is not None:
                for op in shard.system.recorder.pending_operations():
                    if op.invoked_at < mark:
                        mark = op.invoked_at
            floor = replica_floor.get(key)
            if floor is not None and floor < mark:
                mark = floor
            marks[key] = mark
        return marks

    # -- arming / probing ----------------------------------------------------------

    def start(self) -> None:
        self.ensure_armed()

    def ensure_armed(self) -> None:
        """(Re)arm the audit cadence if it previously wound down."""
        if self._armed:
            return
        kernel = self.simulation.kernel
        self._armed = True
        self._next_tick = kernel.now + self.interval
        kernel.schedule_probe(self._next_tick, self._probe)

    def _probe(self) -> None:
        kernel = self.simulation.kernel
        self.tick()
        if kernel.pending_work():
            self._next_tick = self._next_tick + self.interval
            kernel.schedule_probe(self._next_tick, self._probe)
        else:
            # The foreground drained.  The kernel still runs a probe
            # scheduled beyond the last foreground event, so this final
            # tick has already drained and checked every completion.
            self._armed = False

    def tick(self) -> None:
        """One audit step: drain the feed, advance watermarks, export."""
        auditor = self.auditor
        self._drain()
        dirty = auditor.dirty_keys()
        if dirty:
            auditor.advance(self._watermarks(dirty))
        self._g_operations.set(auditor.operations_checked)
        self._g_pairs.set(auditor.pairs_checked)
        self._g_unsessioned.set(auditor.unsessioned_skipped)
        self._g_unlinearized.set(auditor.unlinearized_skipped)
        self._g_groups.set(auditor.tracked_groups)
        self._g_entries.set(auditor.tracked_entries)
        self._g_entries_peak.set(auditor.peak_tracked_entries)

    # -- violations ----------------------------------------------------------------

    def _on_violation(self, violation, op) -> None:
        now = self.simulation.kernel.now
        self._c_violations.labels(guarantee=violation.guarantee).inc()
        self.rows.append({
            "t": now,
            "guarantee": violation.guarantee,
            "session": violation.session,
            "key": violation.key,
            "operations": list(violation.operations),
            "description": violation.description,
        })
        if self.trace is not None:
            self.trace.instant(
                f"audit-violation {violation.guarantee}", now, cat="audit",
                args={"session": violation.session, "key": violation.key,
                      "operations": list(violation.operations)})

    # -- results -------------------------------------------------------------------

    def report(self) -> SessionAuditReport:
        """The audit verdict now, batch-equivalent at quiescence.

        Drains any buffered completions, force-checks operations still
        waiting on their watermark (no more completions can precede them
        once the run has drained), and folds in the skip counts of
        operations that never completed -- the batch auditor sees those
        in the merged history; the completion feed, by construction,
        does not.
        """
        self._drain()
        self.auditor.finalize()
        unsessioned, unlinearized = self._incomplete_skips()
        return self.auditor.report(extra_unsessioned=unsessioned,
                                   extra_unlinearized=unlinearized)

    def _incomplete_skips(self) -> tuple:
        """Skip counts of operations with no response: the batch auditor's
        eligibility rules applied to everything the feed never delivers."""
        router = self.simulation.router
        internal = router._internal_ops
        sessions = router._op_sessions
        unsessioned = 0
        unlinearized = 0

        def count(object_id: str, op_id: str, session) -> None:
            nonlocal unsessioned, unlinearized
            if (object_id, op_id) in internal:
                return
            if session is None:
                unsessioned += 1
            else:
                unlinearized += 1

        shards = router._shards
        for key in sorted(shards):
            shard = shards[key]
            for history in shard.retired_histories:
                for op in history:
                    if not op.is_complete:
                        count(op.object_id, op.op_id,
                              sessions.get((op.object_id, op.op_id)))
            for op in shard.system.recorder.pending_operations():
                count(op.object_id, op.op_id,
                      sessions.get((op.object_id, op.op_id)))
        replicas = self.simulation.replicas
        if replicas is not None:
            for history in replicas.histories():
                for op in history:
                    if not op.is_complete:
                        count(op.object_id, op.op_id, op.session)
        return unsessioned, unlinearized

    # -- export --------------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n"
                       for row in self.rows)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


__all__ = ["LiveAuditProbe", "DEFAULT_AUDIT_INTERVAL"]
