"""Consistency checking: histories, atomicity, and session guarantees.

The paper proves (Theorem IV.9) that every well-formed execution of the
LDS algorithm is atomic, using the sufficient condition of Lemma 13.16 of
Lynch's *Distributed Algorithms*.  This package provides the machinery to
check that property -- and the cluster-level guarantees layered on top of
it -- on executions produced by the simulator:

* :mod:`repro.consistency.history` -- recording of operation invocations
  and responses into a :class:`History`.
* :mod:`repro.consistency.linearizability` -- the atomicity checker: a
  read/write register's linearizability decided from the definition in
  O(n log n), with the version tags used only to name the write each read
  returns, never to order anything.
* :mod:`repro.consistency.sessions` -- the cross-shard session auditor:
  validates per-client monotonic reads / monotonic writes / read-your-
  writes / writes-follow-reads across keys, shards and migration epochs.
  One engine consumes completions one at a time with watermark-based
  retention (memory flat in run length); the live-audit probe feeds it
  during a run and ``check_sessions`` replays a merged global-clock
  history through it.
* :mod:`repro.consistency.injection` -- fault injection that perturbs a
  history into a violation of each session-guarantee class (plus
  cluster-level availability drills: silent under-replication and
  withheld repairs), proving the auditors detect what they claim to
  detect.
"""

from repro import _lazy_exports

_EXPORTS = {
    "History": "history",
    "Operation": "history",
    "OperationRecorder": "history",
    "AtomicityViolation": "linearizability",
    "check_atomicity": "linearizability",
    "MONOTONIC_READS": "sessions",
    "MONOTONIC_WRITES": "sessions",
    "READ_YOUR_WRITES": "sessions",
    "WRITES_FOLLOW_READS": "sessions",
    "SESSION_GUARANTEES": "sessions",
    "ClusterAuditReport": "sessions",
    "SessionAuditReport": "sessions",
    "SessionViolation": "sessions",
    "check_sessions": "sessions",
    "StreamingSessionAuditor": "sessions",
    "replay_history": "sessions",
    "Injection": "injection",
    "InjectionError": "injection",
    "inject_all": "injection",
    "inject_session_violation": "injection",
    "inject_stale_follower_read": "injection",
    "inject_under_replication": "injection",
    "inject_withheld_repair": "injection",
    "is_follower_read": "injection",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
