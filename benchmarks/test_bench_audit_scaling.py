"""Audit scaling benchmark: the session auditor's retained state.

A whole-history check holds every eligible operation at once (the
"batch entries" column: the auditor's own ``operations_checked``), a
working set that grows linearly with run length.  The session auditor's
claim is that watermark retirement keeps its peak tracked state flat in
run length: it holds only in-flight operations plus folded per-group
maxima.

This benchmark replays the auditor's worst case -- a dense single-hot-key
session stream, where the eligible set is the entire run -- at
increasing scales and records both sizes.  The
headline metric is ``peak_ratio_16x``: the streaming auditor's peak
tracked entries at 16x the operations, relative to 1x.  Flat retention
means it stays near 1.0; the asserted bound is 2.0.

There is no paper analogue; this characterises the live-audit subsystem
(ROADMAP: correctness observability).
"""

from __future__ import annotations

from bench_utils import emit_table

from repro.consistency.history import History, Operation, READ, WRITE
from repro.consistency.sessions import replay_history

SCALES = (1, 4, 16)
BASE_OPERATIONS = 400
SESSIONS = ("s0", "s1")
ADVANCE_EVERY = 16


def hot_key_stream(operations: int) -> History:
    """A dense keyed session stream: every operation lands on one hot
    key, so every operation is eligible and in one group."""
    ops = []
    clock = 0.0
    tag = 0
    for index in range(operations):
        clock += 1.0
        kind = WRITE if index % 3 == 0 else READ
        if kind == WRITE:
            tag += 1
        ops.append(Operation(
            op_id=f"op-{index}",
            client_id=f"client-{index % 2}",
            kind=kind, object_id="hot", value=b"v",
            invoked_at=clock, responded_at=clock + 0.5, tag=tag,
            session=SESSIONS[index % 2],
        ))
    return History(ops)


def test_bench_audit_scaling():
    rows = []
    batch_sizes = {}
    peaks = {}
    for scale in SCALES:
        operations = BASE_OPERATIONS * scale
        history = hot_key_stream(operations)
        auditor = replay_history(history, advance_every=ADVANCE_EVERY)

        # The whole-history working set is every eligible operation; the
        # streaming peak is the high-water mark of retained state.
        batch_sizes[scale] = auditor.operations_checked
        peaks[scale] = auditor.peak_tracked_entries
        rows.append((f"{scale}x", operations, batch_sizes[scale],
                     peaks[scale]))

    peak_ratio = peaks[SCALES[-1]] / peaks[SCALES[0]]
    batch_ratio = batch_sizes[SCALES[-1]] / batch_sizes[SCALES[0]]

    emit_table(
        "audit_scaling",
        "streaming vs batch session audit state (hot-key stream)",
        ["scale", "operations", "batch entries", "stream peak"],
        rows + [("16x/1x", "", f"{batch_ratio:.1f}x", f"{peak_ratio:.2f}x")],
    )

    # The acceptance bound: 16x the operations, at most 2x the peak
    # retained state -- while the eligible set grows linearly.
    assert peak_ratio <= 2.0, peaks
    assert batch_ratio >= SCALES[-1] * 0.9
