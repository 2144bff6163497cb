"""The live-audit probe: non-perturbation, verdict reuse, online alarms.

Three properties make the probe trustworthy: a live-audited run is
byte-identical to a bare run (pure observation), its final verdict is
exactly ``check_sessions`` over the recorded history (the harness reuses
the probe's auditor instead of replaying the history),
and a bad completion surfaces *during* the run -- counter, JSONL row
and trace instant -- not in a post-mortem.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.consistency.history import Operation, READ, WRITE
from repro.consistency.sessions import READ_YOUR_WRITES, check_sessions
from repro.core.config import LDSConfig
from repro.obs import Telemetry
from repro.obs.availability import DEFAULT_AVAILABILITY_INTERVAL
from repro.sim import ClusterSimulation, quorum_reads_under_lag

KEYS = [f"obj-{i}" for i in range(12)]
POOLS = [f"pool-{i}" for i in range(4)]
CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)


def live_audit_telemetry() -> Telemetry:
    """The live audit pillars: the streaming session auditor and the
    sampling availability monitor."""
    return Telemetry(live_audit=True,
                     availability_interval=DEFAULT_AVAILABILITY_INTERVAL)


def run_quorum(live_audit: bool, sanitize: bool = False) -> ClusterSimulation:
    simulation = ClusterSimulation(
        CONFIG, POOLS, seed=7,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=400.0,
                                      read_quorum=2),
        read_policy="quorum",
        telemetry=live_audit_telemetry() if live_audit else None,
        sanitize=sanitize,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=7))
    return simulation


class TestNonPerturbation:
    def test_live_audit_leaves_the_fingerprint_identical(self):
        bare = run_quorum(False)
        live = run_quorum(True)
        assert bare.kernel.fingerprint == live.kernel.fingerprint

    def test_sanitized_live_audit_is_identical_and_clean(self):
        # The sanitizer's write barrier checks every probe tick too.
        bare = run_quorum(False)
        sanitized = run_quorum(True, sanitize=True)
        sanitizer = sanitized.kernel.sanitizer
        assert sanitized.kernel.fingerprint == bare.kernel.fingerprint
        assert sanitizer.ok
        assert sanitizer.probes_checked > 0

    def test_live_verdict_equals_batch_verdict(self):
        live = run_quorum(True)
        replayed = check_sessions(live.history())
        streamed = live.audit().sessions
        assert streamed.describe() == replayed.describe()
        assert Counter(map(str, streamed.violations)) == \
            Counter(map(str, replayed.violations))
        assert streamed.unsessioned_skipped == replayed.unsessioned_skipped
        assert streamed.unlinearized_skipped == replayed.unlinearized_skipped


class TestVerdictSurface:
    def test_audit_reuses_the_streaming_state(self):
        live = run_quorum(True)
        probe = live.telemetry.auditor
        report = live.audit()
        assert report.sessions.operations_checked == \
            probe.auditor.operations_checked
        assert report.availability is not None
        assert report.availability.samples_taken > 0
        # Stable under repeated calls (finalize is idempotent at
        # quiescence, skip counts are recomputed, not accumulated).
        assert live.audit().describe() == report.describe()

    def test_registry_instruments_are_populated(self):
        live = run_quorum(True)
        live.audit()
        probe = live.telemetry.auditor
        assert probe._g_operations.value > 0
        assert probe._g_pairs.value > 0
        assert probe._g_entries_peak.value > 0
        rendered = live.telemetry.registry.render(nonzero_only=True)
        assert "audit_operations_checked" in rendered
        assert "availability_samples" in rendered

    def test_run_report_carries_the_audit_health_section(self):
        live = run_quorum(True)
        report = live.run_report()
        assert "-- audit health --" in report
        assert "live session audit: clean" in report
        assert "availability ok" in report


class TestOnlineDetection:
    def drilled_simulation(self) -> ClusterSimulation:
        """A tiny run whose feed receives one fabricated stale completion
        mid-flight -- the observability analog of the history injections:
        the cluster is healthy, the *feed* carries what a buggy replica
        read path would have reported."""
        telemetry = Telemetry(trace=True, live_audit=True)
        simulation = ClusterSimulation(CONFIG, POOLS[:2], seed=3,
                                       telemetry=telemetry)
        simulation.invoke_write("k", b"v1", session="s")
        simulation.run_until_idle()
        simulation.invoke_write("k", b"v2", session="s")
        simulation.run_until_idle()
        writes = sorted((op for op in simulation.history()
                         if op.kind == WRITE and op.is_complete),
                        key=lambda op: op.invoked_at)
        first = writes[0]
        now = simulation.kernel.now
        stale = Operation(
            op_id="k/replica:drill/read-0",
            client_id="replica:drill/reader-0",
            kind=READ, object_id=first.object_id, value=first.value,
            invoked_at=now + 1.0, responded_at=now + 2.0, tag=first.tag,
            session="s",
        )
        simulation.notify_replica_completion(stale)
        # Foreground work well past the stale read's invocation, so a
        # probe tick checks it online (watermark = kernel.now).
        simulation.invoke_write("other", b"x", at=now + 80.0)
        simulation.run_until_idle()
        return simulation

    def test_stale_completion_alarms_before_any_report(self):
        simulation = self.drilled_simulation()
        probe = simulation.telemetry.auditor
        # Detected during the run -- no report()/audit() call yet.
        assert probe.rows, "violation not surfaced online"
        row = probe.rows[0]
        assert row["guarantee"] == READ_YOUR_WRITES
        assert row["session"] == "s"
        assert row["key"] == "k"
        assert "k/replica:drill/read-0" in row["operations"]
        counter = probe._c_violations.labels(guarantee=READ_YOUR_WRITES)
        assert counter.value == 1
        instants = [event for event in simulation.telemetry.trace.events
                    if str(event.get("name", "")).startswith("audit-violation")]
        assert instants, "no trace instant for the violation"

    def test_jsonl_export_round_trips(self, tmp_path):
        import json
        simulation = self.drilled_simulation()
        probe = simulation.telemetry.auditor
        path = tmp_path / "violations.jsonl"
        probe.write_jsonl(path)
        rows = [json.loads(line)
                for line in path.read_text().splitlines() if line]
        assert rows and rows[0]["guarantee"] == READ_YOUR_WRITES

    def test_final_report_includes_the_drilled_violation(self):
        simulation = self.drilled_simulation()
        report = simulation.audit()
        assert not report.ok
        assert [v.guarantee for v in report.sessions.violations] == \
            [READ_YOUR_WRITES]


class TestProbeRequirements:
    def test_interval_must_be_positive(self):
        from repro.obs.live_audit import LiveAuditProbe
        simulation = ClusterSimulation(CONFIG, POOLS[:2], seed=1)
        with pytest.raises(ValueError):
            LiveAuditProbe(simulation, interval=0.0)
