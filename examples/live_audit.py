#!/usr/bin/env python3
"""Live correctness observability: the auditor runs *inside* the run.

A tour of the two audit-grade probes, the streaming session auditor and
the sampling availability monitor, both switched on with
``Telemetry(live_audit=True, availability_interval=...)``:

1. **Non-perturbation.**  The same quorum-read scenario runs bare and
   with the live audit pillars (and once more under the kernel
   sanitizer); the kernel fingerprints match and the live verdict equals
   ``check_sessions`` replayed over the recorded history.  ``tests/obs/test_live_audit.py`` (class
   ``TestNonPerturbation``) checks this.
2. **Online session detection.**  A fabricated stale completion is
   pushed into the live feed mid-run; the probe flags it at sim time.
   ``TestOnlineDetection`` in the same file checks it, and
   ``tests/obs/test_telemetry_digests.py`` pins the violation row.
3. **Online availability detection.**  Mid-run, one L2 slot per shard is
   silently crashed; the sampling epochs raise the silent-hole alarm.
   ``tests/obs/test_availability.py::TestSilentHoles`` checks it.

Run with:  PYTHONPATH=src python examples/live_audit.py
"""

from repro import ClusterSimulation, LDSConfig, Telemetry
from repro.cluster.replicas import ReplicationConfig
from repro.consistency.history import Operation, READ, WRITE
from repro.consistency.injection import inject_under_replication
from repro.consistency.sessions import check_sessions
from repro.obs.availability import DEFAULT_AVAILABILITY_INTERVAL
from repro.sim import quorum_reads_under_lag

SEED = 7
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)


def live_audit() -> Telemetry:
    return Telemetry(live_audit=True,
                     availability_interval=DEFAULT_AVAILABILITY_INTERVAL)


def run_quorum(telemetry, sanitize: bool = False) -> ClusterSimulation:
    simulation = ClusterSimulation(
        CONFIG, POOLS, seed=SEED,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=400.0,
                                      read_quorum=2),
        read_policy="quorum", telemetry=telemetry, sanitize=sanitize)
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED))
    return simulation


def non_perturbation() -> None:
    print(f"1. non-perturbation (quorum-reads-under-lag, seed {SEED}):")
    bare = run_quorum(None)
    live = run_quorum(live_audit())
    sanitized = run_quorum(live_audit(), sanitize=True)
    sanitizer = sanitized.kernel.sanitizer
    print(f"   kernel fingerprints: bare {bare.kernel.fingerprint:#010x}, "
          f"live {live.kernel.fingerprint:#010x}, "
          f"live + sanitizer {sanitized.kernel.fingerprint:#010x}")
    print(f"   sanitizer: {sanitizer.events_checked} events and "
          f"{sanitizer.probes_checked} probes checked, "
          f"{len(sanitizer.violations)} violation(s)")
    print(f"   live verdict:   {live.audit().sessions.describe()}")
    print(f"   replay verdict: {check_sessions(live.history()).describe()}")
    probe = live.telemetry.auditor
    print(f"   retention: peak tracked entries "
          f"{probe.auditor.peak_tracked_entries} over "
          f"{probe.auditor.operations_checked} checked operations\n")


def online_session_detection() -> None:
    print("2. online session detection (stale completion in the feed):")
    simulation = ClusterSimulation(CONFIG, POOLS[:2], seed=3,
                                   telemetry=live_audit())
    simulation.invoke_write("k", b"v1", session="s")
    simulation.run_until_idle()
    simulation.invoke_write("k", b"v2", session="s")
    simulation.run_until_idle()
    first = min((op for op in simulation.history()
                 if op.kind == WRITE and op.is_complete),
                key=lambda op: op.invoked_at)
    now = simulation.kernel.now
    simulation.notify_replica_completion(Operation(
        op_id="k/replica:drill/read-0", client_id="replica:drill/reader-0",
        kind=READ, object_id=first.object_id, value=first.value,
        invoked_at=now + 1.0, responded_at=now + 2.0, tag=first.tag,
        session="s"))
    simulation.invoke_write("other", b"x", at=now + 80.0)
    simulation.run_until_idle()
    probe = simulation.telemetry.auditor
    for row in probe.rows:
        print(f"   t={row['t']:.1f} {row['guarantee']} "
              f"session={row['session']} key={row['key']} "
              f"operations={row['operations']}")
    print(f"   {len(probe.rows)} violation row(s) surfaced at sim time\n")


def online_availability_detection() -> None:
    print("3. online availability detection (silent under-replication "
          "mid-run):")
    simulation = ClusterSimulation(CONFIG, POOLS, seed=SEED,
                                   telemetry=live_audit())
    simulation.ensure_shards(KEYS)
    for index, key in enumerate(KEYS):
        simulation.invoke_write(key, b"v", at=float(index))
    simulation.run_until_idle()
    drill = inject_under_replication(simulation, count=len(KEYS))
    start = simulation.kernel.now
    for index, key in enumerate(KEYS):
        simulation.invoke_write(key, b"w", at=start + 20.0 * (index + 1))
    simulation.run_until_idle()
    assessment = simulation.telemetry.availability.assessment()
    print(f"   drilled {len(drill.holes)} silent hole(s); sampled "
          f"{assessment.samples_taken} fragments over {assessment.epochs} "
          f"epochs")
    print(f"   {assessment.describe()}")
    print(f"   cluster audit: {simulation.audit().describe()}")


def main() -> None:
    print("live audit tour: streaming session auditor + availability "
          "monitor as kernel probes\n")
    non_perturbation()
    online_session_detection()
    online_availability_detection()


if __name__ == "__main__":
    main()
