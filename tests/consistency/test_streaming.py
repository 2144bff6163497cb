"""The session auditor against its definition, and its bounded memory.

The definition is exhaustive: every precedence-ordered pair of
operations with the same session and key, O(n^2) per group.  The
auditor (``check_sessions`` and ``replay_history`` alike) must flag
exactly the operations the definition flags, with the same counts, on
randomized synthetic histories (eligibility edge cases: unsessioned,
incomplete, untagged, multi-epoch), at every watermark cadence, on the
merged history of every shipped scenario, and on every injection drill
(the histories *designed* to contain violations).  Which witness is
blamed is pinned by the hand-written histories in ``test_sessions.py``
and the tie-break test below.  The retention tests pin the other half
of the claim: tracked state stays flat when the run gets 10x longer.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.consistency.history import History, Operation, READ, WRITE
from repro.consistency.injection import (
    inject_all,
    inject_quorum_version_drop,
    inject_stale_follower_read,
)
from repro.consistency.sessions import (
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    READ_YOUR_WRITES,
    SESSION_GUARANTEES,
    WRITES_FOLLOW_READS,
    StreamingSessionAuditor,
    check_sessions,
    operation_version,
    replay_history,
    split_object_id,
)
from repro.core.config import LDSConfig
from repro.sim import (
    ClusterSimulation,
    correlated_pool_failure,
    degraded_reads_during_catch_up,
    flash_crowd,
    forwarded_writes_during_failover,
    migration_under_load,
    quorum_reads_under_lag,
    repair_under_load,
    replica_failover_under_load,
)

KEYS = [f"obj-{i}" for i in range(12)]
POOLS = [f"pool-{i}" for i in range(4)]
CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)

#: (earlier kind, later kind) -> the guarantee a regressing pair breaks.
GUARANTEE = {(READ, READ): MONOTONIC_READS, (WRITE, READ): READ_YOUR_WRITES,
             (WRITE, WRITE): MONOTONIC_WRITES,
             (READ, WRITE): WRITES_FOLLOW_READS}


def definition(history: History) -> dict:
    """The audit by definition: a read may not observe a version below any
    preceding operation's of its session and key, a write must go above."""
    eligible = [op for op in history if op.session is not None
                and op.is_complete and op.tag is not None]
    groups = defaultdict(list)
    for op in eligible:
        groups[op.session, split_object_id(op.object_id)[0]].append(op)
    flagged, pairs = set(), 0
    for ops in groups.values():
        for later in ops:
            version = operation_version(later)
            kinds = set()
            for earlier in ops:
                if not earlier.precedes(later):
                    continue
                kinds.add(earlier.kind)
                prior = operation_version(earlier)
                if version < prior or (later.kind == WRITE and version == prior):
                    flagged.add((later.op_id, GUARANTEE[earlier.kind, later.kind]))
            pairs += len(kinds)
    unsessioned = sum(op.session is None for op in history)
    return {"flagged": flagged, "operations_checked": len(eligible),
            "sessions_checked": len({op.session for op in eligible}),
            "pairs_checked": pairs, "unsessioned_skipped": unsessioned,
            "unlinearized_skipped": len(history) - unsessioned - len(eligible)}


def measured(report) -> dict:
    """A report in the definition's shape; one violation per flagged pair."""
    flagged = {(v.operations[1], v.guarantee) for v in report.violations}
    assert len(flagged) == len(report.violations)
    return {"flagged": flagged, **{name: getattr(report, name) for name in (
        "operations_checked", "sessions_checked", "pairs_checked",
        "unsessioned_skipped", "unlinearized_skipped")}}


def assert_equivalent(history: History, *, advance_every: int = 16) -> None:
    """The one assertion: ``check_sessions`` and the replay == definition."""
    expected = definition(history)
    assert measured(check_sessions(history)) == expected
    assert measured(replay_history(history, advance_every=advance_every)
                    .report()) == expected


# -- synthetic histories ------------------------------------------------------------


def random_history(seed: int) -> History:
    """Adversarial synthetic history: overlapping sessions, epochs,
    incomplete / untagged / unsessioned operations, version regressions."""
    rng = random.Random(seed)
    sessions = ["s0", "s1", "s2", None]
    keys = ["a", "b"]
    ops = []
    clock = 0.0
    for index in range(rng.randrange(20, 60)):
        clock += rng.random() * 4.0
        invoked = clock
        responded = None if rng.random() < 0.1 else invoked + rng.random() * 8.0
        tag = None if rng.random() < 0.1 else rng.randrange(0, 6)
        key = rng.choice(keys)
        epoch = rng.randrange(0, 2)
        object_id = key if epoch == 0 else f"{key}@e{epoch}"
        ops.append(Operation(
            op_id=f"op-{index}",
            client_id=f"client-{index % 3}",
            kind=rng.choice((READ, WRITE)),
            object_id=object_id,
            value=b"v",
            invoked_at=invoked,
            responded_at=responded,
            tag=None if responded is None else tag,
            session=rng.choice(sessions),
        ))
    return History(ops)


@pytest.mark.parametrize("seed", range(12))
def test_random_histories_are_verdict_equivalent(seed):
    assert_equivalent(random_history(seed))


@pytest.mark.parametrize("advance_every", [1, 3, 1000])
def test_watermark_cadence_does_not_change_the_verdict(advance_every):
    # From one advance per arrival to never advancing before finalize.
    for seed in range(4):
        assert_equivalent(random_history(seed), advance_every=advance_every)


def test_equal_version_witnesses_blame_the_first_to_respond():
    # Two same-session writes with the same version, then a read: among
    # equal-version witnesses the first to respond is blamed.
    ops = [
        Operation(op_id="w1", client_id="c", kind=WRITE, object_id="k",
                  value=b"v", invoked_at=0.0, responded_at=1.0, tag=3,
                  session="s"),
        Operation(op_id="w2", client_id="c", kind=WRITE, object_id="k",
                  value=b"v", invoked_at=2.0, responded_at=3.0, tag=3,
                  session="s"),
        Operation(op_id="r1", client_id="c", kind=READ, object_id="k",
                  value=b"v", invoked_at=4.0, responded_at=5.0, tag=1,
                  session="s"),
    ]
    history = History(ops)
    assert_equivalent(history)
    streamed = replay_history(history).report()
    assert len(streamed.violations) == 2  # w2 itself, and the stale read
    read_violations = [v for v in streamed.violations if "r1" in v.operations]
    assert read_violations and read_violations[0].operations == ("w1", "r1")
    # Whatever order the feed delivers them in.
    auditor = StreamingSessionAuditor()
    for op in reversed(ops):
        auditor.consume(op)
    auditor.finalize()
    assert [v.operations for v in auditor.violations
            if "r1" in v.operations] == [("w1", "r1")]


def test_a_response_at_the_invocation_instant_does_not_precede():
    # Precedence is strict: w1 responds exactly when r1 is invoked, so the
    # stale read is concurrent, not a read-your-writes violation.
    history = History([
        Operation(op_id="w1", client_id="c", kind=WRITE, object_id="k",
                  value=b"v", invoked_at=0.0, responded_at=2.0, tag=3,
                  session="s"),
        Operation(op_id="r1", client_id="c", kind=READ, object_id="k",
                  value=b"v", invoked_at=2.0, responded_at=3.0, tag=1,
                  session="s"),
    ])
    assert_equivalent(history, advance_every=1)
    assert check_sessions(history).ok


def test_out_of_order_consumption_is_tolerated():
    # Migration drains complete operations with response times beyond the
    # kernel clock, so the feed is not globally sorted by responded_at.
    # Consuming in a scrambled order with conservative watermarks must
    # still produce the verdict the definition gives.
    history = random_history(99)
    auditor = StreamingSessionAuditor()
    ops = list(history)
    random.Random(0).shuffle(ops)
    for op in ops:
        auditor.consume(op)
    auditor.finalize()
    assert measured(auditor.report()) == definition(history)


# -- every shipped scenario ----------------------------------------------------------


def scenario_simulations():
    """(name, builder) for all eight shipped scenarios, scaled for tests."""
    def plain(scenario, **kwargs):
        def build():
            simulation = ClusterSimulation(CONFIG, POOLS, seed=11,
                                           repair_min_interval=10.0, **kwargs)
            simulation.apply(scenario)
            return simulation
        return build

    def replicated(scenario, *, seed, read_policy, replication, **kwargs):
        def build():
            simulation = ClusterSimulation(
                CONFIG, POOLS, seed=seed, replication=replication,
                read_policy=read_policy, **kwargs)
            simulation.ensure_shards(KEYS)
            simulation.apply(scenario)
            return simulation
        return build

    failover_replication = ReplicationConfig(r=3, replication_lag=25.0,
                                             failover_detection_delay=12.0)
    return [
        ("repair-under-load", plain(
            repair_under_load(KEYS, "pool-0/l2-0", seed=11, operations=120,
                              duration=600.0, fail_at=120.0))),
        ("migration-under-load", plain(
            migration_under_load(KEYS, "pool-9", seed=11, operations=120,
                                 duration=600.0, join_at=150.0))),
        ("correlated-pool-failure", plain(
            correlated_pool_failure(KEYS, "pool-0", seed=11, operations=120,
                                    duration=600.0, fail_at=120.0,
                                    stagger=5.0))),
        ("flash-crowd", plain(
            flash_crowd(KEYS, seed=11, operations=100, crowd_operations=120,
                        shift_at=250.0, duration=400.0, latency_scale=1.5),
            writers_per_shard=2, readers_per_shard=2)),
        ("replica-failover-under-load", replicated(
            replica_failover_under_load(KEYS, "pool-0", seed=7),
            seed=7, read_policy="round-robin",
            replication=failover_replication)),
        ("degraded-reads-during-catch-up", replicated(
            degraded_reads_during_catch_up(KEYS, "pool-1", seed=3),
            seed=3, read_policy="round-robin",
            writers_per_shard=2, readers_per_shard=2,
            replication=ReplicationConfig(r=3, replication_lag=30.0,
                                          failover_detection_delay=20.0,
                                          catch_up_per_record=2.0))),
        ("quorum-reads-under-lag", replicated(
            quorum_reads_under_lag(KEYS, seed=7),
            seed=7, read_policy="quorum",
            writers_per_shard=2, readers_per_shard=2,
            replication=ReplicationConfig(r=3, replication_lag=400.0,
                                          read_quorum=2))),
        ("forwarded-writes-during-failover", replicated(
            forwarded_writes_during_failover(KEYS, "pool-0", seed=5),
            seed=5, read_policy="round-robin",
            replication=ReplicationConfig(r=3, replication_lag=25.0,
                                          failover_detection_delay=12.0,
                                          write_ingress="nearest"))),
    ]


SCENARIOS = scenario_simulations()


@pytest.fixture(scope="module")
def scenario_histories():
    """Each scenario run once per module; the tests share the histories."""
    return {name: build().history()
            for name, build in SCENARIOS}


@pytest.mark.parametrize("name", [name for name, _ in SCENARIOS])
def test_every_shipped_scenario_is_verdict_equivalent(name,
                                                      scenario_histories):
    assert_equivalent(scenario_histories[name])


# -- every injection drill -----------------------------------------------------------


@pytest.mark.parametrize("guarantee", SESSION_GUARANTEES)
def test_injected_session_violations_are_verdict_equivalent(
        guarantee, scenario_histories):
    history = scenario_histories["repair-under-load"]
    injection = inject_all(history)[guarantee]
    assert_equivalent(injection.history)
    streamed = replay_history(injection.history).report()
    flagged = streamed.for_guarantee(guarantee)
    assert any(set(injection.mutated) & set(v.operations) for v in flagged)


def test_injected_stale_follower_read_is_verdict_equivalent(
        scenario_histories):
    injection = inject_stale_follower_read(
        scenario_histories["replica-failover-under-load"])
    assert_equivalent(injection.history)


def test_injected_quorum_drop_is_verdict_equivalent(scenario_histories):
    injection = inject_quorum_version_drop(
        scenario_histories["quorum-reads-under-lag"])
    assert_equivalent(injection.history)


# -- retention ----------------------------------------------------------------------


def long_stream(operations: int) -> History:
    """A dense single-key workload: the worst case for retention (one
    hot group holding every operation)."""
    ops = []
    clock = 0.0
    tag = 0
    for index in range(operations):
        clock += 1.0
        kind = WRITE if index % 3 == 0 else READ
        if kind == WRITE:
            tag += 1
        ops.append(Operation(
            op_id=f"op-{index}", client_id="c", kind=kind, object_id="hot",
            value=b"v", invoked_at=clock, responded_at=clock + 0.5, tag=tag,
            session="s"))
    return History(ops)


def test_tracked_state_is_flat_in_run_length():
    peaks = {}
    for scale in (1, 10):
        auditor = replay_history(long_stream(200 * scale), advance_every=16)
        peaks[scale] = (auditor.peak_tracked_entries, auditor.peak_groups)
        assert auditor.operations_checked == 200 * scale
    short_entries, short_groups = peaks[1]
    long_entries, long_groups = peaks[10]
    # The acceptance bound: 10x the operations, at most 2x the peak state.
    assert long_entries <= 2 * short_entries, peaks
    assert long_groups <= short_groups, peaks


def test_tracked_state_drains_to_settled_maxima():
    auditor = replay_history(long_stream(500), advance_every=8)
    # After finalize the unchecked queue is empty and the folded maxima
    # carry the group; entries still held are only the un-foldable tail.
    assert auditor.tracked_entries < 50
    assert auditor.tracked_groups == 1
