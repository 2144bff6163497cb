"""Membership transitions, events and rebalancing-plan generation."""

from __future__ import annotations

import pytest

from repro.cluster.membership import (
    ALIVE, FAILED, JOIN, LEAVE, FAIL, RECOVER,
    ClusterNode, Membership,
)
from repro.cluster.placement import diff_placements

KEYS = [f"obj-{i}" for i in range(200)]


def test_for_pools_builds_full_node_sets():
    membership = Membership.for_pools(["pool-0", "pool-1"], n1=3, n2=4)
    assert membership.pools == ["pool-0", "pool-1"]
    nodes = membership.pool_nodes("pool-0")
    assert len(nodes) == 7
    assert sum(1 for n in nodes if n.role == "l1") == 3
    assert sum(1 for n in nodes if n.role == "l2") == 4
    assert all(n.status == ALIVE for n in nodes)


def test_join_and_leave_change_the_ring_only_at_pool_boundaries():
    membership = Membership()
    first = membership.join(ClusterNode(pool="pool-0", role="l1", index=0))
    assert first.ring_changed
    second = membership.join(ClusterNode(pool="pool-0", role="l2", index=0))
    assert not second.ring_changed

    partial_leave = membership.leave("pool-0/l1-0")
    assert not partial_leave.ring_changed
    final_leave = membership.leave("pool-0/l2-0")
    assert final_leave.ring_changed
    assert membership.pools == []


def test_fail_and_recover_do_not_change_placement():
    membership = Membership.for_pools(["pool-0", "pool-1"], n1=3, n2=4)
    before = membership.placement(KEYS)
    event = membership.fail("pool-0/l2-1", time=5.0)
    assert event.kind == FAIL and not event.ring_changed
    assert membership.node("pool-0/l2-1").status == FAILED
    assert membership.failed_nodes("pool-0")
    assert membership.placement(KEYS) == before
    membership.recover("pool-0/l2-1", time=9.0)
    assert membership.node("pool-0/l2-1").status == ALIVE


def test_events_are_delivered_to_subscribers_in_order():
    membership = Membership.for_pools(["pool-0"], n1=1, n2=1)
    seen = []
    membership.subscribe(lambda event: seen.append((event.kind, event.node.node_id)))
    membership.fail("pool-0/l2-0", time=1.0)
    membership.recover("pool-0/l2-0", time=2.0)
    membership.join(ClusterNode(pool="pool-1", role="l1", index=0), time=3.0)
    assert seen == [
        (FAIL, "pool-0/l2-0"),
        (RECOVER, "pool-0/l2-0"),
        (JOIN, "pool-1/l1-0"),
    ]
    assert [e.kind for e in membership.events][-3:] == [FAIL, RECOVER, JOIN]


def test_invalid_transitions_raise():
    membership = Membership.for_pools(["pool-0"], n1=1, n2=1)
    with pytest.raises(ValueError):
        membership.join(ClusterNode(pool="pool-0", role="l1", index=0))
    with pytest.raises(KeyError):
        membership.fail("pool-9/l1-0")
    with pytest.raises(ValueError):
        membership.recover("pool-0/l1-0")  # alive, not failed
    membership.fail("pool-0/l1-0")
    with pytest.raises(ValueError):
        membership.fail("pool-0/l1-0")  # already failed


def test_rebalance_plan_is_deterministic_and_minimal():
    membership = Membership.for_pools(["pool-0", "pool-1", "pool-2"], n1=3, n2=4)
    before = membership.placement(KEYS)
    membership.join_pool("pool-3", n1=3, n2=4)
    after = membership.placement(KEYS)

    plan_a = diff_placements(before, after, reason="join pool-3")
    plan_b = diff_placements(before, after, reason="join pool-3")
    assert plan_a.moves == plan_b.moves
    # Every move targets the new pool, and only a minority of keys move.
    assert all(move.target == "pool-3" for move in plan_a.moves)
    assert 0 < len(plan_a) < len(KEYS) // 2
    moved = [move.key for move in plan_a.moves]
    assert moved == sorted(moved)


def test_failed_nodes_come_back_in_canonical_order():
    """``failed_nodes`` must be ordered by (pool, role, index) -- not by
    registry insertion order, which depends on join history."""
    membership = Membership.for_pools(["pool-1", "pool-0"], n1=3, n2=4)
    # Fail in deliberately scrambled order across pools and roles.
    for node_id in ["pool-1/l2-3", "pool-0/l2-1", "pool-1/l1-0",
                    "pool-0/l1-2", "pool-0/l2-0"]:
        membership.fail(node_id, time=1.0)
    assert [n.node_id for n in membership.failed_nodes()] == [
        "pool-0/l1-2", "pool-0/l2-0", "pool-0/l2-1",
        "pool-1/l1-0", "pool-1/l2-3",
    ]
    assert [n.node_id for n in membership.failed_nodes("pool-1")] == [
        "pool-1/l1-0", "pool-1/l2-3",
    ]
