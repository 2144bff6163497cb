"""Shard placement maps and deterministic rebalancing plans.

A *placement* is simply a mapping ``key -> pool``.  The hash ring defines
the target placement for any key set; membership changes (a pool joining
or leaving the ring) change that target, and the difference between the
old and new placements is a :class:`RebalancePlan` -- an explicit, ordered
list of :class:`ShardMove` entries that the router executes one by one.

Plans are deterministic: the ring is a pure function of its membership and
moves are emitted in sorted key order, so the same membership transition
always yields the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.cluster.ring import HashRing


def placement_of(ring: HashRing, keys: Iterable[str]) -> Dict[str, str]:
    """The placement the ring currently prescribes for ``keys``."""
    return {key: ring.node_for(key) for key in keys}


@dataclass(frozen=True)
class ShardMove:
    """One shard migration: ``key`` moves from ``source`` pool to ``target``."""

    key: str
    source: str
    target: str

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError("a shard move needs distinct source and target pools")


#: Follower-change actions in a replica-aware plan.
ADD_FOLLOWER = "add"
DROP_FOLLOWER = "drop"


@dataclass(frozen=True)
class FollowerChange:
    """One follower-set adjustment of a replica-aware rebalance plan."""

    key: str
    pool: str
    action: str

    def __post_init__(self) -> None:
        if self.action not in (ADD_FOLLOWER, DROP_FOLLOWER):
            raise ValueError(
                f"follower change action must be '{ADD_FOLLOWER}' or "
                f"'{DROP_FOLLOWER}'"
            )


@dataclass
class RebalancePlan:
    """An ordered, deterministic list of shard moves plus bookkeeping.

    With replica groups the plan additionally carries the follower-set
    changes (``follower_changes``) that align each key's ``r``-way replica
    set with the ring; primary relocations stay ordinary ``moves``.
    """

    moves: List[ShardMove] = field(default_factory=list)
    #: Why the plan was generated (e.g. "join pool-4", "leave pool-1").
    reason: str = ""
    #: Virtual time at which the membership change happened.
    time: float = 0.0
    #: Follower drops/adds (replica-aware plans only), sorted by key.
    follower_changes: List[FollowerChange] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.moves)

    def __bool__(self) -> bool:
        return bool(self.moves)


def diff_placements(before: Dict[str, str], after: Dict[str, str],
                    reason: str = "", time: float = 0.0) -> RebalancePlan:
    """The plan turning placement ``before`` into placement ``after``.

    Keys present only in ``after`` (new shards) need no move -- they are
    simply created in place -- so only keys present in both mappings with
    differing owners produce moves.  Moves are sorted by key.
    """
    moves = [
        ShardMove(key=key, source=before[key], target=after[key])
        for key in sorted(before)
        if key in after and before[key] != after[key]
    ]
    return RebalancePlan(moves=moves, reason=reason, time=time)


def diff_replica_placements(before: Dict[str, List[str]],
                            after: Dict[str, List[str]],
                            reason: str = "",
                            time: float = 0.0) -> RebalancePlan:
    """The replica-aware plan turning placement ``before`` into ``after``.

    Placements map ``key -> [primary, follower, ...]``.  A changed primary
    produces an ordinary :class:`ShardMove` (the migration machinery moves
    the authoritative state); follower-set differences produce
    :class:`FollowerChange` records -- note that a follower promoted to
    primary by the move is *dropped* as a follower (its store is consumed
    by the migration target's new epoch) and a demoted primary is *added*
    (it must be re-seeded as a passive store).  Deterministic: keys and
    pools are processed in sorted order.
    """
    moves: List[ShardMove] = []
    changes: List[FollowerChange] = []
    for key in sorted(before):
        if key not in after or not before[key] or not after[key]:
            continue
        old_primary, new_primary = before[key][0], after[key][0]
        if old_primary != new_primary:
            moves.append(ShardMove(key=key, source=old_primary,
                                   target=new_primary))
        old_followers = set(before[key][1:])
        new_followers = set(after[key][1:]) - {new_primary}
        for pool in sorted(old_followers - new_followers):
            changes.append(FollowerChange(key=key, pool=pool,
                                          action=DROP_FOLLOWER))
        for pool in sorted(new_followers - old_followers):
            changes.append(FollowerChange(key=key, pool=pool,
                                          action=ADD_FOLLOWER))
    return RebalancePlan(moves=moves, reason=reason, time=time,
                         follower_changes=changes)


__all__ = [
    "ADD_FOLLOWER",
    "DROP_FOLLOWER",
    "FollowerChange",
    "RebalancePlan",
    "ShardMove",
    "diff_placements",
    "diff_replica_placements",
    "placement_of",
]
