"""Replica-group configuration and read routing.

:class:`ReplicationConfig` holds the replica layer's knobs, and a
:class:`ReadRoutingPolicy` picks which replica serves each read:

* ``primary`` -- every read runs the full protocol read at the primary;
* ``round-robin`` -- reads cycle deterministically over the group;
* ``nearest`` -- reads go to the replica with the smallest seeded
  *distance* (its effective service latency scales with the shared
  :class:`~repro.net.latency.LatencyRegime`, so regime shifts slow
  follower reads exactly like protocol traffic);
* ``least-loaded`` -- reads go to the replica with the fewest in-flight
  (then fewest served) reads;
* ``quorum`` -- the paper-faithful mode: each read queries
  ``read_quorum`` of the r stores (a rotating window over the canonical
  replica order), merges their ``(epoch, tag)`` versions and returns the
  maximum-version value.

:class:`~repro.cluster.replicas.ReplicaCoordinator` applies both.  It
lives in its own module, so a run without replication (``r=1``, the
router's default) never loads it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

#: Sentinel epoch marking a router handle owned by the replica layer
#: (a follower-served or failover-deferred read, or a forwarded write in
#: flight, with no LDS op id yet).
REPLICA_EPOCH = "replica"

#: Replica-group states.
NORMAL = "normal"
FAILING_OVER = "failing-over"
#: Terminal state: the primary died and no live follower remained.
UNSERVICEABLE = "unserviceable"


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of the replica-group subsystem.

    ``r=1`` (the default) disables the subsystem entirely: the router
    behaves exactly like the pre-replica cluster.
    """

    #: Replicas per key (primary + r-1 followers), capped at the pool count.
    r: int = 1
    #: Virtual time between a write committing at the primary and a
    #: follower applying it.
    replication_lag: float = 30.0
    #: Base service time of a follower read (scaled by the replica's
    #: seeded distance and the shared latency regime).
    follower_read_latency: float = 2.0
    #: Time between a pool dying and its groups starting promotion.
    failover_detection_delay: float = 10.0
    #: Catch-up cost per unapplied log record during promotion.
    catch_up_per_record: float = 1.0
    #: Delay before a replacement follower is seeded on a new pool.
    provision_delay: float = 25.0
    #: Route a follower read back to the primary when the follower has
    #: not applied the session's floor version yet.  Disabling this is a
    #: *fault injection*: stale follower reads reach clients and the
    #: session auditor must catch them.
    session_guard: bool = True
    #: Stores queried per read under the ``quorum`` routing policy (the
    #: paper's r'-of-r discovery quorum).  None defaults to a majority
    #: (``r // 2 + 1``); must stay within [1, r].  Setting it with any
    #: other policy is a configuration error (the knob would silently do
    #: nothing).
    read_quorum: Optional[int] = None
    #: When a quorum merge observes a store below the merged maximum
    #: version, apply the group's log to it immediately (kernel-clocked at
    #: the merge instant) instead of waiting out the replication lag.
    #: Disable to measure lag-only catch-up.
    read_repair: bool = True
    #: Base one-hop latency of forwarding a write from the ingress replica
    #: to the primary (scaled by the ingress store's seeded distance and
    #: the shared latency regime, exactly like follower reads).
    forward_latency: float = 2.0
    #: Where writes enter the group: ``"primary"`` assumes clients know
    #: the primary (the pre-forwarding behaviour, bit for bit); with
    #: ``"nearest"`` every write arrives at the client's seeded-nearest
    #: replica pool and is *forwarded* to the primary when that pool is a
    #: follower -- including during a failover freeze, where the
    #: forwarded write queues at the frozen primary slot and flushes into
    #: the promoted epoch.
    write_ingress: str = "primary"
    #: Seed for replica distances (derive_seed'd per key and pool).
    #: None means unpinned: facades thread their root seed in; a bare
    #: router just derives from None (still deterministic).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("the replication factor must be at least 1")
        for name in ("replication_lag", "follower_read_latency",
                     "failover_detection_delay", "catch_up_per_record",
                     "provision_delay", "forward_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.read_quorum is not None and \
                not 1 <= self.read_quorum <= self.r:
            raise ValueError("read_quorum must be within [1, r]")
        if self.write_ingress not in ("primary", "nearest"):
            raise ValueError(
                f"unknown write ingress {self.write_ingress!r}; "
                "choose 'primary' or 'nearest'"
            )


@dataclass(frozen=True)
class ReplicaView:
    """A policy-facing snapshot of one replica at read-dispatch time."""

    pool: str
    is_primary: bool
    distance: float
    reads_in_flight: int
    reads_served: int
    #: Position in the group's canonical order (primary first).
    order: int


class ReadRoutingPolicy(ABC):
    """Chooses which replica serves a read.

    ``choose`` receives the candidates able to serve *right now* (the
    primary is absent while its group is failing over, dead followers are
    dropped) and returns the chosen pool, or ``None`` to wait for the
    primary.  The coordinator may still override a follower choice back
    to the primary to preserve the session guarantees; that override is
    counted against the policy's hit rate, not hidden.
    """

    name: str = "abstract"

    @abstractmethod
    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        """Return the pool to read from (``None`` = wait for the primary)."""

    def rejected(self, key: str, pool: str) -> None:
        """The coordinator could not honor ``choose``'s answer for ``key``
        (session guard override, or the chosen store turned out retired).

        Stateful policies use this to undo the turn they spent on the
        rejected choice, so a temporarily lagging replica keeps its place
        in a deterministic cycle instead of being skipped for good.  The
        default is a no-op (stateless policies have nothing to undo).
        """


class PrimaryOnlyPolicy(ReadRoutingPolicy):
    """Every read runs the full protocol read at the primary."""

    name = "primary"

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        for view in candidates:
            if view.is_primary:
                return view.pool
        return None


class RoundRobinPolicy(ReadRoutingPolicy):
    """Reads cycle deterministically over the group's replicas."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        if not candidates:
            return None
        index = self._counters.get(key, 0)
        self._counters[key] = index + 1
        return candidates[index % len(candidates)].pool

    def rejected(self, key: str, pool: str) -> None:
        # Give the turn back: the rejected replica is re-offered on the
        # next read, so a lagging follower resumes its place in the cycle
        # the moment it catches up instead of losing a turn per rejection.
        self._counters[key] = max(0, self._counters.get(key, 1) - 1)


class QuorumReadPolicy(ReadRoutingPolicy):
    """Reads fan out to a quorum of stores and merge their versions.

    The paper resolves every read by querying a *quorum* of servers,
    taking the maximum tag and reading that version; this policy is the
    replica layer's analogue: each read queries ``read_quorum`` of the
    group's r stores (the primary answers from its committed log head at
    store-read latency, followers from their applied state), the
    coordinator merges the ``(epoch, tag)`` versions and returns the
    maximum-version value.  The quorum *window* rotates deterministically
    over the canonical replica order per key, so successive reads spread
    load and periodically form follower-only quorums -- the case where a
    lagging store loses the merge and (with ``read_repair``) is caught up
    on the spot.
    """

    name = "quorum"

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        chosen = self.choose_quorum(key, candidates, 1)
        return chosen[0] if chosen else None

    def choose_quorum(self, key: str, candidates: List[ReplicaView],
                      quorum: int) -> List[str]:
        """The pools to query: ``quorum`` consecutive candidates starting
        at a per-key rotating offset (distinct by construction)."""
        if not candidates:
            return []
        quorum = min(quorum, len(candidates))
        start = self._counters.get(key, 0)
        self._counters[key] = start + 1
        return [candidates[(start + i) % len(candidates)].pool
                for i in range(quorum)]


class NearestPolicy(ReadRoutingPolicy):
    """Reads go to the replica with the smallest seeded distance."""

    name = "nearest"

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        if not candidates:
            return None
        return min(candidates, key=lambda v: (v.distance, v.order)).pool


class LeastLoadedPolicy(ReadRoutingPolicy):
    """Reads go to the replica with the fewest in-flight (then served) reads."""

    name = "least-loaded"

    def choose(self, key: str, candidates: List[ReplicaView]) -> Optional[str]:
        if not candidates:
            return None
        return min(candidates,
                   key=lambda v: (v.reads_in_flight, v.reads_served, v.order)).pool


_POLICIES = {
    PrimaryOnlyPolicy.name: PrimaryOnlyPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    QuorumReadPolicy.name: QuorumReadPolicy,
    NearestPolicy.name: NearestPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


def make_read_policy(spec: Union[str, ReadRoutingPolicy]) -> ReadRoutingPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(spec, ReadRoutingPolicy):
        return spec
    try:
        return _POLICIES[spec]()
    except KeyError:
        raise ValueError(
            f"unknown read routing policy {spec!r}; "
            f"choose one of {sorted(_POLICIES)}"
        ) from None
