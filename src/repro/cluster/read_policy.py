"""Replica-group configuration and the three read-routing modes.

:class:`ReplicationConfig` holds the replica layer's knobs, and
``read_policy=`` names one of :data:`READ_POLICIES`, the ways
:class:`~repro.cluster.replicas.ReplicaCoordinator` routes a read:

* ``primary`` -- every read runs the full protocol read at the primary;
* ``round-robin`` -- reads cycle deterministically over the group;
* ``quorum`` -- the paper-faithful mode: each read queries
  ``read_quorum`` of the r stores (a rotating window over the canonical
  replica order), merges their ``(epoch, tag)`` versions and returns the
  maximum-version value.

The module lives apart from the coordinator, so a run without
replication (``r=1``, the router's default) never loads
:mod:`repro.cluster.replicas`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Replica-group states.
NORMAL = "normal"
FAILING_OVER = "failing-over"
#: Terminal state: the primary died and no live follower remained.
UNSERVICEABLE = "unserviceable"

#: The values ``read_policy=`` takes.
READ_POLICIES = ("primary", "round-robin", "quorum")


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
    #: Stores queried per read under the ``quorum`` routing mode (the
    #: paper's r'-of-r discovery quorum).  None defaults to a majority
    #: (``r // 2 + 1``); must stay within [1, r].  Setting it with any
    #: other mode is a configuration error (the knob would silently do
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
        for name in ("r", "read_quorum"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int)
                                      or isinstance(value, bool)):
                raise TypeError(f"{name} must be an int, not {value!r}")
        if self.r < 1:
            raise ValueError("the replication factor must be at least 1")
        for name in ("replication_lag", "follower_read_latency",
                     "failover_detection_delay", "catch_up_per_record",
                     "provision_delay", "forward_latency"):
            if not 0 <= getattr(self, name) < float("inf"):  # and not NaN
                raise ValueError(f"{name} must be finite and non-negative")
        if self.read_quorum is not None and \
                not 1 <= self.read_quorum <= self.r:
            raise ValueError("read_quorum must be within [1, r]")
        if self.write_ingress not in ("primary", "nearest"):
            raise ValueError(
                f"unknown write ingress {self.write_ingress!r}; "
                "choose 'primary' or 'nearest'"
            )
