"""Consistent hashing with virtual nodes.

The cluster layer places object shards onto named server *pools* with a
classic consistent-hash ring (Karger et al.): every pool is projected onto
the ring at ``vnodes`` pseudo-random positions (more for heavier pools),
and a key is owned by the pool whose virtual node follows the key's hash
clockwise.  Adding or removing one pool therefore only remaps the keys in
the ring arcs adjacent to that pool's virtual nodes -- roughly a ``1/P``
fraction of the keyspace -- which is what makes deterministic, incremental
rebalancing plans possible.

Hashes are computed with BLAKE2b so placement is stable across processes
and Python invocations (``hash()`` is salted per process and would not
be).  Given the same set of ``(name, weight)`` pairs the ring is identical
no matter in which order the pools were added.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Sequence, Tuple

try:  # builtin: hashlib would load _hashlib, mapping OpenSSL (~3.6 MiB)
    from _blake2 import blake2b
except ImportError:  # pragma: no cover - an interpreter built without it
    from hashlib import blake2b


def stable_hash(text: str) -> int:
    """A 64-bit hash of ``text`` that is stable across processes."""
    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(root: object, *parts: object) -> int:
    """A child RNG seed deterministically derived from a root seed.

    All cluster components (per-shard latency models, the repair
    scheduler's jitter, workload samplers) draw their seeds through this
    function so one root seed reproduces one identical global event order.
    The derivation is position-sensitive and stable across processes.
    """
    text = "\x1f".join(str(part) for part in (root, *parts))
    return stable_hash(text) & 0x7FFFFFFF


class HashRing:
    """A consistent-hash ring mapping string keys to named nodes (pools)."""

    def __init__(self, vnodes: int = 128) -> None:
        if vnodes < 1:
            raise ValueError("a ring needs at least one virtual node per member")
        self.vnodes = vnodes
        self._weights: Dict[str, float] = {}
        #: Sorted (hash, node) pairs; rebuilt on membership changes.
        self._ring: List[Tuple[int, str]] = []
        self._hashes: List[int] = []

    # -- membership ------------------------------------------------------------

    def add_node(self, name: str, weight: float = 1.0) -> None:
        """Add (or re-weight) a node; ``weight`` scales its virtual-node count."""
        if not 0 < weight < math.inf:
            raise ValueError("node weight must be positive and finite")
        self._weights[name] = float(weight)
        self._rebuild()

    def remove_node(self, name: str) -> None:
        """Remove a node; raises ``KeyError`` for unknown names."""
        del self._weights[name]
        self._rebuild()

    def _rebuild(self) -> None:
        ring: List[Tuple[int, str]] = []
        for name, weight in self._weights.items():
            replicas = max(1, int(round(self.vnodes * weight)))
            for replica in range(replicas):
                ring.append((stable_hash(f"{name}#{replica}"), name))
        # Ties (hash collisions) are broken by node name so the ring is a
        # pure function of its membership, independent of insertion order.
        ring.sort()
        self._ring = ring
        self._hashes = [entry[0] for entry in ring]

    def __contains__(self, name: str) -> bool:
        return name in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def nodes(self) -> List[str]:
        """Member names in sorted order."""
        return sorted(self._weights)

    # -- lookups -----------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (first virtual node clockwise of its hash)."""
        if not self._ring:
            raise LookupError("the hash ring has no members")
        index = bisect.bisect_right(self._hashes, stable_hash(key)) % len(self._ring)
        return self._ring[index][1]

    def nodes_for(self, key: str, count: int) -> List[str]:
        """The first ``count`` *distinct* nodes clockwise of ``key``.

        Useful for replica placement; ``count`` is capped at the member count.
        """
        if not self._ring:
            raise LookupError("the hash ring has no members")
        count = min(count, len(self._weights))
        start = bisect.bisect_right(self._hashes, stable_hash(key))
        found: List[str] = []
        for offset in range(len(self._ring)):
            node = self._ring[(start + offset) % len(self._ring)][1]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found

    # -- balance statistics ----------------------------------------------------------

    def key_counts(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of ``keys`` each member owns (members with zero included)."""
        counts = {name: 0 for name in self._weights}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

    def balance(self, keys: Sequence[str]) -> "RingBalance":
        """Summary statistics of how evenly ``keys`` spread over the members."""
        counts = self.key_counts(keys)
        return RingBalance.from_counts(counts)


class RingBalance:
    """Spread statistics for a key placement (mean / stddev / CV / counts)."""

    def __init__(self, counts: Dict[str, int]) -> None:
        self.counts = dict(counts)
        values = list(self.counts.values())
        self.mean = sum(values) / len(values) if values else 0.0
        variance = (
            sum((v - self.mean) ** 2 for v in values) / len(values) if values else 0.0
        )
        self.stddev = math.sqrt(variance)

    @classmethod
    def from_counts(cls, counts: Dict[str, int]) -> "RingBalance":
        return cls(counts)

    @property
    def coefficient_of_variation(self) -> float:
        """stddev / mean -- the scale-free imbalance measure."""
        return self.stddev / self.mean if self.mean else 0.0

    @property
    def max_over_mean(self) -> float:
        """Peak-to-average load ratio."""
        if not self.counts or not self.mean:
            return 0.0
        return max(self.counts.values()) / self.mean

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RingBalance(mean={self.mean:.1f}, stddev={self.stddev:.1f}, "
            f"cv={self.coefficient_of_variation:.3f})"
        )


__all__ = ["HashRing", "RingBalance", "stable_hash"]
