"""Declarative workloads and random workload generators."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence

from repro.consistency.history import READ, WRITE, slotted


@slotted
@dataclass(frozen=True)
class ScheduledOperation:
    """One operation scheduled at a virtual time on a named client.

    ``client_index`` selects the writer or reader within the target system
    (writers and readers are indexed separately).  ``key`` names the target
    object for cluster (router) workloads; single-object systems ignore it.
    ``session`` optionally names the logical client *session* the operation
    belongs to -- the cross-key, cross-shard identity the session auditor
    (:mod:`repro.consistency.sessions`) groups by.  When left ``None``, the
    cluster entry points stamp the default :attr:`session_id`.
    """

    kind: str
    at: float
    client_index: int = 0
    value: Optional[bytes] = None
    key: Optional[str] = None
    session: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (READ, WRITE):
            raise ValueError("operation kind must be 'read' or 'write'")
        if not math.isfinite(self.at):
            raise ValueError(f"at must be a finite time, got {self.at!r}")
        if self.at < 0:
            raise ValueError("operations cannot be scheduled in the past")
        if self.kind == WRITE and self.value is None:
            raise ValueError("write operations need a value")

    @property
    def session_id(self) -> str:
        """The operation's session identity (explicit, or the per-client
        default pairing writer ``i`` and reader ``i`` as one logical client)."""
        if self.session is not None:
            return self.session
        return _client_session(self.client_index)


@lru_cache(maxsize=None)
def _client_session(client_index: int) -> str:
    """``client-<i>``, built once per client, not once per arrival."""
    return f"client-{client_index}"


@dataclass
class Workload:
    """An ordered collection of scheduled operations."""

    operations: List[ScheduledOperation] = field(default_factory=list)
    description: str = ""

    def add(self, operation: ScheduledOperation) -> "Workload":
        self.operations.append(operation)
        return self

    def sorted_operations(self) -> List[ScheduledOperation]:
        return sorted(self.operations, key=lambda op: op.at)

    def __len__(self) -> int:
        return len(self.operations)


class ZipfKeySampler:
    """Samples keys with Zipf-distributed popularity (rank ``r`` gets weight
    ``1 / r**s``).

    Real object stores see heavily skewed access patterns; this sampler
    drives the cluster router with them so shard hot-spotting is a
    first-class, reproducible experiment.  Sampling is inverse-CDF over the
    precomputed cumulative weights, so it is O(log K) per draw and fully
    deterministic given the seed.
    """

    def __init__(self, keys: Sequence[str], s: float = 1.2,
                 seed: Optional[int] = None) -> None:
        if not keys:
            raise ValueError("the sampler needs at least one key")
        # Written so that a NaN exponent, which compares false, fails.
        if not s >= 0:
            raise ValueError("the Zipf exponent must be non-negative")
        self.keys = list(keys)
        self.s = s
        self._rng = random.Random(seed)
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(self.keys) + 1):
            total += 1.0 / rank ** s
            self._cumulative.append(total)
        self._total = total

    def sample(self) -> str:
        """Draw one key."""
        point = self._rng.random() * self._total
        index = bisect.bisect_left(self._cumulative, point)
        return self.keys[min(index, len(self.keys) - 1)]


class UniformKeySampler:
    """Samples keys uniformly (the skew-free baseline)."""

    def __init__(self, keys: Sequence[str], seed: Optional[int] = None) -> None:
        if not keys:
            raise ValueError("the sampler needs at least one key")
        self.keys = list(keys)
        self._rng = random.Random(seed)

    def sample(self) -> str:
        return self._rng.choice(self.keys)


class WorkloadGenerator:
    """Builds common workload shapes.

    The generators only *schedule invocation times*; whether operations end
    up concurrent depends on the latency model of the system they run on.
    Per-client well-formedness (one outstanding operation per client) is
    respected by spacing a client's operations at least ``client_spacing``
    apart, which callers should set larger than the worst-case operation
    latency of the target system.
    """

    def __init__(self, seed: Optional[int] = None, client_spacing: float = 50.0) -> None:
        if not 0 < client_spacing < math.inf:
            raise ValueError("client_spacing must be positive and finite")
        self._rng = random.Random(seed)
        self.client_spacing = client_spacing

    def _value(self, index: int, size: int = 8) -> bytes:
        return bytes([(index * 31 + offset) % 251 + 1 for offset in range(size)])

    def sequential(self, num_writes: int, num_reads: int, spacing: Optional[float] = None,
                   start: float = 0.0) -> Workload:
        """Alternating, non-overlapping writes and reads (no concurrency)."""
        spacing = self.client_spacing if spacing is None else spacing
        workload = Workload(description="sequential writes then reads")
        time = start
        for index in range(num_writes):
            workload.add(ScheduledOperation(kind=WRITE, at=time, client_index=0,
                                            value=self._value(index)))
            time += spacing
        for _ in range(num_reads):
            workload.add(ScheduledOperation(kind=READ, at=time, client_index=0))
            time += spacing
        return workload

    def mixed_random(self, num_operations: int, write_fraction: float, duration: float,
                     num_writers: int = 1, num_readers: int = 1,
                     start: float = 0.0) -> Workload:
        """Random mix of reads and writes over a time window.

        Each client's operations are spaced by ``client_spacing`` so the
        workload stays well-formed regardless of operation latency.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        _check_window(start, duration)
        workload = Workload(description="random read/write mix")
        next_free_writer = [start] * num_writers
        next_free_reader = [start] * num_readers
        for index in range(num_operations):
            at = start + self._rng.uniform(0.0, duration)
            if self._rng.random() < write_fraction:
                client = self._rng.randrange(num_writers)
                at = max(at, next_free_writer[client])
                next_free_writer[client] = at + self.client_spacing
                workload.add(ScheduledOperation(kind=WRITE, at=at, client_index=client,
                                                value=self._value(index)))
            else:
                client = self._rng.randrange(num_readers)
                at = max(at, next_free_reader[client])
                next_free_reader[client] = at + self.client_spacing
                workload.add(ScheduledOperation(kind=READ, at=at, client_index=client))
        return workload

    def keyed_random(self, keys: Sequence[str], num_operations: int,
                     write_fraction: float, duration: float,
                     key_sampler: Optional[object] = None,
                     writers_per_key: int = 1, readers_per_key: int = 1,
                     start: float = 0.0) -> Workload:
        """Random keyed read/write mix for a cluster router.

        ``key_sampler`` is any object with a ``sample() -> str`` method
        (:class:`ZipfKeySampler` for skew, :class:`UniformKeySampler` or
        ``None`` for the uniform default).  Well-formedness is enforced per
        (key, client): each shard has its own writers and readers, so two
        operations on the same key and client are spaced by
        ``client_spacing`` while different keys proceed fully in parallel.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be within [0, 1]")
        _check_window(start, duration)
        if key_sampler is None:
            key_sampler = UniformKeySampler(keys, seed=self._rng.randrange(2 ** 31))
        workload = Workload(description="random keyed read/write mix")
        next_free: dict = {}
        for index in range(num_operations):
            key = key_sampler.sample()
            at = start + self._rng.uniform(0.0, duration)
            if self._rng.random() < write_fraction:
                client = self._rng.randrange(writers_per_key)
                slot = (key, WRITE, client)
                at = max(at, next_free.get(slot, start))
                next_free[slot] = at + self.client_spacing
                workload.add(ScheduledOperation(kind=WRITE, at=at, client_index=client,
                                                value=self._value(index), key=key))
            else:
                client = self._rng.randrange(readers_per_key)
                slot = (key, READ, client)
                at = max(at, next_free.get(slot, start))
                next_free[slot] = at + self.client_spacing
                workload.add(ScheduledOperation(kind=READ, at=at, client_index=client,
                                                key=key))
        return workload

    def zipf_keyed(self, keys: Sequence[str], num_operations: int,
                   write_fraction: float, duration: float, s: float = 1.2,
                   writers_per_key: int = 1, readers_per_key: int = 1,
                   start: float = 0.0) -> Workload:
        """A :meth:`keyed_random` workload with Zipf-skewed key popularity."""
        sampler = ZipfKeySampler(keys, s=s, seed=self._rng.randrange(2 ** 31))
        workload = self.keyed_random(
            keys, num_operations, write_fraction, duration,
            key_sampler=sampler, writers_per_key=writers_per_key,
            readers_per_key=readers_per_key, start=start,
        )
        workload.description = f"zipf(s={s}) keyed read/write mix"
        return workload


def _check_window(start: float, duration: float) -> None:
    """Arrivals are drawn from ``[start, start + duration]``: a negative
    duration would put every one at ``start``, and a non-finite bound would
    make the times NaN or infinite."""
    if not (-math.inf < start < math.inf and 0 <= duration < math.inf):
        raise ValueError("a workload window needs a finite start and a "
                         "finite, non-negative duration")


__all__ = [
    "ScheduledOperation",
    "UniformKeySampler",
    "Workload",
    "WorkloadGenerator",
    "ZipfKeySampler",
]
