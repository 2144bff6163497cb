"""Metric summaries used by the workload runner and the benchmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics for a collection of operation latencies."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0, mean=0.0, minimum=0.0, maximum=0.0, p50=0.0, p95=0.0, p99=0.0)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def summarize_latencies(latencies: Iterable[float]) -> LatencySummary:
    """Compute a :class:`LatencySummary` from raw latencies."""
    values: List[float] = [float(v) for v in latencies]
    if not values:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(values),
        mean=sum(values) / len(values),
        minimum=min(values),
        maximum=max(values),
        p50=percentile(values, 0.50),
        p95=percentile(values, 0.95),
        p99=percentile(values, 0.99),
    )


@dataclass(frozen=True)
class ReadDistribution:
    """How a replica-routed read workload spread over the replicas.

    Built from the router's counters (duck-typed, so any object exposing
    ``reads_by_replica`` / ``primary_reads`` / ``follower_reads`` /
    ``session_fallbacks`` / ``failover_deferrals`` / ``policy_hit_rate``
    works); benchmarks assert on it to prove follower reads actually
    offload the primaries and the routing policy's choices are honored.
    """

    #: Reads routed per pool (primary, follower and quorum-leg routes
    #: combined; a read stranded by a crash mid-flight stays counted
    #: against its replica).
    counts: Dict[str, int] = field(default_factory=dict)
    primary_reads: int = 0
    follower_reads: int = 0
    session_fallbacks: int = 0
    retired_fallbacks: int = 0
    failover_deferrals: int = 0
    policy_hit_rate: float = 0.0
    #: Reads resolved by quorum fan-out (each counted once, not per leg).
    quorum_reads: int = 0
    #: Histogram of merged responses per quorum read (depth below the
    #: configured quorum marks members lost mid-flight).
    quorum_depths: Dict[int, int] = field(default_factory=dict)
    #: Lagging stores caught up by quorum-merge read repair.
    read_repairs: int = 0
    #: Writes forwarded follower -> primary.
    forwarded_writes: int = 0

    @classmethod
    def from_router_stats(cls, stats) -> "ReadDistribution":
        return cls(
            counts=dict(stats.reads_by_replica),
            primary_reads=stats.primary_reads,
            follower_reads=stats.follower_reads,
            session_fallbacks=stats.session_fallbacks,
            retired_fallbacks=getattr(stats, "retired_fallbacks", 0),
            failover_deferrals=stats.failover_deferrals,
            policy_hit_rate=stats.policy_hit_rate,
            quorum_reads=getattr(stats, "quorum_reads", 0),
            quorum_depths=dict(getattr(stats, "quorum_depths", {})),
            read_repairs=getattr(stats, "read_repairs", 0),
            forwarded_writes=getattr(stats, "forwarded_writes", 0),
        )

    @property
    def total(self) -> int:
        """Reads routed (failover-deferred, not-yet-routed reads excluded)."""
        return self.primary_reads + self.follower_reads + self.quorum_reads

    @property
    def follower_fraction(self) -> float:
        """Share of routed reads handled by follower stores."""
        return self.follower_reads / self.total if self.total else 0.0

    @property
    def mean_quorum_depth(self) -> float:
        """Mean merged responses per quorum read (0.0 without quorums)."""
        merged = sum(depth * count
                     for depth, count in self.quorum_depths.items())
        counted = sum(self.quorum_depths.values())
        return merged / counted if counted else 0.0

    @property
    def session_fallback_rate(self) -> float:
        """Session-guard fallbacks per routed read.

        Fallbacks count per rejected follower *choice*: under the quorum
        policy each logical read falls back at most once, but a
        single-store policy read can reject several lagging followers in
        turn, so the rate can exceed 1.0 there.
        """
        return self.session_fallbacks / self.total if self.total else 0.0

    @property
    def mean(self) -> float:
        values = list(self.counts.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def max_over_mean(self) -> float:
        """Peak-to-average ratio over the pools that received reads."""
        if not self.counts or not self.mean:
            return 0.0
        return max(self.counts.values()) / self.mean

    @property
    def coefficient_of_variation(self) -> float:
        """stddev / mean of per-pool serve counts (0 = perfectly even)."""
        values = list(self.counts.values())
        if not values or not self.mean:
            return 0.0
        variance = sum((v - self.mean) ** 2 for v in values) / len(values)
        return math.sqrt(variance) / self.mean

    def describe(self) -> str:
        quorum = ""
        if self.quorum_reads:
            quorum = (f", quorum_reads={self.quorum_reads}, "
                      f"mean_depth={self.mean_quorum_depth:.2f}, "
                      f"repairs={self.read_repairs}")
        forwarded = (f", forwarded_writes={self.forwarded_writes}"
                     if self.forwarded_writes else "")
        return (
            f"ReadDistribution(total={self.total}, "
            f"follower_fraction={self.follower_fraction:.2f}, "
            f"cv={self.coefficient_of_variation:.2f}, "
            f"hit_rate={self.policy_hit_rate:.2f}, "
            f"fallbacks={self.session_fallbacks}, "
            f"deferrals={self.failover_deferrals}"
            f"{quorum}{forwarded})"
        )


__all__ = ["LatencySummary", "ReadDistribution", "percentile",
           "summarize_latencies"]
