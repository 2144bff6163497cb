"""Sampling availability monitoring: confidence, not a cluster scan.

Scanning every L2 slot of every shard each epoch is O(cluster), a cost
that grows with every shard the cluster adds.  This monitor borrows the
data-availability-sampling idea instead: the paper's layer-2 coded
fragments are natural *shares*, so a light probe samples ``k`` random
``(object, L2-fragment, pool)`` triples per epoch, verifies each
fragment's presence against the live pool state, and cross-checks every
hole against the repair scheduler's backlog (:meth:`pending_slots`) and
the membership's pool health.  A missing fragment the repair pipeline
already tracks, or one explained by a known-dead pool, is *protected*;
a hole nobody is going to fix is a **silent alarm** -- exactly the
silent under-replication a withheld repair produces.

The statistical claim is per object: a uniform sample of that object's
``n2`` fragment slots hits any one silently-missing slot with
probability at least ``1/n2``, so after ``s`` samples of the object the
monitor has detected a silent hole (if one exists) with probability at
least ``1 - (1 - 1/n2)^s``.

Sampling is additionally *weighted by repair-backlog age*: every slot
the repair scheduler has ever reported pending joins a watchlist
stamped with the epoch it was first seen, and each epoch spends up to
``backlog_priority`` of its sample budget probing the **oldest**
watchlist entries before drawing the rest uniformly.  A slot stays
watched until it is observed present again -- so a repair that is
withheld or gives up (leaving the backlog without fixing the hole)
keeps getting probed directly instead of waiting for a lucky uniform
draw, and the oldest holes are detected first.  The per-epoch budget is
unchanged and the uniform draws use the same RNG stream, so with an
empty backlog the monitor behaves identically to pure uniform
sampling.  :meth:`assessment` reports that bound per
object and its minimum across objects -- the confidence that *every*
object still has its full complement of fragments standing between it
and ``f2`` further failures.  O(samples) per epoch, flat in cluster
size; ``consistency.injection.inject_under_replication`` /
``inject_withheld_repair`` plus ``tests/obs/test_availability.py``
prove the alarm fires at the stated rate.

Like every probe in :mod:`repro.obs`, the monitor is pure observation:
it draws from its own seeded RNG inside telemetry probes only, so a
fixed-seed run is byte-identical with monitoring on or off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

#: Default sampling cadence, in virtual time units.
DEFAULT_AVAILABILITY_INTERVAL = 50.0

#: Default samples per epoch.
DEFAULT_SAMPLES_PER_EPOCH = 8

#: Default per-epoch budget reserved for the oldest backlog slots.
DEFAULT_BACKLOG_PRIORITY = 2

#: Sample classifications.
PRESENT = "present"
PROTECTED = "protected"        # missing, but the repair backlog covers it
POOL_DOWN = "pool-down"        # missing because the whole pool is dead
SILENT = "silent"              # missing, unprotected: the alarm condition


@dataclass
class AvailabilityAssessment:
    """The monitor's verdict over everything sampled so far."""

    epochs: int = 0
    samples_taken: int = 0
    fragments_missing: int = 0
    protected_misses: int = 0
    pool_down_misses: int = 0
    #: One row per silent hole observation: {t, key, l2_index, pool}.
    silent_alarms: List[dict] = field(default_factory=list)
    #: key -> 1 - (1 - 1/n2)^samples(key): the probability a silent hole
    #: on that object would have been caught by now.
    confidence_by_object: Dict[str, float] = field(default_factory=dict)
    #: The weakest per-object bound: confidence every object is whole.
    min_confidence: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.silent_alarms

    def describe(self) -> str:
        if not self.ok:
            holes = {(row["key"], row["l2_index"])
                     for row in self.silent_alarms}
            return (f"availability ALARM: {len(holes)} silent hole(s) in "
                    f"{len(self.silent_alarms)} sample(s)")
        return (f"availability ok "
                f"(min per-object detection confidence "
                f"{self.min_confidence:.3f} over {self.samples_taken} samples)")


class AvailabilityMonitor:
    """Periodic fragment-presence sampling over a ``ClusterSimulation``.

    Duck-typed over the harness (needs ``kernel``, ``router``,
    ``repair``, ``membership``); a family of the kernel's one periodic
    probe loop, like the sampler.
    """

    def __init__(self, simulation, *,
                 interval: float = DEFAULT_AVAILABILITY_INTERVAL,
                 samples_per_epoch: int = DEFAULT_SAMPLES_PER_EPOCH,
                 backlog_priority: int = DEFAULT_BACKLOG_PRIORITY,
                 seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 trace=None) -> None:
        if interval <= 0:
            raise ValueError("the sampling interval must be positive")
        if samples_per_epoch < 1:
            raise ValueError("at least one sample per epoch is required")
        if backlog_priority < 0:
            raise ValueError("backlog_priority cannot be negative")
        self.simulation = simulation
        self.interval = float(interval)
        self.samples_per_epoch = int(samples_per_epoch)
        self.backlog_priority = int(backlog_priority)
        #: (key, l2_index) -> virtual time the slot was first seen in the
        #: repair backlog.  Entries persist until observed present, so
        #: withheld/given-up repairs stay probed (oldest first).
        self._watchlist: Dict[Tuple[str, int], float] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        #: Probe-only RNG: seeded for reproducibility, never shared with
        #: the simulation, so sampling cannot perturb the event order.
        self._rng = random.Random(seed)
        self.epochs = 0
        #: key -> samples taken of that object.
        self.samples_by_object: Dict[str, int] = {}
        self.samples_taken = 0
        self.fragments_missing = 0
        self.protected_misses = 0
        self.pool_down_misses = 0
        self.silent_alarms: List[dict] = []
        registry = self.registry
        self._c_samples = registry.counter(
            "availability_samples", "fragment-presence samples drawn")
        self._c_missing = registry.counter(
            "availability_missing_fragments",
            "sampled fragments found missing (any cause)")
        self._c_silent = registry.counter(
            "availability_silent_holes",
            "sampled fragments missing with no repair pending and the pool "
            "alive -- silent under-replication")
        self._g_confidence = registry.gauge(
            "availability_min_confidence",
            "weakest per-object silent-hole detection confidence")

    # -- sampling -------------------------------------------------------------------

    def tick(self, at: Optional[float] = None) -> List[str]:
        """One epoch: draw ``samples_per_epoch`` triples and classify them.

        The kernel's probe loop passes the epoch's nominal instant as
        ``at``; tests and offline calibration call it directly, which
        samples the cluster's current state at ``kernel.now``.
        """
        simulation = self.simulation
        router = simulation.router
        shards = router._shards
        keys = sorted(shards)
        if not keys:
            return []
        if at is None:
            at = simulation.kernel.now
        self.epochs += 1
        pending = simulation.repair.pending_slots()
        membership = simulation.membership
        pool_alive = {pool: membership.pool_alive(pool)
                      for pool in membership.pools}
        for slot in sorted(pending):
            if slot not in self._watchlist:
                self._watchlist[slot] = at
        outcomes: List[str] = []
        # Age-weighted pass: spend up to ``backlog_priority`` of the
        # budget on the oldest watched slots before drawing uniformly.
        targeted_budget = min(self.backlog_priority, self.samples_per_epoch)
        if self._watchlist and targeted_budget:
            ordered = sorted(self._watchlist.items(),
                             key=lambda item: (item[1], item[0]))
            for (key, index), _first_seen in ordered:
                if len(outcomes) >= targeted_budget:
                    break
                shard = shards.get(key)
                if shard is None or index >= len(shard.system.l2_servers):
                    # The shard migrated or shrank: nothing left to watch.
                    del self._watchlist[(key, index)]
                    continue
                outcome = self._classify(key, shard, index, pending,
                                         pool_alive, at)
                outcomes.append(outcome)
                self.samples_taken += 1
                self.samples_by_object[key] = \
                    self.samples_by_object.get(key, 0) + 1
                if outcome == PRESENT:
                    del self._watchlist[(key, index)]
        for _ in range(self.samples_per_epoch - len(outcomes)):
            key = keys[self._rng.randrange(len(keys))]
            shard = shards[key]
            servers = shard.system.l2_servers
            index = self._rng.randrange(len(servers))
            outcome = self._classify(key, shard, index, pending, pool_alive,
                                     at)
            outcomes.append(outcome)
            self.samples_taken += 1
            self.samples_by_object[key] = self.samples_by_object.get(key, 0) + 1
        self._c_samples.inc(len(outcomes))
        self._g_confidence.set(self.assessment().min_confidence)
        return outcomes

    def _classify(self, key: str, shard, index: int, pending, pool_alive,
                  at: float) -> str:
        if not shard.system.l2_servers[index].crashed:
            return PRESENT
        self.fragments_missing += 1
        self._c_missing.inc()
        if (key, index) in pending:
            self.protected_misses += 1
            return PROTECTED
        if not pool_alive.get(shard.pool, True):
            # The whole pool is down: a known outage (membership sees it,
            # failover/replica machinery owns it), not silent decay.
            self.pool_down_misses += 1
            return POOL_DOWN
        self.silent_alarms.append(
            {"t": at, "key": key, "l2_index": index, "pool": shard.pool})
        self._c_silent.inc()
        if self.trace is not None:
            self.trace.instant(
                f"availability-alarm {key}", at, cat="audit",
                args={"key": key, "l2_index": index, "pool": shard.pool})
        return SILENT

    # -- results -------------------------------------------------------------------

    def assessment(self) -> AvailabilityAssessment:
        confidence: Dict[str, float] = {}
        minimum = 1.0 if self.samples_by_object else 0.0
        router = self.simulation.router
        shards = router._shards
        for key, samples in sorted(self.samples_by_object.items()):
            shard = shards.get(key)
            slots = len(shard.system.l2_servers) if shard is not None else 1
            bound = 1.0 - (1.0 - 1.0 / slots) ** samples
            confidence[key] = bound
            if bound < minimum:
                minimum = bound
        return AvailabilityAssessment(
            epochs=self.epochs,
            samples_taken=self.samples_taken,
            fragments_missing=self.fragments_missing,
            protected_misses=self.protected_misses,
            pool_down_misses=self.pool_down_misses,
            silent_alarms=list(self.silent_alarms),
            confidence_by_object=confidence,
            min_confidence=minimum,
        )


__all__ = [
    "AvailabilityAssessment",
    "AvailabilityMonitor",
    "DEFAULT_AVAILABILITY_INTERVAL",
    "DEFAULT_BACKLOG_PRIORITY",
    "DEFAULT_SAMPLES_PER_EPOCH",
    "PRESENT",
    "PROTECTED",
    "POOL_DOWN",
    "SILENT",
]
