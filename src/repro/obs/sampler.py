"""Kernel-driven time-series sampling of cluster health.

:class:`ClusterSampler` arms a periodic probe on the global scheduler's
dedicated telemetry source (:meth:`GlobalScheduler.schedule_probe`) and,
at every tick, snapshots the cluster into one JSON-ready row:

* per-shard event-queue depth (total / max / the non-empty shards);
* replication lag -- primary log head minus each live follower's
  applied position, in records -- max, mean, and stale-store count;
* repair backlog: outstanding tasks plus the scheduler's cumulative
  dispatched / completed / gave-up / retry counters;
* read routing health: cumulative quorum reads, mean quorum depth,
  session fallbacks (and their per-read rate), read repairs;
* live-pool count and cumulative arrivals.

Rows accumulate in :attr:`samples` and export as JSONL
(:meth:`write_jsonl`); the same values feed gauges/histograms on the
shared metrics registry and, when a :class:`TraceRecorder` is attached,
Chrome counter events so lag and backlog render as area charts under
the op spans.

Probes are *pure observation*: they read simulation state and write
telemetry sinks, never schedule onto shards or mutate cluster state.
Combined with the kernel's probe bookkeeping (probes bypass the clock,
stats, fingerprint and trace), a sampled run is byte-identical to an
unsampled one.  The probe re-arms itself only while some non-telemetry
source still has pending work, so a drained simulation stays drained;
:meth:`ensure_armed` restarts the cadence when more load is added
later.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.obs.registry import MetricsRegistry

#: Default probe cadence, in virtual time units.
DEFAULT_INTERVAL = 25.0

#: Replication-lag histogram bounds, in records behind the primary.
LAG_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


class ClusterSampler:
    """Periodic cluster-health probe over a ``ClusterSimulation``.

    Duck-typed over the harness (needs ``kernel``, ``router``,
    ``replicas``, ``repair``, ``membership``), so anything exposing that
    surface samples the same way.
    """

    def __init__(self, simulation, *, interval: float = DEFAULT_INTERVAL,
                 registry: Optional[MetricsRegistry] = None,
                 trace=None) -> None:
        if interval <= 0:
            raise ValueError("the sampling interval must be positive")
        self.simulation = simulation
        self.interval = float(interval)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace
        self.samples: List[dict] = []
        self._armed = False
        self._next_tick = 0.0
        registry = self.registry
        self._g_queue_total = registry.gauge(
            "cluster_queue_depth_total",
            "events pending across all shard simulators")
        self._g_queue_max = registry.gauge(
            "cluster_queue_depth_max", "deepest single shard event queue")
        self._g_lag_max = registry.gauge(
            "cluster_replication_lag_max",
            "records the most-lagging live follower is behind its primary")
        self._g_stale_stores = registry.gauge(
            "cluster_replication_stale_stores",
            "live follower stores behind their primary's log head")
        self._g_repair_backlog = registry.gauge(
            "cluster_repair_backlog", "repair tasks queued or scheduled")
        self._g_live_pools = registry.gauge(
            "cluster_live_pools", "pools with at least one alive node")
        self._h_lag = registry.histogram(
            "cluster_replication_lag_records",
            "per-store replication lag observed at each probe",
            buckets=LAG_BUCKETS)

    # -- arming --------------------------------------------------------------------

    def start(self) -> None:
        """Arm the first probe one interval from the current global time."""
        self.ensure_armed()

    def ensure_armed(self) -> None:
        """(Re)arm the probe cadence if it previously wound down.

        Called by the harness before each pump, so workloads added after
        an earlier drain keep getting sampled.
        """
        if self._armed:
            return
        kernel = self.simulation.kernel
        self._armed = True
        self._next_tick = kernel.now + self.interval
        kernel.schedule_probe(self._next_tick, self._probe)

    # -- probing --------------------------------------------------------------------

    def _probe(self) -> None:
        kernel = self.simulation.kernel
        tick = self._next_tick
        self.samples.append(self.sample(tick))
        if kernel.pending_work():
            self._next_tick = tick + self.interval
            kernel.schedule_probe(self._next_tick, self._probe)
        else:
            # The foreground drained: record this final row and wind down
            # rather than keeping an otherwise-idle simulation spinning.
            self._armed = False

    def sample(self, tick: float) -> dict:
        """One cluster-health row at virtual time ``tick``."""
        router = self.simulation.router
        stats = router.stats

        by_shard = {}
        for key in sorted(router.shards):
            depth = router.shards[key].system.simulator.pending_events
            if depth:
                by_shard[key] = depth
        queue_total = sum(by_shard.values())
        queue_max = max(by_shard.values()) if by_shard else 0

        lags: List[int] = []
        replicas = self.simulation.replicas
        if replicas is not None:
            for key in sorted(replicas.groups):
                group = replicas.groups[key]
                head = len(group.log)
                for store in group.live_followers():
                    lag = head - len(store.applied)
                    lags.append(lag)
                    self._h_lag.observe(lag)
        lag_max = max(lags) if lags else 0
        lag_mean = sum(lags) / len(lags) if lags else 0.0
        stale = sum(1 for lag in lags if lag > 0)

        repair = self.simulation.repair
        backlog = repair.outstanding_repairs()

        membership = self.simulation.membership
        live_pools = sum(1 for pool in membership.pools
                         if membership.pool_alive(pool))

        routed = stats.routed_reads
        row = {
            "t": tick,
            "shards": len(router.shards),
            "queue_depth": {
                "total": queue_total,
                "max": queue_max,
                "by_shard": by_shard,
            },
            "replication_lag": {
                "max": lag_max,
                "mean": lag_mean,
                "stale_stores": stale,
                "stores": len(lags),
            },
            "repair": {
                "outstanding": backlog,
                "dispatched": repair.stats.dispatched,
                "completed": repair.stats.repairs_completed,
                "gave_up": repair.stats.gave_up,
                "retries": repair.stats.retries,
            },
            "reads": {
                "routed": routed,
                "quorum_reads": stats.quorum_reads,
                "mean_quorum_depth": _mean_depth(stats.quorum_depths),
                "session_fallbacks": stats.session_fallbacks,
                "fallback_rate": (stats.session_fallbacks / routed
                                  if routed else 0.0),
                "read_repairs": stats.read_repairs,
            },
            "pools_live": live_pools,
            "arrivals": stats.arrivals,
        }

        self._g_queue_total.set(queue_total)
        self._g_queue_max.set(queue_max)
        self._g_lag_max.set(lag_max)
        self._g_stale_stores.set(stale)
        self._g_repair_backlog.set(backlog)
        self._g_live_pools.set(live_pools)

        if self.trace is not None:
            self.trace.counter("queue depth", tick,
                               {"total": queue_total, "max": queue_max})
            self.trace.counter("replication lag", tick,
                               {"max": lag_max, "stale_stores": stale})
            self.trace.counter("repair backlog", tick,
                               {"outstanding": backlog,
                                "gave_up": repair.stats.gave_up})
        return row

    # -- export ---------------------------------------------------------------------

    def series(self, *path: str) -> List:
        """One field across all samples, e.g. ``series("replication_lag",
        "max")`` -- the shape the non-interference and acceptance tests
        assert on."""
        out = []
        for row in self.samples:
            value = row
            for key in path:
                value = value[key]
            out.append(value)
        return out

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row, sort_keys=True) + "\n"
                       for row in self.samples)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def _mean_depth(depths) -> float:
    total = sum(depth * count for depth, count in depths.items())
    counted = sum(depths.values())
    return total / counted if counted else 0.0


__all__ = ["ClusterSampler", "DEFAULT_INTERVAL", "LAG_BUCKETS"]
