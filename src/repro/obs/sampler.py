"""Kernel-driven time-series sampling of cluster health.

:class:`ClusterSampler` is a probe family of the global scheduler's one
periodic loop (:meth:`GlobalScheduler.every`, wired by
:meth:`Telemetry.attach`): at every tick it snapshots the cluster into
one JSON-ready row:

* the depth of the kernel's one event queue (every shard's pending
  events, plus arrivals and background activity);
* replication lag -- primary log head minus each live follower's
  applied position, in records -- max, mean, and stale-store count;
* repair backlog: outstanding tasks plus the scheduler's cumulative
  dispatched / completed / gave-up / retry counters;
* read routing health: cumulative quorum reads, mean quorum depth,
  session fallbacks (and their per-read rate), read repairs;
* live-pool count and cumulative arrivals.

Rows accumulate in :attr:`samples` and export as JSONL
(:meth:`write_jsonl`); the same values feed gauges on the shared metrics
registry and, when a :class:`TraceRecorder` is attached, Chrome counter
events so lag and backlog render as area charts under the op spans.

Probes are *pure observation*: they read simulation state and write
telemetry sinks, never schedule foreground events or mutate cluster state.
Combined with the kernel's probe bookkeeping (probes bypass the clock,
stats, fingerprint and trace), a sampled run is byte-identical to an
unsampled one.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.obs.registry import MetricsRegistry

#: Default probe cadence, in virtual time units.
DEFAULT_INTERVAL = 25.0


class ClusterSampler:
    """Periodic cluster-health probe over a ``ClusterSimulation``.

    Duck-typed over the cluster (needs ``kernel``, ``stats``, ``shards``,
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
        registry = self.registry
        self._g_queue_total = registry.gauge(
            "cluster_queue_depth_total",
            "events pending on the kernel's foreground queue")
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

    def tick(self, at: float) -> None:
        """Append one cluster-health row at virtual time ``at``."""
        simulation = self.simulation
        stats = simulation.stats

        queue_total = (simulation.kernel.simulator.pending_events
                       + simulation.arrivals_waiting)

        # Every figure below is an order-independent integer sum or
        # maximum, so the groups are walked in dict order, unsorted.
        replicas = simulation.replicas
        lags = [] if replicas is None else [
            len(group.log) - store.log_position
            for group in replicas.groups.values()
            for store in group.live_followers()]
        lag_max = max(lags) if lags else 0
        lag_mean = sum(lags) / len(lags) if lags else 0.0
        stale = sum(1 for lag in lags if lag > 0)

        repair = simulation.repair
        backlog = repair.outstanding_repairs()

        membership = simulation.membership
        live_pools = sum(1 for pool in membership.pools
                         if membership.pool_alive(pool))

        routed = stats.routed_reads
        row = {
            "t": at,
            "shards": len(simulation.shards),
            "queue_depth": {"total": queue_total},
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
        self._g_lag_max.set(lag_max)
        self._g_stale_stores.set(stale)
        self._g_repair_backlog.set(backlog)
        self._g_live_pools.set(live_pools)

        if self.trace is not None:
            self.trace.counter("queue depth", at, {"total": queue_total})
            self.trace.counter("replication lag", at,
                               {"max": lag_max, "stale_stores": stale})
            self.trace.counter("repair backlog", at,
                               {"outstanding": backlog,
                                "gave_up": repair.stats.gave_up})
        self.samples.append(row)

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


__all__ = ["ClusterSampler", "DEFAULT_INTERVAL"]
