"""The cluster: membership + router + repair on one global clock.

:class:`ClusterSimulation` is the one object cluster experiments drive.
It is the cluster's :class:`~repro.cluster.router.ObjectRouter`, built
over a :class:`~repro.cluster.membership.Membership` with one full node
set per named pool and a :class:`~repro.net.kernel.GlobalScheduler`, and
it wires a :class:`~repro.cluster.repair.RepairScheduler` to the
failures.  Every stochastic component derives from one root seed, and
every per-shard latency model is scaled by a shared
:class:`~repro.net.latency.LatencyRegime` (so scenarios can shift the
whole cluster between latency regimes).  On top of the router's keyed
driving API (``write`` / ``read`` / ``invoke_*`` / ``add_workload`` /
``run_until_idle`` / ``history`` / ``check_atomicity`` / ...) it adds:

* node failure injection and pool join/leave with automatic rebalancing
  (``fail_node`` / ``fail_pool`` / ``add_pool`` / ``remove_pool``);
* :meth:`apply` -- run a declarative :class:`~repro.sim.scenario.Scenario`;
* :meth:`audit` -- atomicity plus the cross-shard session audit;
* :meth:`timeline` -- the merged global timeline of foreground operations,
  background repairs, migrations and scenario actions, which is what the
  examples print and the interleaving tests assert on.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.cluster.membership import Membership, MembershipEvent
from repro.cluster.placement import RebalancePlan
from repro.cluster.repair import GAVE_UP, RepairScheduler
from repro.cluster.read_policy import ReplicationConfig
from repro.cluster.ring import derive_seed
from repro.cluster.router import ObjectRouter
from repro.core.config import LDSConfig
from repro.net.latency import BoundedLatencyModel, LatencyModel, LatencyRegime
from repro.net.kernel import GlobalScheduler
from repro.sim.scenario import Scenario, ScenarioEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.consistency.sessions import ClusterAuditReport


def seeded_latency_factory(seed: int, regime: LatencyRegime
                           ) -> Callable[[str, str], LatencyModel]:
    """The seeded per-shard latency factory.

    Every (pool, key) pair gets a :class:`BoundedLatencyModel` whose seed
    derives from the root seed, so one root seed fixes every latency draw
    in the cluster, scaled by the shared ``regime`` so scenario scripts
    can shift the whole cluster's latency at once.
    """
    def factory(pool: str, key: str) -> LatencyModel:
        return BoundedLatencyModel(seed=derive_seed(seed, "latency", pool, key),
                                   regime=regime)

    return factory


class ClusterSimulation(ObjectRouter):
    """A multi-pool, multi-object LDS deployment with background repair,
    driven end to end by one global simulation kernel.

    It *is* the cluster's :class:`~repro.cluster.router.ObjectRouter`, so
    the keyed driving API (``write`` / ``invoke_read`` / ``add_workload``
    / ``run_until_idle`` / ``history`` / ``check_atomicity`` / ...) is the
    router's own; this class adds the wiring, seeding, membership
    operations, scenarios, the audit and the timeline."""

    def __init__(self, config: LDSConfig, pool_names: List[str], *,
                 seed: int = 0, vnodes: int = 128,
                 writers_per_shard: int = 1, readers_per_shard: int = 1,
                 repair_min_interval: float = 5.0,
                 repair_max_concurrent: int = 1,
                 repair_detection_delay: float = 1.0,
                 repair_slot_jitter: float = 0.0,
                 replication: Optional[ReplicationConfig] = None,
                 read_policy: str = "primary",
                 telemetry=None, sanitize: bool = False) -> None:
        if not pool_names:
            raise ValueError("a cluster needs at least one pool")
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, not {type(seed).__name__}")
        #: Root RNG seed.  Every stochastic component (per-shard latency
        #: models, replica distances, repair jitter) derives its own seed
        #: from it, so one seed fixes the entire global event order.
        self.seed = seed
        self.latency_regime = LatencyRegime()
        #: Optional :class:`repro.obs.Telemetry` bundle.  Purely
        #: observational: a run with telemetry attached produces the same
        #: kernel fingerprint and histories as the same seed without it.
        self.telemetry = telemetry
        membership = Membership.for_pools(pool_names, n1=config.n1,
                                          n2=config.n2, vnodes=vnodes)
        if replication is not None and replication.seed is None:
            # Thread the root seed into replica distances unless the
            # caller pinned one explicitly.
            replication = dc_replace(replication,
                                     seed=derive_seed(seed, "replicas"))
        super().__init__(
            config, membership, GlobalScheduler(),
            writers_per_shard=writers_per_shard,
            readers_per_shard=readers_per_shard,
            latency_factory=seeded_latency_factory(seed, self.latency_regime),
            replication=replication,
            read_policy=read_policy,
            telemetry=telemetry,
        )
        self.repair = RepairScheduler(
            self,
            min_interval=repair_min_interval,
            max_concurrent=repair_max_concurrent,
            detection_delay=repair_detection_delay,
            slot_jitter=repair_slot_jitter,
            seed=derive_seed(seed, "repair"),
        )
        if self.replicas is not None:
            # Follower-read latency scales with the shared regime, so a
            # latency-shift action slows replica serves like protocol
            # traffic.
            self.replicas.latency_regime = self.latency_regime
        if telemetry is not None:
            telemetry.attach(self)
        if sanitize:
            # Runtime invariant checking on the pump (clock monotonicity,
            # past scheduling, probe purity, pending-map leaks).
            # Purely observational: a sanitized run produces the same
            # kernel fingerprint as the same seed without it.
            sanitizer = self.kernel.enable_sanitizer()
            if self.replicas is not None:
                for name, mapping in self.replicas.sanitizer_watches():
                    sanitizer.watch_map(name, mapping)
        self.engine = ScenarioEngine(self)

    @property
    def router(self) -> "ClusterSimulation":
        """The simulation itself, for ``benchmarks/lds_bench/repetition.py``'s
        ``simulation.router``; ROADMAP item 1 (ii) retires it."""
        return self

    def read_distribution(self):
        """Per-replica read counts / routing hit rates of the run so far."""
        from repro.workloads.metrics import ReadDistribution
        return ReadDistribution.from_router_stats(self.stats)

    def set_latency_scale(self, scale: float) -> None:
        """Shift the whole cluster's latency regime (takes effect on the
        next message of every shard)."""
        self.latency_regime.set(scale)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Flush every queued batch, then pump the kernel (to ``until``)."""
        self.flush()
        self.kernel.run(until=until, max_events=max_events)

    def run_report(self) -> str:
        """The telemetry run report (requires a telemetry bundle)."""
        if self.telemetry is None:
            raise ValueError("this simulation was built without telemetry")
        return self.telemetry.report(self)

    def audit(self) -> ClusterAuditReport:
        """The post-run correctness verdict of the whole simulation.

        Combines the per-epoch atomicity check (the paper's per-object
        guarantee) with the cross-shard session audit over the merged
        global-clock history (monotonic reads / monotonic writes /
        read-your-writes / writes-follow-reads per logical client session).
        Every shipped scenario is expected to audit clean; see
        :mod:`repro.consistency.injection` for proving the auditor's
        detection power.

        The session verdict is the one session auditor's: replayed over
        the recorded history by ``check_sessions``, or -- when the
        simulation ran with ``Telemetry(live_audit=True)`` -- the live
        probe's own auditor, finalized here instead of replaying.  With
        an ``availability_interval`` the report also carries the
        availability monitor's sampling assessment.
        """
        # Audit-only code loads when an audit runs.
        from repro.consistency.sessions import ClusterAuditReport, check_sessions
        telemetry = self.telemetry
        auditor = getattr(telemetry, "auditor", None)
        availability = getattr(telemetry, "availability", None)
        if auditor is not None:
            sessions = auditor.report()
        else:
            sessions = check_sessions(self.history())
        return ClusterAuditReport(
            atomicity=self.check_atomicity(),
            sessions=sessions,
            availability=(availability.assessment()
                          if availability is not None else None),
        )

    # -- membership operations -----------------------------------------------------------
    #
    # ``time`` is a global time and defaults to the current one: a
    # membership event stamped in the global past would place its repairs
    # on the timeline before the failure that caused them.

    def _time(self, time: Optional[float]) -> float:
        if time is None:
            return self.kernel.now
        if not -math.inf < time < math.inf:
            raise ValueError("time must be finite")
        return time

    def fail_node(self, node_id: str,
                  time: Optional[float] = None) -> MembershipEvent:
        """Crash one pool node; the repair scheduler takes it from there.

        Stamped now (the default), every shard on the pool is degraded
        when this returns.
        """
        return self.membership.fail(node_id, time=self._time(time))

    def fail_pool(self, pool: str,
                  time: Optional[float] = None) -> List[MembershipEvent]:
        """Crash every alive node of a pool (correlated pool loss).

        The kill is atomic at the membership level (every listener sees
        the pool already down); with replica groups that is the signal
        driving primary failover and follower re-provisioning (see
        :mod:`repro.cluster.replicas`).  Without replicas the pool's
        shards simply stall until an administrator migrates them away.
        """
        return self.membership.fail_pool(pool, time=self._time(time))

    def add_pool(self, pool: str, time: Optional[float] = None,
                 weight: float = 1.0) -> RebalancePlan:
        """Join a new pool (full node set) and rebalance onto it."""
        time = self._time(time)
        self.membership.join_pool(pool, n1=self.config.n1, n2=self.config.n2,
                                  weight=weight, time=time)
        return self.rebalance(reason=f"join {pool}", time=time)

    def remove_pool(self, pool: str,
                    time: Optional[float] = None) -> RebalancePlan:
        """Drain a pool out of the ring and migrate its shards away."""
        time = self._time(time)
        self.membership.leave_pool(pool, time=time)
        return self.rebalance(reason=f"leave {pool}", time=time)

    # -- scenarios -----------------------------------------------------------------------

    def apply(self, scenario: Scenario, run: bool = True) -> ScenarioEngine:
        """Schedule a scenario's actions; optionally pump to quiescence."""
        self.engine.schedule(scenario)
        if run:
            self.run_until_idle()
        return self.engine

    # -- the merged global timeline --------------------------------------------------------

    def timeline(self) -> List[Tuple[float, str, str]]:
        """Every simulated happening as ``(global_time, category, detail)``.

        Categories: ``invoke`` / ``respond`` (foreground operations, with
        the shard key in the detail), ``repair-start`` / ``repair-done``,
        ``migrate``, the replica-layer events (``primary-down`` /
        ``promote`` / ``follower-lost`` / ``follower-provisioned`` /
        ``read-repair``) and the scenario action kinds.  Sorted by time;
        this is
        the artefact proving repairs and migrations interleave with
        foreground operations across shards on one clock.
        """
        entries: List[Tuple[float, str, str]] = []
        for op in self.history():
            label = f"{op.kind} {op.op_id}"
            entries.append((op.invoked_at, "invoke", label))
            if op.responded_at is not None:
                entries.append((op.responded_at, "respond", label))
        for task in self.repair.tasks:
            # A task that gave up without ever executing (e.g. its shard
            # migrated away before the slot came due) never started; its
            # assigned slot time would be a phantom on the timeline.
            never_ran = task.status == GAVE_UP and task.attempts == 0
            if task.scheduled_at is not None and not never_ran:
                entries.append((task.scheduled_at, "repair-start",
                                f"{task.key} l2-{task.l2_index}"))
            if task.completed_at is not None:
                entries.append((task.completed_at, "repair-done",
                                f"{task.key} l2-{task.l2_index}"))
        for time, key, source, target in self.migration_log:
            entries.append((time, "migrate", f"{key}: {source} -> {target}"))
        if self.replicas is not None:
            # primary-down / promote / follower-lost / follower-provisioned
            # / read-repair.
            entries.extend(self.replicas.failover_log)
        for time, kind, detail in self.engine.log:
            entries.append((time, kind, detail))
        entries.sort(key=lambda entry: entry[0])
        return entries

    def describe(self) -> str:
        return (
            f"ClusterSimulation(seed={self.seed}, now={self.kernel.now:.1f}, "
            f"events={self.kernel.stats.events_total}, "
            f"pools={len(self.membership.pools)}, "
            f"shards={len(self.shards)}, {self.config.describe()})"
        )


__all__ = ["ClusterSimulation"]
