"""The cluster facade: membership + router + repair on one global clock.

:class:`ClusterSimulation` is the one-stop entry point for cluster
experiments: it builds a :class:`~repro.cluster.membership.Membership`
with one full node set per named pool, an
:class:`~repro.cluster.router.ObjectRouter` over it driven by a
:class:`~repro.sim.kernel.GlobalScheduler`, and a
:class:`~repro.cluster.repair.RepairScheduler` subscribed to failures.
Every stochastic component derives from one root seed, and every
per-shard latency model is wrapped in a shared
:class:`~repro.net.latency.LatencyRegime` (so scenarios can shift the
whole cluster between latency regimes).  It exposes:

* the keyed driving API (``write`` / ``read`` / ``invoke_write`` /
  ``invoke_read`` / ``run_until_idle`` / ``history`` /
  ``check_atomicity`` / ...), so
  :class:`~repro.workloads.runner.KeyedWorkloadRunner` drives it exactly
  like a router, with arrivals, repairs and migrations interleaving on
  the global clock;
* node failure injection and pool join/leave with automatic rebalancing
  (``fail_node`` / ``fail_pool`` / ``add_pool`` / ``remove_pool``);
* :meth:`add_workload` -- schedule a keyed workload's operations as timed
  *arrival events* on the kernel (each operation is injected into its
  shard at its nominal global time, creating the shard then if needed);
* :meth:`apply` -- run a declarative :class:`~repro.sim.scenario.Scenario`;
* :meth:`timeline` -- the merged global timeline of foreground operations,
  background repairs, migrations and scenario actions, which is what the
  examples print and the interleaving tests assert on.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.cluster.membership import ClusterNode, Membership, MembershipEvent
from repro.cluster.placement import RebalancePlan
from repro.cluster.repair import GAVE_UP, RepairScheduler
from repro.cluster.replicas import ReadRoutingPolicy, ReplicationConfig
from repro.cluster.ring import derive_seed
from repro.cluster.router import ObjectRouter
from repro.consistency.history import History
from repro.consistency.linearizability import AtomicityViolation
from repro.consistency.sessions import ClusterAuditReport, check_sessions
from repro.core.config import LDSConfig
from repro.core.results import OperationResult
from repro.net.latency import (
    BoundedLatencyModel,
    LatencyModel,
    LatencyRegime,
    ScaledLatencyModel,
)
from repro.sim.kernel import GlobalScheduler, KernelStats
from repro.sim.scenario import Scenario, ScenarioEngine
from repro.workloads.generator import Workload


def seeded_latency_factory(seed, regime: LatencyRegime
                           ) -> Callable[[str, str], LatencyModel]:
    """The seeded per-shard latency factory.

    Every (pool, key) pair gets a :class:`BoundedLatencyModel` whose seed
    derives from the root seed, so one root seed fixes every latency draw
    in the cluster, wrapped in the shared ``regime`` so scenario scripts
    can shift the whole cluster's latency at once.
    """
    def factory(pool: str, key: str) -> LatencyModel:
        base = BoundedLatencyModel(seed=derive_seed(seed, "latency", pool, key))
        return ScaledLatencyModel(base, regime)

    return factory


class ClusterSimulation:
    """A multi-pool, multi-object LDS deployment with background repair,
    driven end to end by one global simulation kernel."""

    def __init__(self, config: LDSConfig, pool_names: List[str], *,
                 seed: int = 0, record_trace: bool = False,
                 vnodes: int = 128,
                 writers_per_shard: int = 1, readers_per_shard: int = 1,
                 repair_min_interval: float = 5.0,
                 repair_max_concurrent: int = 1,
                 repair_detection_delay: float = 1.0,
                 repair_slot_jitter: float = 0.0,
                 replication: Optional[ReplicationConfig] = None,
                 read_policy: Union[str, ReadRoutingPolicy] = "primary",
                 telemetry=None, live_audit: bool = False,
                 latency: bool = False,
                 sanitize: bool = False) -> None:
        if not pool_names:
            raise ValueError("a cluster needs at least one pool")
        self.config = config
        #: Root RNG seed.  Every stochastic component (per-shard latency
        #: models, replica distances, repair jitter) derives its own seed
        #: from it, so one seed fixes the entire global event order.
        self.seed = seed
        self.kernel = GlobalScheduler(record_trace=record_trace)
        self.latency_regime = LatencyRegime()
        if latency:
            # Tail-latency observability: per-op-class quantile sketches,
            # phase decomposition and critical-path attribution over the
            # span stream (see repro.obs.latency).  Enabled here, before
            # the cluster is built, because the router captures its span
            # sink at construction.
            from repro.obs.telemetry import Telemetry
            if telemetry is None:
                telemetry = Telemetry(latency=True)
            else:
                telemetry.enable_latency()
        if live_audit:
            # Online correctness observability: run the streaming session
            # auditor and the sampling availability monitor during the
            # simulation (probe-driven, so fingerprints stay identical;
            # see repro.obs.live_audit / repro.obs.availability).
            from repro.obs.availability import DEFAULT_AVAILABILITY_INTERVAL
            from repro.obs.telemetry import Telemetry
            if telemetry is None:
                telemetry = Telemetry(
                    live_audit=True,
                    availability_interval=DEFAULT_AVAILABILITY_INTERVAL)
            else:
                telemetry.live_audit = True
                if telemetry.availability_interval is None:
                    telemetry.availability_interval = \
                        DEFAULT_AVAILABILITY_INTERVAL
        #: Optional :class:`repro.obs.Telemetry` bundle.  Purely
        #: observational: a run with telemetry attached produces the same
        #: kernel fingerprint and histories as the same seed without it.
        self.telemetry = telemetry
        self.membership = Membership.for_pools(pool_names, n1=config.n1,
                                               n2=config.n2, vnodes=vnodes)
        if replication is not None and seed is not None \
                and replication.seed is None:
            # Thread the root seed into replica distances / lag jitter
            # unless the caller pinned one explicitly.
            replication = dc_replace(replication,
                                     seed=derive_seed(seed, "replicas"))
        self.router = ObjectRouter(
            config, self.membership, self.kernel,
            writers_per_shard=writers_per_shard,
            readers_per_shard=readers_per_shard,
            latency_factory=seeded_latency_factory(seed, self.latency_regime),
            replication=replication,
            read_policy=read_policy,
            telemetry=telemetry,
        )
        self.repair = RepairScheduler(
            self.router,
            min_interval=repair_min_interval,
            max_concurrent=repair_max_concurrent,
            detection_delay=repair_detection_delay,
            slot_jitter=repair_slot_jitter,
            seed=None if seed is None else derive_seed(seed, "repair"),
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
            # local-past scheduling, probe purity, pending-map leaks).
            # Purely observational: a sanitized run produces the same
            # kernel fingerprint as the same seed without it.
            sanitizer = self.kernel.enable_sanitizer()
            if self.replicas is not None:
                for name, mapping in self.replicas.sanitizer_watches():
                    sanitizer.watch_map(name, mapping)
        self.engine = ScenarioEngine(self)

    # -- conveniences over the wired parts ---------------------------------------

    @property
    def replicas(self):
        """The replica-group coordinator (None when replication is off)."""
        return self.router.replicas

    def read_distribution(self):
        """Per-replica read counts / routing hit rates of the run so far."""
        from repro.workloads.metrics import ReadDistribution
        return ReadDistribution.from_router_stats(self.router.stats)

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def interleaving(self) -> KernelStats:
        return self.kernel.stats

    def set_latency_scale(self, scale: float) -> None:
        """Shift the whole cluster's latency regime (takes effect on the
        next message of every shard)."""
        self.latency_regime.set(scale)

    def ensure_shards(self, keys) -> None:
        """Pre-warm shards at the current global time.

        Shards are otherwise created lazily at their first arrival, so a
        failure scripted early in a scenario would only touch the few
        shards that happen to exist by then.
        """
        self.router.ensure_shards(keys)

    # -- workload arrivals ----------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Count of operations injected through kernel arrival events."""
        return self.router.stats.arrivals

    def add_workload(self, workload: Workload, start: float = 0.0,
                     on_handle=None) -> int:
        """Schedule a keyed workload's operations as kernel arrival events
        (see :meth:`ObjectRouter.add_workload`, the single implementation)."""
        return self.router.add_workload(workload, start=start,
                                        on_handle=on_handle)

    def check_workload_clients(self, workload: Workload) -> None:
        """Reject a workload addressing more per-shard clients than exist
        (e.g. the flash-crowd scenario's second client population on a
        default one-client simulation) -- see the router's check."""
        self.router.check_workload_clients(workload)

    # -- the keyed driving API (KeyedDrivableSystem) ----------------------------------

    def write(self, key: str, value: bytes,
              writer: Union[int, str] = 0) -> OperationResult:
        """Write ``key`` and pump the global clock until the write completes."""
        return self.router.write(key, value, writer=writer)

    def read(self, key: str, reader: Union[int, str] = 0) -> OperationResult:
        """Read ``key`` and pump the global clock until the read completes."""
        return self.router.read(key, reader=reader)

    def invoke_write(self, key: str, value: bytes, writer=0,
                     at: Optional[float] = None,
                     session: Optional[str] = None,
                     via: Optional[str] = None) -> str:
        return self.router.invoke_write(key, value, writer=writer, at=at,
                                        session=session, via=via)

    def invoke_read(self, key: str, reader=0,
                    at: Optional[float] = None,
                    session: Optional[str] = None) -> str:
        return self.router.invoke_read(key, reader=reader, at=at,
                                       session=session)

    def flush_key(self, key: str) -> int:
        return self.router.flush_key(key)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if self.telemetry is not None:
            # Work may have been added since the sampler wound down.
            self.telemetry.ensure_sampler_armed()
        self.router.flush()
        self.kernel.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        if self.telemetry is not None:
            self.telemetry.ensure_sampler_armed()
        self.router.run_until_idle(max_events=max_events)

    def run_report(self) -> str:
        """The telemetry run report (requires a telemetry bundle)."""
        if self.telemetry is None:
            raise ValueError("this simulation was built without telemetry")
        return self.telemetry.report(self)

    def history(self, global_clock: bool = True) -> History:
        # The keyword is accepted and ignored (there is one clock) only
        # because benchmarks/lds_bench/repetition.py still passes it.
        return self.router.history()

    def check_atomicity(self) -> Optional[AtomicityViolation]:
        return self.router.check_atomicity()

    def audit(self) -> ClusterAuditReport:
        """The post-run correctness verdict of the whole simulation.

        Combines the per-epoch atomicity check (the paper's per-object
        guarantee) with the cross-shard session audit over the merged
        global-clock history (monotonic reads / monotonic writes /
        read-your-writes / writes-follow-reads per logical client session).
        Every shipped scenario is expected to audit clean; see
        :mod:`repro.consistency.injection` for proving the auditor's
        detection power.

        When the simulation ran with ``live_audit=True`` the session
        verdict is the streaming auditor's final state (finalized here,
        no batch re-check of the whole history -- the two are
        verdict-equivalent by construction and by
        ``tests/consistency/test_streaming.py``), and the report also
        carries the availability monitor's sampling assessment.
        """
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

    def operation_cost(self, handle: str) -> float:
        return self.router.operation_cost(handle)

    @property
    def communication_cost(self) -> float:
        return self.router.communication_cost

    def shard_counts(self) -> Dict[str, int]:
        return self.router.shard_counts()

    def storage_by_pool(self) -> Dict[str, float]:
        return self.router.storage_by_pool()

    # -- membership operations -----------------------------------------------------------
    #
    # ``time`` is a global time and defaults to the current one: a
    # membership event stamped in the global past would place its repairs
    # on the timeline before the failure that caused them.

    def _time(self, time: Optional[float]) -> float:
        return self.now if time is None else time

    def fail_node(self, node_id: str,
                  time: Optional[float] = None) -> MembershipEvent:
        """Crash one pool node; the repair scheduler takes it from there."""
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
        return self.router.rebalance(reason=f"join {pool}", time=time)

    def remove_pool(self, pool: str,
                    time: Optional[float] = None) -> RebalancePlan:
        """Drain a pool out of the ring and migrate its shards away."""
        time = self._time(time)
        self.membership.leave_pool(pool, time=time)
        return self.router.rebalance(reason=f"leave {pool}", time=time)

    def node(self, node_id: str) -> ClusterNode:
        return self.membership.node(node_id)

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
        for time, key, source, target in self.router.migration_log:
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
        stats = self.kernel.stats
        return (
            f"ClusterSimulation(seed={self.seed}, now={self.kernel.now:.1f}, "
            f"sources={len(self.kernel.sources())}, "
            f"events={stats.events_total}, "
            f"switch_rate={stats.switch_rate:.2f}, "
            f"pools={len(self.membership.pools)}, "
            f"shards={len(self.router.shards)}, {self.config.describe()})"
        )


__all__ = ["ClusterSimulation"]
