"""Tier 2: protocol-discipline rules (SD01..SD04).

These rules know this codebase: which layers own the simulators, which
APIs mutate protocol state, and which accessors are the sanctioned way
to touch another source's clock.  They encode three invariants the
end-to-end suites enforce dynamically (telemetry non-interference,
fingerprint identity, clamped-head pump order) as cheap static checks.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import (
    Finding,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    dotted_name,
)

#: Protocol-mutating methods of the router / replica coordinator /
#: membership / repair scheduler / kernel foreground API.  A module
#: under ``obs/`` calling any of these on a non-``self`` receiver is
#: perturbing the simulation it claims to observe.  The observation
#: surface (``schedule_probe``, ``pending_work``, ``pending_slots``,
#: registry instruments, ``operation_observers.append``) is not listed,
#: so the pure-probe pattern passes untouched.
MUTATING_CALLS = frozenset({
    # router / cluster front-end
    "invoke_write", "invoke_read", "add_workload", "flush_key",
    "ensure_shards", "migrate_shard", "failover_shard",
    "notify_replica_completion", "schedule_on_shard",
    # membership transitions
    "fail", "recover", "fail_pool", "join_pool", "leave_pool",
    # repair scheduler
    "schedule_node_repairs", "withhold_node",
    # replica coordinator
    "catch_up", "promote", "apply_record",
    # kernel / simulator foreground scheduling and pumping
    "schedule", "schedule_at", "run_until_idle", "set_latency_scale",
})


class RuleSD01(ProjectRule):
    """Observability modules must not mutate protocol state.

    The telemetry-on/off byte-identity gate rests on every probe being
    pure observation.  Two triggers:

    * **direct** -- a call from an ``obs/`` module to a known mutating
      router/replica/membership/repair/kernel API on any non-``self``
      receiver (the original module-local check);
    * **transitive** -- a call from an ``obs/`` module to a helper
      (resolved through the project call graph: local defs, import
      aliases, unique method names) whose body *transitively* reaches a
      mutating API.  Purity is propagated over the whole program by
      :meth:`repro.lint.callgraph.ProjectIndex.compute_purity`, so a
      probe laundering a mutation through ``cluster/`` helpers is
      flagged at the probe's call site with the witness chain.

    Probe classes that *deliberately* drive sanctioned machinery (none
    today) annotate the call site with a justified pragma.
    """

    rule_id = "SD01"
    title = "obs/ module reaches a mutating protocol API"

    def check_project(self, project: ProjectContext) -> List[Finding]:
        findings: List[Finding] = []
        purity = None  # computed on first demand: obs/ modules only
        for ctx in project.modules:
            if not ctx.is_obs_module:
                continue
            direct_nodes = set()
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in MUTATING_CALLS:
                    continue
                # A probe driving its own machinery (``self.tick()``) is
                # its own business; the same method reached through a
                # held protocol reference
                # (``self.simulation.repair.fail(...)``) is interference
                # and stays flagged.
                if dotted_name(func.value) == "self":
                    continue
                direct_nodes.add(id(node))
                findings.append(ctx.finding(
                    self, node,
                    f"obs/ module calls mutating API .{func.attr}() -- "
                    f"probes must be pure observation (noninterference)"))

            if purity is None:
                purity = project.purity
            index = project.index
            for caller in index.functions:
                if caller.ctx is not ctx:
                    continue
                for call, callee in index.precise_callees(caller):
                    if id(call) in direct_nodes:
                        continue  # already reported as a direct mutation
                    if callee.ctx.is_obs_module:
                        continue  # its own body carries the direct finding
                    if callee.ctx.is_simulator_layer:
                        # The kernel/sanitizer/net implementation of the
                        # sanctioned observation surface (schedule_probe,
                        # pending_work) legitimately touches raw
                        # simulators; abusing a *mutating* kernel API
                        # from obs/ is caught by the direct check above.
                        continue
                    chain = purity.get(callee)
                    if chain is None:
                        continue
                    hops = " -> ".join([f"{callee.name}()"] + chain)
                    findings.append(ctx.finding(
                        self, call,
                        f"obs/ module reaches mutating API through helper "
                        f"{hops} -- probes must be pure observation "
                        f"(noninterference)"))
        return findings


class RuleSD02(Rule):
    """Absolute-time scheduling must derive from a clock accessor.

    ``schedule_at`` / ``schedule_probe`` with a *literal* absolute time
    pins an event to a wall position on the virtual timeline regardless
    of where the clock actually is -- correct only at t=0 setup, and
    even there fragile against harness refactors that pre-advance the
    clock.  Derive the argument from ``kernel.now`` / ``shard_now()``
    (or use the relative ``schedule(delay, ...)`` form, which this rule
    deliberately does not flag).
    """

    rule_id = "SD02"
    title = "literal absolute time in schedule_at/schedule_probe"

    _ABSOLUTE_SCHEDULERS = ("schedule_at", "schedule_probe")

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name not in self._ABSOLUTE_SCHEDULERS:
                continue
            time_arg = None
            if node.args:
                time_arg = node.args[0]
            else:
                for kw in node.keywords:
                    if kw.arg == "time":
                        time_arg = kw.value
            if isinstance(time_arg, ast.Constant) \
                    and isinstance(time_arg.value, (int, float)) \
                    and not isinstance(time_arg.value, bool):
                findings.append(ctx.finding(
                    self, node,
                    f"{name}({time_arg.value!r}, ...) hard-codes an absolute "
                    f"virtual time; derive it from a clock accessor "
                    f"(kernel.now / shard_now())"))
        return findings


class RuleSD03(Rule):
    """Raw cross-source simulator access outside the sanctioned accessors.

    Every simulator runs on the global clock, but each still has its own
    queue, so its clock *reading* is not ``kernel.now``: it lags while
    the source is idle and runs ahead while ``ObjectRouter.migrate``
    drains the source inline.  Comparing or scheduling against the raw
    reading from outside lands events in the source's past or at a stale
    "now" (the bug class the kernel's clamped-head logic and
    ``schedule_probe``'s past-clamp exist to contain).  Any
    ``<expr>.simulator.now`` / ``<expr>.simulator.schedule*`` where the
    receiver is not ``self`` must go through ``router.shard_now()`` /
    ``router.schedule_on_shard()`` instead.  The simulator-owning layers
    (``net/``, the kernel and its runtime sanitizer) are out of scope;
    the accessor implementations themselves carry justified pragmas.
    """

    rule_id = "SD03"
    title = "raw cross-source simulator clock access"

    _CLOCK_ATTRS = frozenset({
        "now", "schedule", "schedule_at", "run", "run_until_idle", "step",
        "set_head_listener", "set_schedule_guard",
    })

    def check(self, ctx: ModuleContext) -> List[Finding]:
        if ctx.is_simulator_layer:
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) \
                    or node.attr not in self._CLOCK_ATTRS:
                continue
            value = node.value
            if not isinstance(value, ast.Attribute) \
                    or value.attr != "simulator":
                continue
            owner = value.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                continue  # the owner touching its own simulator
            findings.append(ctx.finding(
                self, node,
                f"cross-source access to .simulator.{node.attr}: a "
                f"source's clock lags the kernel's while it is idle and "
                f"runs ahead during an inline drain; use "
                f"shard_now()/schedule_on_shard()"))
        return findings


class RuleSD04(Rule):
    """Coordinator pending/in-flight maps must be sanitizer-watchable.

    The kernel's runtime sanitizer detects leaked in-flight state by
    watching the maps registered through ``sanitizer_watches()``-style
    accessors (see ``ClusterSimulation(sanitize=True)``).  A
    cluster/sim-layer class that initialises dict-valued
    pending/in-flight bookkeeping without exposing that accessor keeps
    its retention bugs invisible to the sanitizer -- exactly the bug
    class PR 7's quorum-read pending leak fell into.  Scoped to the
    coordinator layers (``cluster/``, ``sim/``): observation-layer and
    consistency-checker dicts drain through their own audited
    lifecycles.
    """

    rule_id = "SD04"
    title = "pending/in-flight dict state without sanitizer_watches()"

    _STATE_NAME = ("pending", "inflight", "in_flight")
    _DICT_FACTORIES = frozenset({"dict", "defaultdict", "OrderedDict"})

    def _is_state_name(self, attr: str) -> bool:
        name = attr.lower()
        return any(token in name for token in self._STATE_NAME)

    def _is_dict_value(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Dict):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            return name in self._DICT_FACTORIES
        return False

    def check(self, ctx: ModuleContext) -> List[Finding]:
        if "cluster" not in ctx.parts and "sim" not in ctx.parts:
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            if "sanitizer_watches" in methods:
                continue
            init = next((item for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"), None)
            if init is None:
                continue
            for stmt in ast.walk(init):
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) \
                        and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                else:
                    continue
                if not self._is_dict_value(value):
                    continue
                for target in targets:
                    if not isinstance(target, ast.Attribute) \
                            or not isinstance(target.value, ast.Name) \
                            or target.value.id != "self":
                        continue
                    if not self._is_state_name(target.attr):
                        continue
                    findings.append(ctx.finding(
                        self, stmt,
                        f"class {node.name} holds in-flight dict state "
                        f"self.{target.attr} but exposes no "
                        f"sanitizer_watches() accessor; register the map so "
                        f"the runtime sanitizer's leak detection covers it"))
        return findings


DISCIPLINE_RULES = [RuleSD01, RuleSD02, RuleSD03, RuleSD04]

__all__ = ["DISCIPLINE_RULES", "MUTATING_CALLS",
           "RuleSD01", "RuleSD02", "RuleSD03", "RuleSD04"]
