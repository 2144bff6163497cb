"""Protocol-discipline rules (SD03, SD04).

These rules know this codebase: which layers own the simulators, which
accessors are the sanctioned way to touch another source's clock, and
which coordinator state the runtime sanitizer can watch.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import Finding, ModuleContext, Rule


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
        for node in ctx.nodes:
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
        for node in ctx.nodes:
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


DISCIPLINE_RULES = [RuleSD03, RuleSD04]

__all__ = ["DISCIPLINE_RULES", "RuleSD03", "RuleSD04"]
