"""Protocol-discipline rule SD04.

It knows this codebase: which coordinator state the runtime sanitizer
can watch.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import Finding, ModuleContext, Rule


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


DISCIPLINE_RULES = [RuleSD04]

__all__ = ["DISCIPLINE_RULES", "RuleSD04"]
