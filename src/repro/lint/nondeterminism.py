"""Generic nondeterminism rules (ND02, ND03, ND05).

These rules encode the parts of the repository's determinism discipline
that no runtime check sees: virtual time is the only clock, nothing
order-sensitive iterates an unordered container, and no call leaves
state behind in a shared default.  Each rule documents its exact trigger
and its known blind spots -- the static pass is a tripwire, not a proof.
An unseeded RNG or an ``id()`` ordering key needs no rule: the
determinism tests and the pinned fingerprints fail on the first run.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.engine import Finding, ModuleContext, Rule, dotted_name

#: Wall-clock reads.  ``perf_counter`` is included deliberately: its
#: only legitimate use here is wall-time *profiling* that never feeds
#: simulation state, and such sites carry a justified pragma.
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Set-returning set methods (receiver must itself be a known set).
_SET_COMBINATORS = {"union", "intersection", "difference",
                    "symmetric_difference", "copy"}

#: Consumers for which unordered iteration is order-insensitive.
_ORDER_FREE_CONSUMERS = {"sorted", "len", "sum", "min", "max", "any", "all",
                         "set", "frozenset"}

#: Annotation heads that mean "this is a set".
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                    "MutableSet", "typing.Set", "typing.FrozenSet",
                    "typing.AbstractSet", "typing.MutableSet"}


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    if name is None and isinstance(node, ast.Constant) \
            and isinstance(node.value, str):
        # String annotations: take the head before any subscript.
        name = node.value.split("[")[0].strip()
    if name is None:
        return False
    return name.split(".")[-1] in {n.split(".")[-1] for n in _SET_ANNOTATIONS}


class RuleND02(Rule):
    """Wall-clock reads in simulation code.

    Virtual time is the only clock: any ``time.time`` / ``datetime.now``
    style read makes behaviour depend on the host.  ``perf_counter`` is
    flagged as well -- wall-time profiling that provably never feeds
    simulation state is the one sanctioned use, annotated in place with
    a justified pragma.
    """

    rule_id = "ND02"
    title = "wall-clock read"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target in _WALL_CLOCK:
                findings.append(ctx.finding(
                    self, node,
                    f"{target} reads the wall clock; simulation state must "
                    f"derive from virtual time only"))
        return findings


def _set_typed_names(nodes: List[ast.AST]) -> Tuple[Set[str], Set[str]]:
    """Module-wide set-typed attribute names and set-returning def names."""
    attrs: Set[str] = set()
    funcs: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.AnnAssign) \
                and _annotation_is_set(node.annotation):
            target = node.target
            if isinstance(target, ast.Attribute):
                attrs.add(target.attr)
            elif isinstance(target, ast.Name):
                attrs.add(target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and _annotation_is_set(node.returns):
            funcs.add(node.name)
    return attrs, funcs


def _walk_scope(body: List[ast.stmt]):
    """Yield every node of a scope without entering nested def scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a separate scope, analysed on its own
        stack.extend(ast.iter_child_nodes(node))


class _ScopeSets:
    """Names assigned set expressions in one scope (conservative).

    A name is treated as a set only when *every* plain assignment to it
    in the scope is a recognisable set expression -- mixed assignments
    drop the name rather than risk a false positive.
    """

    def __init__(self, set_attrs: Set[str], set_funcs: Set[str]) -> None:
        self.set_attrs = set_attrs
        self.set_funcs = set_funcs
        self.names: Set[str] = set()

    def collect(self, nodes: List[ast.AST]) -> None:
        # Two passes so ``x = set(); y = x`` resolves ``y``: the first
        # pass seeds ``self.names``, the second re-evaluates with it.
        for _ in range(2):
            set_assigned: Dict[str, bool] = {}
            for node in nodes:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    if _annotation_is_set(node.annotation):
                        set_assigned.setdefault(node.target.id, True)
                    continue
                if value is None:
                    continue
                is_set = self.is_set_expr(value)
                for target in targets:
                    if isinstance(target, ast.Name):
                        prior = set_assigned.get(target.id, True)
                        set_assigned[target.id] = prior and is_set
            self.names = {name for name, ok in set_assigned.items() if ok}

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                return func.id in self.set_funcs
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_COMBINATORS \
                        and self.is_set_expr(func.value):
                    return True
                return func.attr in self.set_funcs
        return False


class RuleND03(Rule):
    """Unordered ``set`` iteration feeding order-sensitive consumers.

    Set iteration order is a function of element hashes and insertion
    history; feeding it into a ``for`` body, a list, or a string join
    makes event order (and therefore the kernel fingerprint) depend on
    it.  Flagged sites either wrap the iterable in ``sorted(...)`` or
    carry a pragma arguing the body is order-insensitive.

    Trigger: ``for`` statements, list comprehensions and
    ``list()/tuple()/"".join()`` calls whose iterable is a recognisable
    set expression -- a set display/comprehension, ``set()``/
    ``frozenset()`` calls, set-operator expressions, names consistently
    assigned sets in the scope, attributes or local functions annotated
    set-typed anywhere in the module.  Aggregations that are
    order-insensitive (``sum``/``min``/``max``/``any``/``all``/``len``/
    ``sorted``/``set``) are not flagged, and neither are set/generator
    comprehensions that only feed those.
    """

    rule_id = "ND03"
    title = "unordered set iteration"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        set_attrs, set_funcs = _set_typed_names(ctx.nodes)
        findings: List[Finding] = []
        bodies = [ctx.tree.body] + [
            node.body for node in ctx.nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for body in bodies:
            nodes = list(_walk_scope(body))
            scope = _ScopeSets(set_attrs, set_funcs)
            scope.collect(nodes)
            self._check_scope(ctx, scope, nodes, findings)
        return findings

    def _check_scope(self, ctx: ModuleContext, scope: _ScopeSets,
                     nodes: List[ast.AST], findings: List[Finding]) -> None:
        for node in nodes:
            if isinstance(node, ast.For) and scope.is_set_expr(node.iter):
                findings.append(ctx.finding(
                    self, node.iter,
                    "iterating a set: order is hash/insertion dependent; "
                    "wrap in sorted(...) or justify with a pragma"))
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if scope.is_set_expr(gen.iter):
                        findings.append(ctx.finding(
                            self, gen.iter,
                            "list built by iterating a set inherits "
                            "nondeterministic order; sort first"))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else None
                if name in ("list", "tuple") and len(node.args) == 1 \
                        and scope.is_set_expr(node.args[0]):
                    findings.append(ctx.finding(
                        self, node,
                        f"{name}(<set>) materialises nondeterministic "
                        f"order; use sorted(...)"))
                elif isinstance(func, ast.Attribute) \
                        and func.attr == "join" and len(node.args) == 1 \
                        and scope.is_set_expr(node.args[0]):
                    findings.append(ctx.finding(
                        self, node,
                        "join over a set concatenates in "
                        "nondeterministic order; sort first"))


class RuleND05(Rule):
    """Mutable default arguments.

    A ``def f(x=[])`` default is shared across calls: state leaks
    between invocations in call order, which is exactly the kind of
    hidden coupling that makes two same-seed runs diverge once any call
    order changes.  Use ``None`` plus an in-body default.
    """

    rule_id = "ND05"
    title = "mutable default argument"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray",
                      "collections.defaultdict", "collections.OrderedDict",
                      "defaultdict", "OrderedDict"}

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                        ast.ListComp, ast.DictComp,
                                        ast.SetComp)):
                    findings.append(ctx.finding(
                        self, default,
                        "mutable default is shared across calls; default to "
                        "None and build inside the body"))
                elif isinstance(default, ast.Call):
                    name = dotted_name(default.func)
                    if name in self._MUTABLE_CALLS:
                        findings.append(ctx.finding(
                            self, default,
                            f"{name}() default is evaluated once and shared "
                            f"across calls; default to None"))
        return findings


NONDETERMINISM_RULES = [RuleND02, RuleND03, RuleND05]

__all__ = ["NONDETERMINISM_RULES", "RuleND02", "RuleND03", "RuleND05"]
