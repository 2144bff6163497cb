"""Whole-program symbol table, call graph, and purity inference.

The module-local rules (ND/SD tiers) see one AST at a time; the
whole-program rules (the RP tier and SD01's transitive form) need to
answer questions that span modules: *which function does this call
resolve to?* and *does that function, transitively, mutate protocol
state?*  This module builds that index from the already-parsed
:class:`~repro.lint.engine.ModuleContext` set.

Resolution is deliberately conservative.  A call resolves to

* the top-level function of the same module bound by that name,
* the function an import alias points at (``from repro.cluster.ring
  import derive_seed as ds`` makes ``ds(...)`` resolve cross-module --
  the alias fixpoint is inherited from the engine's ``_ImportMap``),
* the enclosing class's method for ``self.method()`` calls, or
* for a bare attribute call ``obj.method()``: every project function
  named ``method``.  Callers that need precision (purity propagation)
  only use this bucket when it is *unambiguous* -- one
  candidate project-wide -- so a common name like ``run`` never smears
  impurity across unrelated classes.

Module identity is matched by dotted-path *suffix* (``src/repro/cluster/
ring.py`` answers for ``repro.cluster.ring``), which keeps the index
independent of where the scan was rooted.

Purity: a function is **impure** when it syntactically calls one of the
protocol-mutating APIs (:data:`repro.lint.discipline.MUTATING_CALLS`) on
a non-``self`` receiver, or when it calls -- through any precisely
resolved edge -- a function already known impure.  The fixpoint records
a witness chain so findings can say *how* a probe reaches the mutation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.engine import ModuleContext, dotted_name

#: Name of the synthetic function wrapping a module's top-level code.
MODULE_BODY = "<module>"


@dataclass(eq=False)  # identity semantics: each def site is one node
class FunctionInfo:
    """One function or method (or a module body) in the project."""

    ctx: ModuleContext
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Module
    name: str
    cls: Optional[str] = None
    #: Dotted module path derived from the file path (``repro.sim.kernel``).
    module: str = ""

    @property
    def qualname(self) -> str:
        owner = f"{self.cls}." if self.cls else ""
        return f"{self.module}:{owner}{self.name}"

    @property
    def body(self) -> List[ast.stmt]:
        return self.node.body


def module_dotted_path(ctx: ModuleContext) -> str:
    """Dotted module path from the file path (``a/b/c.py`` -> ``a.b.c``)."""
    parts = list(ctx.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _walk_calls(body: Sequence[ast.stmt]):
    """Every Call node of a scope, without entering nested def scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class ProjectIndex:
    """Symbol table + call graph over every parse-clean module."""

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules = list(modules)
        self.functions: List[FunctionInfo] = []
        #: ctx.path -> {name: top-level FunctionInfo}
        self._module_scope: Dict[str, Dict[str, FunctionInfo]] = {}
        #: (ctx.path, class name) -> {method name: FunctionInfo}
        self._class_scope: Dict[Tuple[str, str], Dict[str, FunctionInfo]] = {}
        #: bare name -> every function/method with that name.
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        #: dotted module path (suffix-matched) -> ctx.path
        self._module_paths: Dict[str, str] = {}
        for ctx in self.modules:
            self._index_module(ctx)

    # -- construction ---------------------------------------------------------

    def _add(self, info: FunctionInfo) -> None:
        self.functions.append(info)
        self._by_name.setdefault(info.name, []).append(info)

    def _index_module(self, ctx: ModuleContext) -> None:
        dotted = module_dotted_path(ctx)
        self._module_paths[dotted] = ctx.path
        scope: Dict[str, FunctionInfo] = {}
        self._module_scope[ctx.path] = scope

        self._add(FunctionInfo(ctx=ctx, node=ctx.tree, name=MODULE_BODY,
                               module=dotted))
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(ctx=ctx, node=node, name=node.name,
                                    module=dotted)
                scope[node.name] = info
                self._add(info)
            elif isinstance(node, ast.ClassDef):
                methods: Dict[str, FunctionInfo] = {}
                self._class_scope[(ctx.path, node.name)] = methods
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = FunctionInfo(ctx=ctx, node=item,
                                            name=item.name, cls=node.name,
                                            module=dotted)
                        methods[item.name] = info
                        self._add(info)

    # -- lookup ---------------------------------------------------------------

    def module_function(self, ctx: ModuleContext,
                        name: str) -> Optional[FunctionInfo]:
        return self._module_scope.get(ctx.path, {}).get(name)

    def method(self, ctx: ModuleContext, cls: str,
               name: str) -> Optional[FunctionInfo]:
        return self._class_scope.get((ctx.path, cls), {}).get(name)

    def named(self, name: str) -> List[FunctionInfo]:
        return list(self._by_name.get(name, ()))

    def _resolve_dotted(self, canonical: str) -> List[FunctionInfo]:
        """``repro.cluster.ring.derive_seed`` -> its FunctionInfo(s).

        Matches the module part by dotted-path suffix, then the final
        component against the module's top-level scope; a two-level tail
        (``mod.Class.method``) is also tried.
        """
        prefix, _, last = canonical.rpartition(".")
        if not prefix:
            return []
        matches: List[FunctionInfo] = []
        for dotted, path in self._module_paths.items():
            if dotted == prefix or dotted.endswith("." + prefix):
                info = self._module_scope.get(path, {}).get(last)
                if info is not None:
                    matches.append(info)
        if matches:
            return matches
        # ``pkg.mod.Class.method``: try the penultimate part as a class.
        head, _, cls = prefix.rpartition(".")
        if head:
            for dotted, path in self._module_paths.items():
                if dotted == head or dotted.endswith("." + head):
                    info = self._class_scope.get((path, cls), {}).get(last)
                    if info is not None:
                        matches.append(info)
        return matches

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> List[FunctionInfo]:
        """Candidate callees of ``call`` from inside ``caller``.

        A single-element result is a *precise* edge; multiple elements
        mean a bare-attribute call matched several same-named methods
        (callers decide how much ambiguity they tolerate); empty means
        the target is outside the project (stdlib, builtins, dynamic).
        """
        ctx = caller.ctx
        func = call.func
        if isinstance(func, ast.Name):
            local = self.module_function(ctx, func.id)
            if local is not None:
                return [local]
            canonical = ctx.imports.get(func.id)
            if canonical is not None:
                return self._resolve_dotted(canonical)
            return []
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" \
                    and caller.cls is not None:
                own = self.method(ctx, caller.cls, func.attr)
                if own is not None:
                    return [own]
                return self.named(func.attr)
            canonical = ctx.resolve_call(func)
            if canonical is not None:
                resolved = self._resolve_dotted(canonical)
                if resolved:
                    return resolved
            return self.named(func.attr)
        return []

    def precise_callees(self, caller: FunctionInfo) -> List[
            Tuple[ast.Call, FunctionInfo]]:
        """(call site, callee) pairs for unambiguously resolved calls."""
        edges: List[Tuple[ast.Call, FunctionInfo]] = []
        for call in _walk_calls(caller.body):
            candidates = self.resolve_call(caller, call)
            if len(candidates) == 1 and candidates[0] is not caller:
                edges.append((call, candidates[0]))
        return edges

    # -- purity ---------------------------------------------------------------

    def compute_purity(self) -> Dict[FunctionInfo, List[str]]:
        """Impure functions -> witness chain down to the mutating call.

        The chain lists hops: ``["helper()", ".invoke_write()"]`` means
        the function calls ``helper`` which calls the mutating API.
        """
        from repro.lint.discipline import MUTATING_CALLS

        impure: Dict[FunctionInfo, List[str]] = {}
        for info in self.functions:
            for call in _walk_calls(info.body):
                func = call.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in MUTATING_CALLS \
                        and dotted_name(func.value) != "self":
                    impure[info] = [f".{func.attr}()"]
                    break

        edges: Dict[FunctionInfo, List[Tuple[FunctionInfo, str]]] = {}
        for info in self.functions:
            edges[info] = [(callee, f"{callee.name}()")
                           for _, callee in self.precise_callees(info)]

        changed = True
        while changed:
            changed = False
            for info, callees in edges.items():
                if info in impure:
                    continue
                for callee, label in callees:
                    if callee in impure:
                        impure[info] = [label] + impure[callee]
                        changed = True
                        break
        return impure


def build_index(modules: Sequence[ModuleContext]) -> ProjectIndex:
    return ProjectIndex(modules)


__all__ = ["MODULE_BODY", "FunctionInfo", "ProjectIndex", "build_index",
           "module_dotted_path"]
