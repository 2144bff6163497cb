"""One cluster object: callers drive ``ClusterSimulation`` itself.

``ClusterSimulation`` is an ``ObjectRouter``, so nothing outside the
cluster layer reaches through a ``.router`` attribute, and the simulation
keeps no method that only hands its own parameters to the same-named
member of one of its parts.  Both are checked over the syntax tree, not
by importing anything.  ``benchmarks/lds_bench`` is exempt: it reads
``simulation.router`` through a shim until ROADMAP item 1 (ii) drops it.
The subclass must also leave alone every ``ObjectRouter`` method the
benchmark's tracer wraps, or that method would run unwrapped.
"""

from __future__ import annotations

import ast
import os
import sys

from source_tree import ROOT, modules

SCANNED = ("src/repro", "tests", "examples", "benchmarks")
EXEMPT = ("src/repro/cluster/", "benchmarks/lds_bench/")
HARNESS = "src/repro/sim/harness.py"
BENCHMARKS = os.path.join(ROOT, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from lds_bench.trace import WRAP_POINTS  # noqa: E402


def test_nothing_outside_the_cluster_reaches_through_router():
    found = [f"{path}:{node.lineno}"
             for top in SCANNED for path, _, tree in modules(top)
             if not path.startswith(EXEMPT)
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "router"
             and isinstance(node.ctx, ast.Load)]
    assert found == []


def forwarded_member(function: ast.FunctionDef):
    """The ``self.<part>....<name>`` a method or property only forwards
    its own parameters to, unchanged; None when it does anything else."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
        return None
    target = body[0].value
    if isinstance(target, ast.Call):
        params = {arg.arg for arg in function.args.args[1:]
                  + function.args.kwonlyargs}
        passed = list(target.args) + [kw.value for kw in target.keywords]
        if not all(isinstance(arg, ast.Name) and arg.id in params
                   for arg in passed):
            return None
        target = target.func
    if not isinstance(target, ast.Attribute) or target.attr != function.name:
        return None
    root = target.value
    while isinstance(root, ast.Attribute):
        root = root.value
    if not (isinstance(root, ast.Name) and root.id == "self"
            and target.value is not root):
        return None
    return ast.unparse(target)


def test_the_simulation_keeps_no_pass_through_methods():
    [harness] = [tree for path, _, tree in modules("src/repro")
                 if path == HARNESS]
    [cls] = [node for node in ast.walk(harness)
             if isinstance(node, ast.ClassDef)
             and node.name == "ClusterSimulation"]
    forwards = {node.name: forwarded_member(node) for node in cls.body
                if isinstance(node, ast.FunctionDef)}
    assert {name: member for name, member in forwards.items()
            if member is not None} == {}


def test_the_simulation_is_a_router_that_leaves_the_traced_methods_alone():
    """The tracer wraps ``ObjectRouter``'s methods by name; a method of
    the same name on the subclass would run unwrapped."""
    from repro.cluster.router import ObjectRouter
    from repro.sim.harness import ClusterSimulation

    assert issubclass(ClusterSimulation, ObjectRouter)
    traced = {method for _, _, owner, method, _ in WRAP_POINTS
              if owner == "ObjectRouter"}
    assert traced and traced.isdisjoint(vars(ClusterSimulation))
