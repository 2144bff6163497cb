"""RNG-stream provenance (RP01).

The reproduction's determinism contract is *one root seed*: every
stochastic component draws from its own ``random.Random`` / numpy
``Generator`` whose seed is derived through
:func:`repro.cluster.ring.derive_seed` (position-sensitive, stable
across processes) from the root.  A stream constructed from a seed that
does **not** descend from the root -- a literal, an ad-hoc ``seed + 1``
mangle, a ``hash()`` -- or a live stream re-seeded mid-run
(``rng.seed(...)``) still replays byte for byte, so no determinism test
notices it; it only stops the root seed from choosing that stream.

Sanctioned seed provenance is syntactic and deliberately generous: a
``derive_seed(...)`` call, or any name/attribute carrying a ``seed``
token (``seed``, ``root_seed``, ``self._seed``, ``config.seed``) --
i.e. a seed that was *handed in* rather than invented locally.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.engine import Finding, ModuleContext, Rule

#: Constructors that mint an RNG stream (canonical, import-resolved).
RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
})


def _has_seed_token(name: str) -> bool:
    return "seed" in name.lower()


def _is_rng_constructor(ctx: ModuleContext, node: ast.Call) -> bool:
    target = ctx.resolve_call(node.func)
    return target in RNG_CONSTRUCTORS


def _seed_argument(node: ast.Call) -> Optional[ast.expr]:
    if node.args:
        return node.args[0]
    for kw in node.keywords:
        if kw.arg in ("seed", "x"):
            return kw.value
    return None


class _SeedProvenance:
    """Is this expression a sanctioned (root-derived) seed?"""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        #: Local names assigned sanctioned seed expressions.
        self.sanctioned_names: Set[str] = set()

    def note_assignment(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name) and self.is_sanctioned(value):
            self.sanctioned_names.add(target.id)

    def is_sanctioned(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name == "derive_seed":
                return True
            canonical = self.ctx.resolve_call(func)
            return canonical is not None \
                and canonical.endswith(".derive_seed")
        if isinstance(node, ast.Name):
            return _has_seed_token(node.id) \
                or node.id in self.sanctioned_names
        if isinstance(node, ast.Attribute):
            return _has_seed_token(node.attr)
        if isinstance(node, ast.IfExp):
            return self.is_sanctioned(node.body) \
                and self.is_sanctioned(node.orelse)
        return False


class RuleRP01(Rule):
    """RNG stream seeded outside ``derive_seed`` provenance.

    Flags (a) RNG constructions whose seed expression is neither a
    ``derive_seed(...)`` call nor a passed-in seed name, and (b) any
    ``.seed(...)`` re-seeding of a live stream -- even with a derived
    seed, resetting the sequence mid-run yanks the draw order out from
    under every other holder; construct a fresh stream instead.
    Zero-argument (entropy-seeded) constructions and the module-level
    global RNG are left alone: their runs differ every time, which the
    determinism tests catch.
    """

    rule_id = "RP01"
    title = "RNG seed not derived from the root seed"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        provenance = _SeedProvenance(ctx)
        rng_names = _collect_rng_names(ctx)
        for node in ctx.nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                provenance.note_assignment(node.targets[0], node.value)
        findings: List[Finding] = []
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if _is_rng_constructor(ctx, node):
                seed = _seed_argument(node)
                if seed is None:
                    continue  # unseeded: the determinism tests catch it
                if not provenance.is_sanctioned(seed):
                    findings.append(ctx.finding(
                        self, node,
                        "RNG seed is not derived from the root seed; use "
                        "derive_seed(seed, ...) or pass a seed parameter "
                        "through"))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "seed":
                receiver = node.func.value
                canonical = ctx.resolve_call(node.func)
                if canonical is not None and (
                        canonical.startswith("random.")
                        or canonical.startswith("numpy.random.")):
                    continue  # the module-level global RNG
                if not _is_rng_receiver(receiver, rng_names):
                    continue
                findings.append(ctx.finding(
                    self, node,
                    "re-seeding a live RNG stream resets the draw "
                    "sequence for every consumer; construct a fresh "
                    "stream with derive_seed(...) instead"))
        return findings


def _collect_rng_names(ctx: ModuleContext) -> Set[str]:
    """Bare names and ``self.<attr>`` attrs bound to RNG constructions."""
    names: Set[str] = set()
    for node in ctx.nodes:
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Call) \
                or not _is_rng_constructor(ctx, value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _is_rng_receiver(node: ast.expr, rng_names: Set[str]) -> bool:
    tail = None
    if isinstance(node, ast.Name):
        tail = node.id
    elif isinstance(node, ast.Attribute):
        tail = node.attr
    if tail is None:
        return False
    return tail in rng_names or "rng" in tail.lower()


PROVENANCE_RULES = [RuleRP01]

__all__ = ["PROVENANCE_RULES", "RNG_CONSTRUCTORS", "RuleRP01"]
