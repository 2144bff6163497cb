"""The rule engine: contexts, pragmas, findings, and the scan driver.

The engine is deliberately small.  A :class:`Rule` sees one parsed
module at a time through a :class:`ModuleContext` (source, AST, path
parts for scoping, and an import-alias resolver) and yields
:class:`Finding` objects.  The engine then subtracts everything an
inline pragma suppresses::

    self._rng = random.Random()  # simlint: disable=ND01 -- calibration only
    # simlint: disable-file=SD03 -- this module *is* the accessor layer

``disable=`` suppresses the named rules on that physical line (the line
of the flagged AST node); ``disable-file=`` suppresses them for the
whole module.  Text after ``--`` is the justification; the engine keeps
it in :attr:`ModuleContext.pragma_justifications` so tooling can reject
bare pragmas if it wants to.  A pragma naming a rule the engine does not
know is itself reported (``E002``) -- a typo in a suppression must not
silently re-enable the finding on review.

Rules never import each other and hold no state between modules, so the
scan is trivially restartable and order-independent: findings are
reported sorted by ``(path, line, column, rule)``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``# simlint: disable=ND01,SD02 -- why`` / ``# simlint: disable-file=...``
_PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s+--\s*(?P<why>.*))?"
)

#: Engine-level diagnostics (not suppressible, not real rules).
SYNTAX_ERROR = "E001"
UNKNOWN_PRAGMA_RULE = "E002"
BARE_PRAGMA = "E003"


@dataclass(frozen=True)
class Finding:
    """One reported hazard at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class LintError(Exception):
    """Raised for engine misuse (unknown rule selection, bad path)."""


class _ImportMap(ast.NodeVisitor):
    """Resolves local names to canonical dotted import paths.

    ``import numpy as np`` maps ``np`` -> ``numpy``; ``from random
    import shuffle as mix`` maps ``mix`` -> ``random.shuffle``.  Names
    not bound by an import resolve to nothing, so a local variable that
    happens to be called ``random`` never triggers the RNG rules.
    """

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname is not None:
                self.names[alias.asname] = alias.name
            else:
                # ``import numpy.random`` binds the *root* name only.
                root = alias.name.split(".")[0]
                self.names[root] = root

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports cannot name stdlib hazards
        for alias in node.names:
            bound = alias.asname if alias.asname is not None else alias.name
            self.names[bound] = f"{node.module}.{alias.name}"


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class ModuleContext:
    """Everything a rule may look at for one module."""

    path: str
    source: str
    tree: ast.Module
    #: Normalised path components, used for scoping (``"obs" in parts``).
    parts: Tuple[str, ...]
    imports: Dict[str, str] = field(default_factory=dict)
    #: line -> rules disabled on that line.
    line_pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: rules disabled for the whole module.
    file_pragmas: Set[str] = field(default_factory=set)
    #: (line, rule) -> justification text after ``--`` (may be empty).
    pragma_justifications: Dict[Tuple[int, str], str] = field(
        default_factory=dict)

    @property
    def is_obs_module(self) -> bool:
        return "obs" in self.parts

    @property
    def is_simulator_layer(self) -> bool:
        """Modules that legitimately own raw simulator access (SD03 scope):
        the simulator package itself, the kernel, and the kernel's runtime
        sanitizer (whose whole job is inspecting raw source clocks)."""
        return ("net" in self.parts
                or self.parts[-2:] in (("sim", "kernel.py"),
                                       ("sim", "sanitizer.py")))

    def resolve_call(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted target of a call expression, import-aware.

        Returns None unless the chain is rooted at an imported name, so
        shadowing locals never resolve to module paths.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        canonical_root = self.imports.get(root)
        if canonical_root is None:
            return None
        return f"{canonical_root}.{rest}" if rest else canonical_root

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(rule=rule.rule_id, path=self.path,
                       line=getattr(node, "lineno", 0),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


class Rule:
    """Base class: one check over one module at a time."""

    rule_id: str = "??"
    title: str = ""

    def check(self, ctx: ModuleContext) -> List[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that sees the whole program at once.

    Project rules consume the shared :class:`ProjectContext` (symbol
    table, call graph, purity summaries) built over every parse-clean
    module of the scan; findings still attach to individual modules and
    are suppressed by that module's pragmas exactly like module-local
    findings.  Single-file scans simply run them over a one-module
    project, so fixtures and ``lint_source`` keep working unchanged.
    """

    def check(self, ctx: ModuleContext) -> List[Finding]:
        return []

    def check_project(self, project: "ProjectContext") -> List[Finding]:
        raise NotImplementedError


class ProjectContext:
    """The whole scanned program: modules plus lazily-built analyses."""

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules = list(modules)
        self.by_path: Dict[str, ModuleContext] = {
            ctx.path: ctx for ctx in self.modules}
        self._index = None
        self._purity = None

    @property
    def index(self):
        """The project symbol table / call graph (built once)."""
        if self._index is None:
            from repro.lint.callgraph import build_index
            self._index = build_index(self.modules)
        return self._index

    @property
    def purity(self):
        """Impure functions -> witness chains (computed once)."""
        if self._purity is None:
            self._purity = self.index.compute_purity()
        return self._purity


def all_rules() -> List[Rule]:
    """Every shipped rule; ids are unique and sorted (ND, RP, SD)."""
    from repro.lint.discipline import DISCIPLINE_RULES
    from repro.lint.nondeterminism import NONDETERMINISM_RULES
    from repro.lint.provenance import PROVENANCE_RULES

    return [cls() for cls in NONDETERMINISM_RULES + PROVENANCE_RULES
            + DISCIPLINE_RULES]


def known_rule_ids() -> Set[str]:
    return {rule.rule_id for rule in all_rules()}


def _collect_pragmas(ctx: ModuleContext, known: Set[str],
                     diagnostics: List[Finding]) -> None:
    for lineno, line in enumerate(ctx.source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        why = (match.group("why") or "").strip()
        for rule_id in sorted(rules):
            if rule_id not in known:
                diagnostics.append(Finding(
                    rule=UNKNOWN_PRAGMA_RULE, path=ctx.path, line=lineno,
                    col=match.start() + 1,
                    message=f"pragma names unknown rule {rule_id!r}"))
                continue
            if match.group("scope"):
                ctx.file_pragmas.add(rule_id)
            else:
                ctx.line_pragmas.setdefault(lineno, set()).add(rule_id)
            ctx.pragma_justifications[(lineno, rule_id)] = why


def _select(rules: Optional[Sequence[Rule]],
            select: Optional[Iterable[str]]) -> List[Rule]:
    active = list(rules) if rules is not None else all_rules()
    if select is not None:
        wanted = set(select)
        known = {rule.rule_id for rule in active}
        unknown = wanted - known
        if unknown:
            raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        active = [rule for rule in active if rule.rule_id in wanted]
    return active


def _build_context(source: str, path: str) -> Tuple[Optional[ModuleContext],
                                                    Optional[Finding]]:
    normalized = path.replace(os.sep, "/")
    parts = tuple(p for p in normalized.split("/") if p and p != ".")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(rule=SYNTAX_ERROR, path=path,
                             line=exc.lineno or 0, col=(exc.offset or 0),
                             message=f"file does not parse: {exc.msg}")
    imports = _ImportMap()
    imports.visit(tree)
    return ModuleContext(path=path, source=source, tree=tree, parts=parts,
                         imports=imports.names), None


def _suppressed(ctx: ModuleContext, found: Finding) -> bool:
    return (found.rule in ctx.file_pragmas
            or found.rule in ctx.line_pragmas.get(found.line, ()))


def lint_sources(entries: Sequence[Tuple[str, str]], *,
                 rules: Optional[Sequence[Rule]] = None,
                 select: Optional[Iterable[str]] = None,
                 respect_pragmas: bool = True,
                 require_justification: bool = False) -> List[Finding]:
    """Scan ``(path, source)`` modules as one program; sorted findings.

    Module-local rules run per module; :class:`ProjectRule` subclasses
    run once over the whole set (symbol table and call graph span every
    parse-clean module), with their findings suppressed by the owning
    module's pragmas.  ``require_justification`` additionally reports a
    ``E003`` diagnostic for every pragma whose ``--`` justification is
    missing or empty.
    """
    active = _select(rules, select)
    known = known_rule_ids()
    findings: List[Finding] = []
    contexts: List[ModuleContext] = []
    for path, source in entries:
        ctx, error = _build_context(source, path)
        if ctx is None:
            findings.append(error)
            continue
        _collect_pragmas(ctx, known, findings)
        contexts.append(ctx)

    project = ProjectContext(contexts)
    for ctx in contexts:
        for rule in active:
            if isinstance(rule, ProjectRule):
                continue
            for found in rule.check(ctx):
                if respect_pragmas and _suppressed(ctx, found):
                    continue
                findings.append(found)
    for rule in active:
        if not isinstance(rule, ProjectRule):
            continue
        for found in rule.check_project(project):
            ctx = project.by_path.get(found.path)
            if respect_pragmas and ctx is not None \
                    and _suppressed(ctx, found):
                continue
            findings.append(found)

    if require_justification:
        for ctx in contexts:
            for (line, rule_id), why in sorted(
                    ctx.pragma_justifications.items()):
                if not why:
                    findings.append(Finding(
                        rule=BARE_PRAGMA, path=ctx.path, line=line, col=1,
                        message=f"pragma suppressing {rule_id} carries no "
                                f"justification; add '-- why' or remove it"))
    return sorted(findings, key=lambda f: f.sort_key)


def lint_source(source: str, path: str = "<string>", *,
                rules: Optional[Sequence[Rule]] = None,
                select: Optional[Iterable[str]] = None,
                respect_pragmas: bool = True,
                require_justification: bool = False) -> List[Finding]:
    """Scan one module's source text; returns sorted findings."""
    return lint_sources([(path, source)], rules=rules, select=select,
                        respect_pragmas=respect_pragmas,
                        require_justification=require_justification)


def lint_file(path: str, **kwargs) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, path=path, **kwargs)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in ("__pycache__", ".git"))
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        collected.append(os.path.join(dirpath, name))
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(dict.fromkeys(collected))


def lint_paths(paths: Iterable[str], **kwargs) -> List[Finding]:
    """Scan files and directory trees *as one program*; sorted findings.

    All files are parsed up front so whole-program rules see every
    module: a probe in ``obs/`` calling a helper defined in ``cluster/``
    is resolved across the file boundary.
    """
    entries: List[Tuple[str, str]] = []
    for filename in iter_python_files(paths):
        with open(filename, "r", encoding="utf-8") as fh:
            entries.append((filename, fh.read()))
    return lint_sources(entries, **kwargs)


__all__ = [
    "Finding", "LintError", "ModuleContext", "ProjectContext",
    "ProjectRule", "Rule",
    "all_rules", "dotted_name", "iter_python_files",
    "lint_file", "lint_paths", "lint_source", "lint_sources",
    "BARE_PRAGMA", "SYNTAX_ERROR", "UNKNOWN_PRAGMA_RULE",
]
