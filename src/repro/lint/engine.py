"""The rule engine: contexts, pragmas, findings, and the scan driver.

The engine is deliberately small.  A :class:`Rule` sees one parsed
module at a time through a :class:`ModuleContext` (source, AST, the
AST's nodes walked once, path parts for scoping, and an import-alias
resolver) and returns :class:`Finding` objects.  The engine then
subtracts everything an inline pragma suppresses::

    wall = perf_counter()  # simlint: disable=ND02 -- host timing only
    # simlint: disable-file=ND02 -- this module *is* the host timer

A pragma is a comment: the engine reads :mod:`tokenize` ``COMMENT``
tokens, so pragma text inside a docstring (like the two lines above) or
a string literal suppresses nothing.  ``disable=`` suppresses the named
rules on that physical line (the line of the flagged AST node);
``disable-file=`` suppresses them for the whole module.  Text after
``--`` is the justification: a pragma without one is reported
(``E003``), and so is a pragma naming a rule the engine does not know
(``E002``) -- a typo in a suppression must not silently re-enable the
finding on review.

Rules never import each other and hold no state between modules, so
findings are reported sorted by ``(path, line, column, rule)``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: A ``simlint: disable=RULE[,RULE] -- why`` (or ``disable-file=``) comment.
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


def _import_names(nodes: List[ast.AST]) -> Dict[str, str]:
    """Local names -> canonical dotted import paths.

    ``import numpy as np`` maps ``np`` -> ``numpy``; ``from random
    import shuffle as mix`` maps ``mix`` -> ``random.shuffle``.  Names
    not bound by an import resolve to nothing, so a local variable that
    happens to be called ``random`` never resolves to the module.
    """
    names: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    names[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the *root* name only.
                    root = alias.name.split(".")[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module is not None \
                and not node.level:
            # Relative imports cannot name stdlib hazards.
            for alias in node.names:
                bound = alias.asname if alias.asname is not None else alias.name
                names[bound] = f"{node.module}.{alias.name}"
    return names


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
    #: Normalised path components, used for scoping (``"sim" in parts``).
    parts: Tuple[str, ...]
    #: Every node of ``tree`` in :func:`ast.walk` order, walked once.
    nodes: List[ast.AST]
    imports: Dict[str, str]
    #: line -> rules disabled on that line.
    line_pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: rules disabled for the whole module.
    file_pragmas: Set[str] = field(default_factory=set)

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


def all_rules() -> List[Rule]:
    """Every shipped rule; ids are unique and sorted (ND, RP, SD)."""
    from repro.lint.discipline import DISCIPLINE_RULES
    from repro.lint.nondeterminism import NONDETERMINISM_RULES
    from repro.lint.provenance import PROVENANCE_RULES

    return [cls() for cls in NONDETERMINISM_RULES + PROVENANCE_RULES
            + DISCIPLINE_RULES]


def pragmas(source: str) -> Iterator[Tuple[int, int, re.Match]]:
    """``(line, column, match)`` for every pragma *comment* in ``source``."""
    if "simlint" not in source:
        return
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(token.string)
        if match is not None:
            yield token.start[0], token.start[1] + match.start() + 1, match


def _collect_pragmas(ctx: ModuleContext, known: Set[str],
                     diagnostics: List[Finding]) -> None:
    for line, col, match in pragmas(ctx.source):
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        why = (match.group("why") or "").strip()
        for rule_id in sorted(rules):
            if rule_id not in known:
                diagnostics.append(Finding(
                    rule=UNKNOWN_PRAGMA_RULE, path=ctx.path, line=line,
                    col=col, message=f"pragma names unknown rule {rule_id!r}"))
                continue
            if match.group("scope"):
                ctx.file_pragmas.add(rule_id)
            else:
                ctx.line_pragmas.setdefault(line, set()).add(rule_id)
            if not why:
                diagnostics.append(Finding(
                    rule=BARE_PRAGMA, path=ctx.path, line=line, col=1,
                    message=f"pragma suppressing {rule_id} carries no "
                            f"justification; add '-- why' or remove it"))


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
    nodes = list(ast.walk(tree))
    return ModuleContext(path=path, source=source, tree=tree, parts=parts,
                         nodes=nodes, imports=_import_names(nodes)), None


def _suppressed(ctx: ModuleContext, found: Finding) -> bool:
    return (found.rule in ctx.file_pragmas
            or found.rule in ctx.line_pragmas.get(found.line, ()))


def _lint(entries: Iterable[Tuple[str, str]],
          select: Optional[Iterable[str]]) -> List[Finding]:
    """Scan ``(path, source)`` modules; sorted findings."""
    active = all_rules()
    known = {rule.rule_id for rule in active}
    if select is not None:
        wanted = set(select)
        unknown = wanted - known
        if unknown:
            raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        active = [rule for rule in active if rule.rule_id in wanted]
    findings: List[Finding] = []
    for path, source in entries:
        ctx, error = _build_context(source, path)
        if ctx is None:
            findings.append(error)
            continue
        _collect_pragmas(ctx, known, findings)
        for rule in active:
            findings.extend(found for found in rule.check(ctx)
                            if not _suppressed(ctx, found))
    return sorted(findings, key=lambda f: f.sort_key)


def lint_source(source: str, path: str = "<string>", *,
                select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Scan one module's source text; returns sorted findings."""
    return _lint([(path, source)], select)


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


def lint_paths(paths: Iterable[str], *,
               select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Scan files and directory trees; sorted findings."""
    def entries():
        for filename in iter_python_files(paths):
            with open(filename, "r", encoding="utf-8") as fh:
                yield filename, fh.read()

    return _lint(entries(), select)


__all__ = [
    "Finding", "LintError", "ModuleContext", "Rule",
    "all_rules", "dotted_name", "iter_python_files", "lint_paths",
    "lint_source", "pragmas",
    "BARE_PRAGMA", "SYNTAX_ERROR", "UNKNOWN_PRAGMA_RULE",
]
