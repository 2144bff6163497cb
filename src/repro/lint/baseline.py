"""Finding fingerprints and diff-aware scans.

A fingerprint identifies a finding across edits for the JSON / SARIF
reports (:mod:`repro.lint.output`): it deliberately ignores line
*numbers* -- a short SHA-1 over ``(rule id, normalised path, stripped
text of the flagged source line)`` -- so inserting code above a finding
keeps its identity, while editing the flagged line itself (or fixing it)
does not.  There is no accepted-findings ledger: every scanned tree is
held clean outright, and a deliberate exception is an inline pragma
with its justification next to the code.

``changed_files(base)`` backs the ``--changed BASE`` mode: the scan
still parses the whole program (cross-module propagation needs every
module), but only findings located in files touched since ``BASE`` --
plus untracked files -- are reported.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.engine import Finding, LintError

def normalise_path(path: str) -> str:
    normalized = path.replace(os.sep, "/")
    while normalized.startswith("./"):
        normalized = normalized[2:]
    return normalized


class SourceCache:
    """Lazily reads and caches the split lines of scanned files."""

    def __init__(self,
                 sources: Optional[Dict[str, str]] = None) -> None:
        self._lines: Dict[str, List[str]] = {}
        if sources:
            for path, text in sources.items():
                self._lines[path] = text.splitlines()

    def line(self, path: str, lineno: int) -> str:
        if path not in self._lines:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    self._lines[path] = fh.read().splitlines()
            except OSError:
                self._lines[path] = []
        lines = self._lines[path]
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""


def fingerprint(finding: Finding, line_text: str) -> str:
    """Stable 16-hex-digit id for a finding, line-number independent."""
    digest = hashlib.sha1()
    digest.update(finding.rule.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(normalise_path(finding.path).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(line_text.strip().encode("utf-8"))
    return digest.hexdigest()[:16]


def compute_fingerprints(findings: Sequence[Finding],
                         cache: Optional[SourceCache] = None) -> List[str]:
    """Fingerprints aligned index-for-index with ``findings``."""
    cache = cache or SourceCache()
    return [fingerprint(f, cache.line(f.path, f.line)) for f in findings]


def changed_files(base: str, repo_root: str = ".") -> Set[str]:
    """Real paths of ``.py`` files changed since ``base`` (plus untracked)."""
    def run(*argv: str) -> List[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", repo_root, *argv],
                capture_output=True, text=True, check=True)
        except FileNotFoundError:
            raise LintError("--changed requires git on PATH")
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or "").strip() or f"exit {exc.returncode}"
            raise LintError(f"git {' '.join(argv[:2])} failed: {detail}")
        return [line for line in proc.stdout.splitlines() if line]

    top = run("rev-parse", "--show-toplevel")[0]
    names = run("diff", "--name-only", base, "--")
    names += run("ls-files", "--others", "--exclude-standard")
    return {os.path.realpath(os.path.join(top, name))
            for name in names if name.endswith(".py")}


def restrict_to_changed(findings: Sequence[Finding],
                        changed: Iterable[str]) -> List[Finding]:
    """Keep only findings located in one of the ``changed`` real paths."""
    wanted = set(changed)
    return [f for f in findings
            if os.path.realpath(f.path) in wanted]


__all__ = [
    "SourceCache", "normalise_path", "changed_files",
    "compute_fingerprints", "fingerprint", "restrict_to_changed",
]
