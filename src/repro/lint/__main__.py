"""CLI driver: ``python -m repro.lint [paths...]``.

With no paths the scan targets the installed ``repro`` package tree; CI
scans ``src/repro examples benchmarks`` together.  ``--select`` narrows
to specific rules and ``--list-rules`` prints the rule table.  Findings
go to stdout, one per line, and a per-rule count to stderr.  Exit
status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import List, Optional

from repro.lint.engine import LintError, all_rules, lint_paths


def _default_target() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _list_rules() -> str:
    lines = ["rule   title", "----   -----"]
    for rule in all_rules():
        lines.append(f"{rule.rule_id}   {rule.title}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & simulation-safety static analysis")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan "
                             "(default: the repro package itself)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run (e.g. ND02,SD04)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        findings = lint_paths(args.paths or [_default_target()], select=select)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.format())
    if findings:
        counts = Counter(finding.rule for finding in findings)
        summary = ", ".join(f"{rule} {count}"
                            for rule, count in sorted(counts.items()))
        print(f"{len(findings)} finding(s): {summary}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
