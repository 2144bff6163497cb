"""CLI driver: ``python -m repro.lint [paths...]``.

With no paths the scan targets the installed ``repro`` package tree --
the self-scan CI runs.  Exit status: 0 clean, 1 findings, 2 usage
error.  ``--no-pragmas`` reveals suppressed findings (useful to audit
what the pragmas are hiding); ``--select`` narrows to specific rules;
``--require-justification`` additionally fails on pragmas without a
``-- why`` trailer.

Reporting surface::

    python -m repro.lint --format sarif --output scan.sarif src
    python -m repro.lint --changed origin/main src

``--changed BASE`` still parses every requested file (whole-program
rules need the full call graph) but only reports findings in files git
says changed since ``BASE``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint import baseline as baseline_mod
from repro.lint.engine import LintError, all_rules, lint_paths
from repro.lint.output import RENDERERS


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
                        help="comma-separated rule ids to run (e.g. ND01,SD03)")
    parser.add_argument("--no-pragmas", action="store_true",
                        help="ignore simlint pragmas and report everything")
    parser.add_argument("--require-justification", action="store_true",
                        help="fail on pragmas without a '-- why' justification")
    parser.add_argument("--format", choices=sorted(RENDERERS),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--changed", metavar="BASE",
                        help="report only findings in files git changed "
                             "since BASE (whole program is still analysed)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--statistics", action="store_true",
                        help="append a per-rule findings summary")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = args.paths or [_default_target()]
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        findings = lint_paths(
            paths, select=select,
            respect_pragmas=not args.no_pragmas,
            require_justification=args.require_justification)

        cache = baseline_mod.SourceCache()
        if args.changed:
            changed = baseline_mod.changed_files(args.changed)
            findings = baseline_mod.restrict_to_changed(findings, changed)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = RENDERERS[args.fmt](findings, cache)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)

    if args.statistics and findings and args.fmt == "text":
        counts: dict = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        print("--")
        for rule_id in sorted(counts):
            print(f"{rule_id}: {counts[rule_id]}")
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
