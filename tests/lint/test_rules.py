"""Per-rule fixture suites: every rule has true-positive and
false-positive fixtures under ``tests/lint/fixtures/``.

The TP fixture must produce exactly the pinned ``(rule, line, col)``
findings (all of its own rule, so trigger drift in either direction is
caught); the FP fixture must scan completely clean under the full rule
set.
"""

from __future__ import annotations

import os

import pytest

from repro.lint.engine import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture stem -> the exact ``(rule, line, col)`` findings of its TP fixture.
CASES = {
    "nd02": [("ND02", 7, 11), ("ND02", 8, 9), ("ND02", 9, 8)],
    "nd03": [("ND03", 5, 13), ("ND03", 8, 11), ("ND03", 9, 29),
             ("ND03", 10, 9)],
    "nd05": [("ND05", 6, 28), ("ND05", 11, 32), ("ND05", 16, 18),
             ("ND05", 20, 25)],
    "rp01": [("RP01", 9, 21), ("RP01", 10, 21), ("RP01", 13, 9)],
    "sd04": [("SD04", 11, 9), ("SD04", 12, 9), ("SD04", 13, 9),
             ("SD04", 23, 9), ("SD04", 24, 9)],
}

#: Rules scoped by path live under a matching fixture subdirectory:
#: SD04 only fires inside ``cluster/``/``sim/``.
_SCOPED_SUBDIRS = {"sd04": "cluster"}


def _fixture_path(stem: str, kind: str) -> str:
    subdir = _SCOPED_SUBDIRS.get(stem, "")
    return os.path.join(FIXTURES, subdir, f"{stem}_{kind}.py")


@pytest.mark.parametrize("stem", sorted(CASES))
def test_true_positive_fixture_fails_its_rule(stem):
    findings = lint_paths([_fixture_path(stem, "tp")])
    assert [(f.rule, f.line, f.col) for f in findings] == CASES[stem]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_false_positive_fixture_scans_clean(stem):
    findings = lint_paths([_fixture_path(stem, "fp")])
    assert findings == [], [f.format() for f in findings]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_select_isolates_the_rule(stem):
    rule_id = CASES[stem][0][0]
    findings = lint_paths([_fixture_path(stem, "tp")], select=[rule_id])
    assert [(f.rule, f.line, f.col) for f in findings] == CASES[stem]
