"""Per-rule fixture suites: every rule has true-positive and
false-positive fixtures under ``tests/lint/fixtures/``.

The TP fixture must produce only findings of its own rule (the exact
expected count, so trigger drift is caught); the FP fixture must scan
completely clean under the full rule set.
"""

from __future__ import annotations

import os

import pytest

from repro.lint.engine import lint_file

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture stem -> (rule id, expected true-positive count).
CASES = {
    "nd01": ("ND01", 5),
    "nd02": ("ND02", 3),
    "nd03": ("ND03", 4),
    "nd04": ("ND04", 3),
    "nd05": ("ND05", 4),
    "rp01": ("RP01", 3),
    "rp02": ("RP02", 2),
    "sd01": ("SD01", 3),
    "sd02": ("SD02", 2),
    "sd03": ("SD03", 4),
    "sd04": ("SD04", 5),
}

#: Rules scoped by path live under a matching fixture subdirectory:
#: SD01 only fires inside ``obs/``, SD04 inside ``cluster/``/``sim/``.
_SCOPED_SUBDIRS = {"sd01": "obs", "sd04": "cluster"}


def _fixture_path(stem: str, kind: str) -> str:
    subdir = _SCOPED_SUBDIRS.get(stem, "")
    return os.path.join(FIXTURES, subdir, f"{stem}_{kind}.py")


@pytest.mark.parametrize("stem", sorted(CASES))
def test_true_positive_fixture_fails_its_rule(stem):
    rule_id, expected = CASES[stem]
    findings = lint_file(_fixture_path(stem, "tp"))
    assert findings, f"{stem}_tp.py produced no findings"
    assert {f.rule for f in findings} == {rule_id}
    assert len(findings) == expected


@pytest.mark.parametrize("stem", sorted(CASES))
def test_false_positive_fixture_scans_clean(stem):
    findings = lint_file(_fixture_path(stem, "fp"))
    assert findings == [], [f.format() for f in findings]


@pytest.mark.parametrize("stem", sorted(CASES))
def test_select_isolates_the_rule(stem):
    rule_id, expected = CASES[stem]
    findings = lint_file(_fixture_path(stem, "tp"), select=[rule_id])
    assert len(findings) == expected
