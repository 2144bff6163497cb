"""Schema tests for the JSON and SARIF renderers."""

from __future__ import annotations

import json

from repro.lint.baseline import SourceCache
from repro.lint.engine import BARE_PRAGMA, Finding, all_rules
from repro.lint.output import render_json, render_sarif


def _findings():
    return [
        Finding(rule="ND01", path="pkg/a.py", line=3, col=9,
                message="unseeded call"),
        Finding(rule="SD03", path="pkg/b.py", line=7, col=1,
                message="cross-source clock access"),
        Finding(rule=BARE_PRAGMA, path="pkg/a.py", line=5, col=1,
                message="pragma carries no justification"),
    ]


def _cache():
    return SourceCache({
        "pkg/a.py": "x = 1\ny = 2\nz = bad()\nw = 4\n# simlint\n",
        "pkg/b.py": "\n\n\n\n\n\nif a < b:\n    pass\n",
    })


def test_json_payload_shape():
    payload = json.loads(render_json(_findings(), _cache()))
    assert payload["version"] == 1
    assert payload["tool"] == "repro.lint"
    assert payload["counts"] == {"E003": 1, "ND01": 1, "SD03": 1}
    entries = payload["findings"]
    assert len(entries) == 3
    first = entries[0]
    assert first["rule"] == "ND01"
    assert first["path"] == "pkg/a.py"
    assert (first["line"], first["col"]) == (3, 9)
    assert first["level"] == "warning"
    assert len(first["fingerprint"]) == 16
    # Engine diagnostics render as errors, real rules as warnings.
    assert entries[2]["level"] == "error"


def test_sarif_payload_shape():
    payload = json.loads(render_sarif(_findings(), _cache()))
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    run = payload["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    # Every shipped rule is described, plus the diagnostic that occurs.
    for rule in all_rules():
        assert rule.rule_id in rule_ids
    assert BARE_PRAGMA in rule_ids
    results = run["results"]
    assert len(results) == 3
    result = results[0]
    assert result["ruleId"] == "ND01"
    assert result["level"] == "warning"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 3, "startColumn": 9}
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "pkg/a.py"
    assert "reproLint/v1" in result["partialFingerprints"]


def test_sarif_rule_descriptors_carry_titles():
    payload = json.loads(render_sarif([], SourceCache({})))
    driver = payload["runs"][0]["tool"]["driver"]
    by_id = {rule["id"]: rule for rule in driver["rules"]}
    assert by_id["SD03"]["shortDescription"]["text"] \
        == "raw cross-source simulator clock access"
    assert by_id["SD03"]["defaultConfiguration"]["level"] == "warning"
    assert "fullDescription" in by_id["SD03"]


def test_empty_scan_renders_valid_documents():
    assert json.loads(render_json([], SourceCache({})))["findings"] == []
    sarif = json.loads(render_sarif([], SourceCache({})))
    assert sarif["runs"][0]["results"] == []
