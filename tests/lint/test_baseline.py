"""Tests for fingerprints, the diff-aware ``--changed`` mode, and the
machine-readable CLI surface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.lint.baseline import fingerprint
from repro.lint.engine import Finding

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")

BAD_MODULE = "import random\nvalue = random.random()\n"


def _run(*args: str, cwd: str = REPO_ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, env=env, cwd=cwd)


def _finding(line=3, path="pkg/a.py", rule="ND01"):
    return Finding(rule=rule, path=path, line=line, col=1, message="m")


def test_fingerprint_ignores_line_numbers_not_content():
    assert fingerprint(_finding(line=3), "x = bad()") \
        == fingerprint(_finding(line=30), "  x = bad()  ")
    assert fingerprint(_finding(), "x = bad()") \
        != fingerprint(_finding(), "x = worse()")
    assert fingerprint(_finding(rule="ND01"), "x = bad()") \
        != fingerprint(_finding(rule="ND02"), "x = bad()")


def test_cli_format_json_and_sarif(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(BAD_MODULE)

    result = _run("--format", "json", str(target))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["counts"] == {"ND01": 1}

    out = tmp_path / "scan.sarif"
    result = _run("--format", "sarif", "--output", str(out), str(target))
    assert result.returncode == 1
    payload = json.loads(out.read_text())
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"][0]["ruleId"] == "ND01"


def test_cli_require_justification(tmp_path):
    bare = tmp_path / "bare.py"
    bare.write_text(
        "import random\n"
        "value = random.random()  # simlint: disable=ND01\n")
    result = _run(str(bare))
    assert result.returncode == 0  # pragma suppresses by default
    result = _run("--require-justification", str(bare))
    assert result.returncode == 1
    assert "E003" in result.stdout

    justified = tmp_path / "justified.py"
    justified.write_text(
        "import random\n"
        "value = random.random()  # simlint: disable=ND01 -- calibration\n")
    result = _run("--require-justification", str(justified))
    assert result.returncode == 0, result.stdout + result.stderr


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=cwd, check=True, capture_output=True)


def test_cli_changed_reports_only_touched_files(tmp_path):
    repo = tmp_path / "work"
    repo.mkdir()
    (repo / "stale.py").write_text(BAD_MODULE)
    (repo / "touched.py").write_text("clean = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-qm", "seed")

    # Both files carry findings, but only touched.py changed since HEAD.
    (repo / "touched.py").write_text(BAD_MODULE)
    result = _run("--changed", "HEAD", ".", cwd=str(repo))
    assert result.returncode == 1, result.stdout + result.stderr
    assert "touched.py" in result.stdout
    assert "stale.py" not in result.stdout

    # Untracked files count as changed too.
    (repo / "fresh.py").write_text(BAD_MODULE)
    result = _run("--changed", "HEAD", ".", cwd=str(repo))
    assert "fresh.py" in result.stdout

    # With no churn the scan passes even though stale.py has findings.
    _git(repo, "add", ".")
    _git(repo, "commit", "-qm", "churn")
    result = _run("--changed", "HEAD", ".", cwd=str(repo))
    assert result.returncode == 0, result.stdout + result.stderr
