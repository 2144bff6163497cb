"""The self-scan gate: the repo's own source, examples and benches must
lint clean outright -- there is no baseline of accepted findings.

Shells out to ``python -m repro.lint`` exactly as CI does, so the CLI
surface (argument parsing, exit codes, default target) is covered too.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


@pytest.mark.parametrize("tree", ["src/repro", "examples", "benchmarks"])
def test_self_scan_is_clean(tree):
    result = _run(os.path.join(REPO_ROOT, tree))
    assert result.returncode == 0, result.stdout + result.stderr


def test_library_never_reads_the_wall_clock():
    # Pragma-blind: not even a justified exception under src/repro.
    # benchmarks/lds_bench is the only code that reads the host clock.
    result = _run("--no-pragmas", "--select", "ND02",
                  os.path.join(SRC, "repro"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_list_rules_names_every_shipped_rule():
    result = _run("--list-rules")
    assert result.returncode == 0
    # Two header lines, then one row per rule -- these and nothing else.
    listed = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert listed == ["ND01", "ND02", "ND03", "ND04", "ND05",
                      "RP01", "RP02",
                      "SD01", "SD02", "SD03", "SD04"]


def test_new_families_scan_src_clean():
    result = _run("--select", "RP01,RP02",
                  os.path.join(SRC, "repro"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_findings_set_a_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nvalue = random.random()\n")
    result = _run(str(bad))
    assert result.returncode == 1
    assert "ND01" in result.stdout

    result = _run(str(tmp_path / "missing.py"))
    assert result.returncode == 2
