"""The self-scan gate: the repo's own source, examples and benches must
lint clean outright -- there is no baseline of accepted findings.

The scan runs in process, once, over the three trees together, exactly
as CI runs ``python -m repro.lint src/repro examples benchmarks``; one
subprocess test covers the CLI's exit codes.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys

import pytest

from repro.lint.__main__ import main
from repro.lint.engine import iter_python_files, lint_paths, pragmas

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
TREES = ["src/repro", "examples", "benchmarks"]


@functools.lru_cache(maxsize=None)
def _self_scan():
    return lint_paths([os.path.join(REPO_ROOT, tree) for tree in TREES])


@pytest.mark.parametrize("tree", TREES)
def test_self_scan_is_clean(tree):
    root = os.path.join(REPO_ROOT, tree) + os.sep
    findings = [f.format() for f in _self_scan() if f.path.startswith(root)]
    assert findings == []


def test_library_never_reads_the_wall_clock():
    # Not even a justified exception under src/repro: no module there
    # carries an ND02 pragma, so the clean self-scan covers every call.
    # benchmarks/lds_bench is the only code that reads the host clock.
    suppressing = []
    for path in iter_python_files([os.path.join(SRC, "repro")]):
        with open(path, encoding="utf-8") as fh:
            for line, _, match in pragmas(fh.read()):
                if "ND02" in match.group("rules"):
                    suppressing.append(f"{path}:{line}")
    assert suppressing == []


def test_list_rules_names_every_shipped_rule(capsys):
    assert main(["--list-rules"]) == 0
    # Two header lines, then one row per rule -- these and nothing else.
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()[2:]]
    assert listed == ["ND02", "ND03", "ND05", "RP01", "SD04"]


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


def test_findings_set_a_nonzero_exit(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("value = 1\n")
    result = _run(str(clean))
    assert result.returncode == 0, result.stdout + result.stderr

    bad = tmp_path / "bad.py"
    bad.write_text("import time\nvalue = time.time()\n")
    result = _run(str(bad))
    assert result.returncode == 1
    assert "ND02" in result.stdout

    result = _run(str(tmp_path / "missing.py"))
    assert result.returncode == 2
