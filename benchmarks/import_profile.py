"""Print where a benchmark repetition's import time goes.

Every ``lds_bench`` repetition runs in a fresh interpreter, so its
``setup_s`` is mostly importing ``repro``.  This script runs the import
lines of ``lds_bench.workloads.build`` in a fresh interpreter under
``python -X importtime`` and prints the ten ``repro`` modules with the
largest self time, plus the totals.  It only reports: which modules
load is pinned by ``tests/packaging/test_import_set.py``.

    python3 benchmarks/import_profile.py
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

BENCHMARKS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCHMARKS), "src")


def build_import_lines() -> str:
    """The import statements inside ``lds_bench.workloads.build``."""
    with open(os.path.join(BENCHMARKS, "lds_bench", "workloads.py"),
              encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    build, = (node for node in module.body
              if isinstance(node, ast.FunctionDef) and node.name == "build")
    return "\n".join(ast.unparse(node) for node in ast.walk(build)
                     if isinstance(node, (ast.Import, ast.ImportFrom)))


def import_times(code: str):
    """``(self us, cumulative us, module)`` for every module ``code`` loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                            capture_output=True, text=True, env=env,
                            check=True)
    for line in result.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, cumulative_us, name = (
                field.strip() for field in line.split(":", 1)[1].split("|"))
            yield int(self_us), int(cumulative_us), name


def main() -> None:
    rows = sorted(import_times(build_import_lines()), reverse=True)
    ours = [row for row in rows if row[2].split(".")[0] == "repro"]
    print(f"{'self ms':>8} {'cumul ms':>9}  module")
    for self_us, cumulative_us, name in ours[:10]:
        print(f"{self_us / 1e3:8.1f} {cumulative_us / 1e3:9.1f}  {name}")
    print(f"repro: {len(ours)} modules, {sum(row[0] for row in ours) / 1e3:.1f} ms self")
    print(f"all: {len(rows)} modules, "
          f"{sum(row[0] for row in rows) / 1e3:.1f} ms self")


if __name__ == "__main__":
    main()
