"""The README's Python blocks run.

Every fenced ``python`` block of ``README.md`` runs in order, in one
namespace (a later block may use a name an earlier one defined), with a
temporary working directory for the files the blocks write.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as handle:
        blocks = BLOCK.findall(handle.read())
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
