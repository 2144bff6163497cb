"""The docs name only files that exist.

Every markdown link target and every path-like token ending ``.py``,
``.txt``, ``.md`` or ``.json`` (code blocks included) in the README and
the verify notes must resolve, as a file or a glob, against the repo
root, ``src/repro`` or ``benchmarks/``.  Deleting a file then fails here
until the docs stop naming it.
"""

import glob
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOCS = ["README.md", os.path.join(".claude", "skills", "verify", "SKILL.md")]
BASES = [ROOT, os.path.join(ROOT, "src", "repro"), os.path.join(ROOT, "benchmarks")]
PATH = re.compile(r"(?<![\w/.:-])((?:[\w.*-]+/)+[\w.*-]+\.(?:py|txt|md|json))(?![\w/])")
LINK = re.compile(r"\]\(([^)#\s]+)")


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    with open(os.path.join(ROOT, doc)) as handle:
        text = handle.read()
    refs = set(PATH.findall(text)) | set(LINK.findall(text))
    missing = sorted(ref for ref in refs
                     if not any(glob.glob(os.path.join(base, ref)) for base in BASES))
    assert refs and not missing, missing
