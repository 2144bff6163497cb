"""Every ``.py`` file of a repository tree, read and parsed once per session.

The tier-1 scans over the repo's own syntax tree (the layering, the
public names, the one cluster object and the determinism rules) walk the
same few trees; they share this walker, so each file is parsed once.
"""

from __future__ import annotations

import ast
import functools
import os
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class Module(NamedTuple):
    path: str  # relative to the repo root, "/"-separated
    source: str
    tree: ast.Module


@functools.lru_cache(maxsize=None)
def modules(top: str) -> Tuple[Module, ...]:
    """Every ``.py`` file under the repo-relative directory ``top``,
    parsed, in path order."""
    found = []
    for directory, _, files in os.walk(os.path.join(ROOT, top)):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                relative = os.path.relpath(path, ROOT).replace(os.sep, "/")
                found.append(Module(relative, source, ast.parse(source, path)))
    return tuple(sorted(found))
