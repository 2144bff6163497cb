"""The package layering, checked over every import statement in ``src/repro``.

Function-local and ``TYPE_CHECKING`` imports count too: with lazy package
``__init__``s nothing is loaded in a fixed order any more, so a cycle
between layers would no longer show up as an import error.  The one
module every layer may import is the root ``repro`` itself, which holds
the lazy-export helper and loads nothing.
"""

from __future__ import annotations

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: layer -> the layers it must never import (None: every other layer).
FORBIDDEN = {
    "obs": {"sim", "cluster"},
    "consistency": {"core", "cluster", "sim"},
}
#: layer -> the only layers it may import besides itself.
ALLOWED_ONLY = {
    "gf": set(),
    "codes": {"gf"},
    # The event pump and its sanitizer live in net, so every register runs
    # on them without importing sim.
    "net": set(),
    "core": {"gf", "codes", "net", "consistency"},
    "baselines": {"gf", "codes", "core", "net", "consistency"},
    # Telemetry reads the router's plain counters; the product never
    # imports the tooling.
    "cluster": {"gf", "codes", "net", "core", "consistency"},
}


def imported_modules(path: str):
    """Every ``repro`` module an import statement in ``path`` names, with
    ``from package import submodule`` resolved to the submodule."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                candidate = os.path.join(SRC, *node.module.split("."),
                                         alias.name)
                is_module = os.path.isdir(candidate) \
                    or os.path.isfile(candidate + ".py")
                yield f"{node.module}.{alias.name}" if is_module \
                    else node.module


def imported_layers(layer: str):
    """``(file, imported layer)`` for every cross-layer import in ``layer``."""
    root = os.path.join(SRC, "repro", layer)
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            for module in imported_modules(path):
                parts = module.split(".")
                if parts[0] == "repro" and len(parts) > 1 \
                        and parts[1] != layer:
                    yield os.path.relpath(path, SRC), parts[1]


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_never_imports_the_layers_above_it(layer):
    found = [(path, target) for path, target in imported_layers(layer)
             if target in FORBIDDEN[layer]]
    assert found == []


@pytest.mark.parametrize("layer", sorted(ALLOWED_ONLY))
def test_layer_imports_only_the_layers_below_it(layer):
    found = [(path, target) for path, target in imported_layers(layer)
             if target not in ALLOWED_ONLY[layer]]
    assert found == []


def test_the_scan_sees_function_local_imports():
    # obs.registry imports obs.latency inside a method.
    assert "repro.obs.latency" in imported_modules(
        os.path.join(SRC, "repro", "obs", "registry.py"))
