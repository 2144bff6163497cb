"""The packages' lazy export tables are complete and point at the right code.

Each package ``__init__`` maps its exported names to the submodule that
defines them and imports that submodule on first use (PEP 562).  A typo in
a table no longer fails at import time, so these tests are the guard.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = ["repro", "repro.net", "repro.gf", "repro.codes", "repro.core",
            "repro.consistency", "repro.baselines", "repro.workloads",
            "repro.cluster", "repro.sim", "repro.obs"]


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_is_the_object_its_defining_module_holds(package):
    for name in package.__all__:
        if name == "__version__":
            continue
        value = getattr(package, name)
        source = importlib.import_module(
            f"{package.__name__}.{package._EXPORTS[name]}")
        assert vars(source)[name] is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            # The table names where the object is defined, not a re-export.
            assert value.__module__ == source.__name__, name


def test_dir_lists_every_export(package):
    assert set(package.__all__) <= set(dir(package))


def test_star_import_fills_a_fresh_namespace(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert {name: namespace[name] for name in package.__all__} \
        == {name: getattr(package, name) for name in package.__all__}


def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")
    assert not hasattr(package, "no_such_export")


def test_export_sharing_a_submodule_name_stays_the_export():
    # repro.obs exports the function critical_path from the module
    # repro.obs.critical_path; loading the module must not shadow it.
    importlib.import_module("repro.obs.critical_path")
    from repro.obs import critical_path
    assert inspect.isfunction(critical_path)
    assert importlib.import_module("repro.obs").critical_path is critical_path
