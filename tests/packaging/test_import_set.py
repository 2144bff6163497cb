"""Pins which ``repro`` modules a benchmark run loads, instead of timing them.

Every ``lds_bench`` repetition runs in a fresh interpreter, so its
``setup_s`` is mostly the import of ``repro``.  The packages resolve their
exports lazily, and the cluster layer keeps audit-only, drill-only and
replica-only code behind function-local imports.  This test runs
``lds_bench.workloads.build``'s own import lines in a fresh interpreter and
compares the ``repro.*`` modules they load with a pinned list, so a new
eager edge fails here rather than silently moving ``setup_s``.  The same
interpreter then runs every workload at smoke scale and checks that no
module is first imported inside the timed ``apply`` (that would move
``run_s`` instead), that the audit after it loads only the two checker
modules (``peak_rss_mb`` is read after the audit), and that nothing along
the way imported numpy, the runtime's one would-be third-party dependency,
nor ``hashlib``: its ``_hashlib`` maps OpenSSL's libcrypto, ~3.6 MiB of
``peak_rss_mb``, and the key hashes need only the builtin ``_blake2``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from import_profile import build_import_lines  # noqa: E402

#: What ``build``'s import lines load, and nothing else.
LDS_BENCH_IMPORT_SET = [
    "repro",
    "repro.cluster",
    "repro.cluster.membership",
    "repro.cluster.placement",
    "repro.cluster.read_policy",
    "repro.cluster.repair",
    "repro.cluster.ring",
    "repro.cluster.router",
    "repro.codes",
    "repro.codes.base",
    "repro.codes.layered",
    "repro.codes.product_matrix",
    "repro.codes.regenerating",
    "repro.consistency",
    "repro.consistency.history",
    "repro.core",
    "repro.core.config",
    "repro.core.costs",
    "repro.core.messages",
    "repro.core.reader",
    "repro.core.repair",
    "repro.core.results",
    "repro.core.server_l1",
    "repro.core.server_l2",
    "repro.core.system",
    "repro.core.tags",
    "repro.core.writer",
    "repro.gf",
    "repro.gf.builders",
    "repro.gf.gf256",
    "repro.gf.matrix",
    "repro.net",
    "repro.net.broadcast",
    "repro.net.kernel",
    "repro.net.latency",
    "repro.net.messages",
    "repro.net.network",
    "repro.net.process",
    "repro.net.simulator",
    "repro.sim",
    "repro.sim.harness",
    "repro.sim.scenario",
    "repro.workloads",
    "repro.workloads.generator",
]

#: Modules no benchmark run may load eagerly: telemetry, the baselines,
#: the injection drills, the replica coordinator (built only when
#: ``r > 1``) and the sanitizer.
NEVER_EAGER = ("repro.obs", "repro.baselines", "repro.consistency.injection",
               "repro.cluster.replicas", "repro.net.sanitizer")

PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "repro" or m.startswith("repro."))

import repro
bare = loaded()
{imports}
imported = loaded()
from lds_bench.workloads import SPECS, build
added = {{}}
for spec in SPECS:
    simulation, scenario, _ = build(spec.scaled(1 / 40), 1)
    before = set(sys.modules)
    simulation.apply(scenario)
    added[spec.name] = sorted(set(sys.modules) - before)
before = set(sys.modules)
simulation.audit()
audited = sorted(set(sys.modules) - before)
print(json.dumps({{"bare": bare, "imported": imported, "added": added,
                  "audited": audited, "numpy": "numpy" in sys.modules,
                  "hashlib": "hashlib" in sys.modules,
                  "_hashlib": "_hashlib" in sys.modules}}))
"""

#: What the first ``audit()`` after a run loads.
AUDIT_IMPORT_SET = ["repro.consistency.linearizability",
                    "repro.consistency.sessions"]


def probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), BENCHMARKS, env.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=build_import_lines())],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_lds_bench_loads_the_pinned_modules_and_apply_loads_none():
    observed = probe()
    assert observed["bare"] == ["repro"]
    assert observed["imported"] == LDS_BENCH_IMPORT_SET
    assert observed["added"] == {name: [] for name in (
        "pump_small", "regen_large", "write_heavy", "replica_faults")}
    assert observed["audited"] == AUDIT_IMPORT_SET
    assert observed["numpy"] is False
    assert observed["hashlib"] is False
    assert observed["_hashlib"] is False


def test_the_pin_excludes_what_a_run_never_executes():
    eager = [name for name in LDS_BENCH_IMPORT_SET
             if name.startswith(NEVER_EAGER)]
    assert eager == []
    assert "from repro import" in build_import_lines()
