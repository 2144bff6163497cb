"""``repro.lint`` -- determinism & simulation-safety static analysis.

Everything this repository proves -- atomicity of the layered LDS
protocol, verdict-equivalence of the streaming auditor, non-interference
of telemetry -- rests on one invariant: *fixed-seed runs are
byte-identical, always*.  That invariant is easy to break silently: an
unordered ``set`` iteration that feeds event emission, an unseeded
``random`` call, a wall-clock read leaking into virtual time, a probe
that mutates protocol state, an idle shard's lagging clock read as
"now".  End-to-end fingerprint tests catch such a regression only after
the fact, and only when a test happens to cross the broken path.

This package checks conformance *before* the run: an AST-based analyzer
(stdlib :mod:`ast`, no dependencies) with a small rule engine, per-rule
fixtures under ``tests/lint/``, inline suppression pragmas, and a CLI::

    python -m repro.lint            # self-scan src/repro
    python -m repro.lint src/ path2 # scan explicit paths
    python -m repro.lint --list-rules
    python -m repro.lint --format sarif --output scan.sarif src
    python -m repro.lint --changed origin/main src

Scans are *whole-program*: every requested file is parsed up front into
one :class:`repro.lint.engine.ProjectContext` carrying a project symbol
table and call graph (:mod:`repro.lint.callgraph`).

Rules come in three families:

* **generic nondeterminism** (``ND01``..``ND05``): unseeded module-level
  RNG calls, wall-clock reads, unordered ``set`` iteration feeding
  order-sensitive consumers, ``id()``/``hash()`` in ordering keys,
  mutable default arguments;
* **RNG provenance** (``RP01``..``RP02``): RNG streams whose seed is not
  derived from the root seed via ``derive_seed(...)`` (or re-seeded
  mid-run), and one stream escaping to multiple consumers;
* **protocol discipline** (``SD01``..``SD04``): observability modules
  reaching mutating cluster APIs (directly or through the call graph),
  scheduling at literal absolute times, raw cross-source simulator
  clock access, and unwatchable in-flight bookkeeping.

There is no time-domain family: every simulator is born on the global
clock, so a timestamp in the wrong domain can no longer be written, and
``ND02`` keeps host wall time out of virtual time.

A deliberate exception is annotated in place::

    wall = perf_counter()  # simlint: disable=ND02 -- wall profiling only

The justification after ``--`` is required by convention; under
``--require-justification`` (the weekly audit workflow) a bare pragma
is an ``E003`` error.  The CLI speaks JSON and SARIF 2.1.0
(:mod:`repro.lint.output`, findings carry line-content fingerprints)
and has a git-diff-aware ``--changed`` mode (:mod:`repro.lint.baseline`).

The static pass is paired with a *runtime* sanitizer for what static
analysis cannot see: :meth:`repro.sim.kernel.GlobalScheduler.enable_sanitizer`
installs per-event invariant checks (clock monotonicity, past-scheduling
detection, probe write-barriers, end-of-run leak detection).
"""

from repro.lint.engine import (
    Finding,
    LintError,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
)

__all__ = [
    "Finding",
    "LintError",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
