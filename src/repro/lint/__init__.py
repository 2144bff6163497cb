"""``repro.lint`` -- determinism & simulation-safety static analysis.

Everything this repository proves -- atomicity of the layered LDS
protocol, verdict-equivalence of the streaming auditor, non-interference
of telemetry -- rests on one invariant: *fixed-seed runs are
byte-identical, always*.  Most ways to break it fail a runtime check on
the first run: the determinism tests and pinned fingerprints, the
telemetry on/off tests, the kernel's past-time ``ValueError`` and the
sanitizer (:meth:`repro.net.kernel.GlobalScheduler.enable_sanitizer`).
This package keeps only the rules whose bug passes every one of those
checks: an AST-based analyzer (stdlib :mod:`ast`, no dependencies) with
a small rule engine, per-rule fixtures under ``tests/lint/``, inline
suppression pragmas, and a CLI::

    python -m repro.lint                                # self-scan src/repro
    python -m repro.lint src/repro examples benchmarks  # what CI scans
    python -m repro.lint --list-rules

Five rules, each kept because of a finding in this repo's history or a
planted bug no runtime check caught:

* **nondeterminism** -- ``ND02`` wall-clock reads, ``ND03`` unordered
  ``set`` iteration feeding order-sensitive consumers, ``ND05`` mutable
  default arguments;
* **RNG provenance** -- ``RP01`` RNG streams whose seed is not derived
  from the root seed via ``derive_seed(...)``, or re-seeded mid-run;
* **protocol discipline** -- ``SD04`` coordinator in-flight maps the
  sanitizer cannot watch.

A deliberate exception is a comment on the flagged line (or a
``disable-file=`` comment for the module) and must say why::

    wall = perf_counter()  # simlint: disable=ND02 -- wall profiling only

A pragma without the ``-- why`` trailer is itself a finding (``E003``).
"""

from repro.lint.engine import (
    Finding,
    LintError,
    ModuleContext,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
]
