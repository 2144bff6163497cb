"""The event pump's old address, kept only as a re-export.

The pump lives in :mod:`repro.net.kernel`, below every register, so a
standalone system runs on it without importing :mod:`repro.sim`.
``lds_bench`` still wraps ``repro.sim.kernel.GlobalScheduler`` and reads
``repro.sim.TELEMETRY_SOURCE`` by these paths; ROADMAP item 20, the next
change to the benchmark, retires this module.
"""

from repro.net.kernel import TELEMETRY_SOURCE, GlobalScheduler

__all__ = ["GlobalScheduler", "TELEMETRY_SOURCE"]
