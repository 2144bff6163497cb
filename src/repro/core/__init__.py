"""The LDS (Layered Data Storage) algorithm -- the paper's contribution.

The package is organised around the three protocol roles of Figures 1-3 of
the paper plus the system builder that wires them together:

* :mod:`repro.core.tags` -- version tags ``(z, writer_id)`` with the total
  order used throughout the protocol.
* :mod:`repro.core.config` -- the system configuration ``(n1, n2, f1, f2)``
  and the derived code parameters ``k = n1 - 2 f1`` and ``d = n2 - 2 f2``.
* :mod:`repro.core.messages` -- every protocol message of Figures 1-3.
* :mod:`repro.core.server_l1` / :mod:`repro.core.server_l2` -- the layer-1
  and layer-2 server automata, including the internal ``write-to-L2`` and
  ``regenerate-from-L2`` operations.
* :mod:`repro.core.writer` / :mod:`repro.core.reader` -- the client
  automata (two-phase writes, three-phase reads).
* :mod:`repro.core.system` -- :class:`~repro.core.system.LDSSystem`, the
  public facade: builds a simulated deployment, runs client operations,
  records histories, and tracks storage / communication costs.
* :mod:`repro.core.costs` -- storage accounting (temporary L1 storage vs
  permanent L2 storage).
* :mod:`repro.core.analysis` -- the closed-form cost and latency formulas
  of Section V (Lemmas V.2-V.5) used by the benchmarks to compare measured
  values against the paper.
"""

from repro import _lazy_exports

_EXPORTS = {
    "BackendRepairCoordinator": "repair",
    "L2RepairReport": "repair",
    "Tag": "tags",
    "LDSConfig": "config",
    "LDSSystem": "system",
    "OperationResult": "results",
    "StorageCostTracker": "costs",
    "LatencyBounds": "analysis",
    "mbr_write_cost": "analysis",
    "mbr_read_cost": "analysis",
    "mbr_storage_cost_l2": "analysis",
    "msr_read_cost": "analysis",
    "msr_storage_cost_l2": "analysis",
    "latency_bounds": "analysis",
    "multi_object_storage_bounds": "analysis",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
