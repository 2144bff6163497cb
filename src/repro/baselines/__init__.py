"""Baseline atomic-register algorithms used for comparison.

The paper positions LDS against two families of prior work:

* **replication-based** single-layer algorithms in the style of Attiya,
  Bar-Noy and Dolev [3] -- implemented in :mod:`repro.baselines.abd`;
* **erasure-code-based** single-layer algorithms in the style of Cadambe,
  Lynch, Médard and Musial [6] -- implemented in :mod:`repro.baselines.cas`.

Both are :class:`repro.core.system.RegisterSystem` subclasses, like
:class:`repro.core.system.LDSSystem`, and their clients are
:class:`repro.core.results.Client` processes, so the benchmark harness can
swap algorithms without changing the workload code.
"""

from repro.baselines.abd import ABDSystem
from repro.baselines.cas import CASSystem

__all__ = ["ABDSystem", "CASSystem"]
