"""Erasure and regenerating codes.

This package contains every code family the paper references:

* :mod:`repro.codes.replication` -- trivial replication "code" (the
  comparison point for storage cost in Figure 6).
* :mod:`repro.codes.reed_solomon` -- (n, k) Reed-Solomon / MDS codes via
  Vandermonde generator matrices (the popular single-layer choice the
  paper contrasts regenerating codes with).
* :mod:`repro.codes.regenerating` -- the regenerating-code parameter
  framework of Dimakis et al. [9]: cut-set bound, MBR and MSR operating
  points, repair-bandwidth accounting.
* :mod:`repro.codes.product_matrix` -- exact-repair product-matrix MBR and
  MSR constructions of Rashmi, Shah and Kumar [25]; these are the codes
  the LDS algorithm uses in the back-end layer.
* :mod:`repro.codes.layered` -- the (C, C1, C2) split of a single
  regenerating code across the two server layers used by LDS
  (Section II-c of the paper).
"""

from repro import _lazy_exports

_EXPORTS = {
    "CodedElement": "base",
    "DecodingError": "base",
    "ErasureCode": "base",
    "RepairError": "base",
    "ReplicationCode": "replication",
    "ReedSolomonCode": "reed_solomon",
    "RegeneratingCodeParameters": "regenerating",
    "cut_set_bound": "regenerating",
    "mbr_parameters": "regenerating",
    "msr_parameters": "regenerating",
    "ProductMatrixMBRCode": "product_matrix",
    "ProductMatrixMSRCode": "product_matrix",
    "LayeredCode": "layered",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
