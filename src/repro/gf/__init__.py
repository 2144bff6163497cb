"""Finite-field arithmetic substrate.

The erasure and regenerating codes in :mod:`repro.codes` operate over the
finite field GF(2^8).  This package provides:

* :mod:`repro.gf.gf256` -- scalar and vectorised (numpy) arithmetic over
  GF(2^8) with the AES polynomial ``x^8 + x^4 + x^3 + x + 1``.
* :mod:`repro.gf.matrix` -- dense matrices over GF(2^8): multiplication,
  rank, inversion, linear solves and Gaussian elimination.
* :mod:`repro.gf.builders` -- structured matrix builders (Vandermonde,
  Cauchy, identity stacking) used by the code constructions.
* :mod:`repro.gf.polynomial` -- univariate polynomials over GF(2^8),
  including evaluation and Lagrange interpolation.
"""

from repro import _lazy_exports

_EXPORTS = {
    "GF256": "gf256",
    "GFMatrix": "matrix",
    "GFPolynomial": "polynomial",
    "vandermonde_matrix": "builders",
    "cauchy_matrix": "builders",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
