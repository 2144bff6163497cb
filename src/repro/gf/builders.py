"""Structured matrix builders over GF(2^8).

The erasure-code constructions use Vandermonde generator matrices built
from distinct evaluation points: any ``d`` rows of an ``n x d``
Vandermonde matrix are linearly independent as long as the evaluation
points are distinct and non-zero.  The product-matrix regenerating codes
use one as their encoding matrix, Reed-Solomon its systematic form.
"""

from __future__ import annotations

import numpy as np

from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix


def vandermonde_matrix(rows: int, cols: int, points=None) -> GFMatrix:
    """Return a ``rows x cols`` Vandermonde matrix over GF(2^8).

    Row ``i`` is ``[1, x_i, x_i^2, ..., x_i^{cols-1}]``.  The default
    evaluation points are ``generator^i`` for ``i = 0..rows-1``, which are
    distinct and non-zero as long as ``rows <= 255``.

    Any ``cols`` rows of the resulting matrix are linearly independent,
    which is exactly the MDS-style property required by the code layer.
    """
    if rows > 255:
        raise ValueError("GF(2^8) Vandermonde supports at most 255 distinct rows")
    if points is None:
        points = [GF256.exp(i) for i in range(rows)]
    points = [int(p) for p in points]
    if len(points) != rows:
        raise ValueError("number of evaluation points must equal rows")
    if len(set(points)) != rows:
        raise ValueError("evaluation points must be distinct")
    if any(p == 0 for p in points):
        raise ValueError("evaluation points must be non-zero")
    matrix = np.zeros((rows, cols), dtype=np.uint8)
    for i, x in enumerate(points):
        value = 1
        for j in range(cols):
            matrix[i, j] = value
            value = GF256.mul(value, x)
    return GFMatrix(matrix)


def systematic_vandermonde(rows: int, cols: int) -> GFMatrix:
    """Return a systematic ``rows x cols`` MDS generator matrix.

    The first ``cols`` rows form the identity; the matrix retains the
    property that any ``cols`` rows are linearly independent.  Built by
    reducing a Vandermonde matrix so its top square block becomes the
    identity (column operations preserve the any-``cols``-rows property).
    """
    if rows < cols:
        raise ValueError("systematic generator requires rows >= cols")
    base = vandermonde_matrix(rows, cols)
    top = base.submatrix(range(cols))
    transform = top.inverse()
    return base.matmul(transform)


__all__ = ["vandermonde_matrix", "systematic_vandermonde"]
