"""A table-free GF(2^8) reference for the differential tests.

Everything here is plain Python over ints and lists and shares no code
with :mod:`repro.gf`: multiplication is shift-and-reduce modulo 0x11B,
inversion is a search, and the linear algebra is schoolbook.
"""

from __future__ import annotations

from typing import List, Optional

POLY = 0x11B

Matrix = List[List[int]]


def mul(a: int, b: int) -> int:
    """Shift-and-reduce ("Russian peasant") product modulo the AES polynomial."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= POLY
        b >>= 1
    return product


def inv(a: int) -> int:
    return next(x for x in range(1, 256) if mul(a, x) == 1)


def dot(a: List[int], b: List[int]) -> int:
    total = 0
    for x, y in zip(a, b):
        total ^= mul(x, y)
    return total


def matmul(a: Matrix, b: Matrix, cols: Optional[int] = None) -> Matrix:
    """``cols`` must be given when ``b`` has no rows to read it from."""
    if cols is None:
        cols = len(b[0])
    return [[dot(row, [b_row[c] for b_row in b]) for c in range(cols)] for row in a]


def inverse(matrix: Matrix) -> Optional[Matrix]:
    """Gauss-Jordan on ``[matrix | I]``; ``None`` when singular."""
    size = len(matrix)
    work = [list(row) + [int(i == j) for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        scale = inv(work[col][col])
        work[col] = [mul(scale, value) for value in work[col]]
        for r in range(size):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x ^ mul(factor, y) for x, y in zip(work[r], work[col])]
    return [row[size:] for row in work]
