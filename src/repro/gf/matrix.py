"""Dense matrices over GF(2^8).

:class:`GFMatrix` wraps a 2-D numpy ``uint8`` array and provides the linear
algebra the code constructions need: multiplication, transposition, rank,
Gaussian elimination, inversion, and solving linear systems.  The matrices
involved in the product-matrix codes are small (tens of rows/columns), so a
straightforward O(n^3) elimination is more than fast enough and keeps the
implementation easy to audit.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index as as_index
from typing import Iterable, Sequence

import numpy as np

from repro.gf.gf256 import GF256

#: Most row-subset inverses kept by :meth:`GFMatrix.inverse_of_rows`.  One
#: (n, k, d) code needs at most C(n, d) + C(n, k) of them; the protocol's
#: helper and reader quorums draw on far fewer.
_ROW_INVERSE_CACHE_SIZE = 1024


class SingularMatrixError(ValueError):
    """Raised when an inverse or unique solution does not exist."""


class GFMatrix:
    """A dense matrix with entries in GF(2^8)."""

    def __init__(self, data) -> None:
        array = np.array(data, dtype=np.uint8)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim != 2:
            raise ValueError("GFMatrix requires 2-D data")
        self._data = array

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GFMatrix":
        """Return the all-zero matrix of the given shape."""
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, size: int) -> "GFMatrix":
        """Return the identity matrix of the given size."""
        return cls(np.eye(size, dtype=np.uint8))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "GFMatrix":
        """Build a matrix from an iterable of row sequences."""
        return cls(np.array([list(row) for row in rows], dtype=np.uint8))

    # -- accessors ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying numpy array (not copied)."""
        return self._data

    @property
    def shape(self) -> tuple[int, int]:
        """The (rows, cols) shape."""
        return self._data.shape

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    def copy(self) -> "GFMatrix":
        """Return a deep copy."""
        return GFMatrix(self._data.copy())

    def row(self, index: int) -> np.ndarray:
        """Return a copy of row ``index``."""
        return self._data[index].copy()

    def column(self, index: int) -> np.ndarray:
        """Return a copy of column ``index``."""
        return self._data[:, index].copy()

    def submatrix(self, row_indices: Sequence[int], col_indices=None) -> "GFMatrix":
        """Return the submatrix picking ``row_indices`` (and optionally columns)."""
        rows = self._data[list(row_indices), :]
        if col_indices is not None:
            rows = rows[:, list(col_indices)]
        return GFMatrix(rows.copy())

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value):
        self._data[key] = value

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    def __repr__(self) -> str:
        return f"GFMatrix(shape={self.shape})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in GF matrix addition")
        return GFMatrix(np.bitwise_xor(self._data, other._data))

    __sub__ = __add__

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        return self.matmul(other)

    def matmul(self, other: "GFMatrix") -> "GFMatrix":
        """Return the matrix product ``self @ other``."""
        return GFMatrix(GF256.matmul(self._data, other._data))

    def matvec(self, vector) -> np.ndarray:
        """Multiply the matrix by a column vector, returning a 1-D array."""
        vec = GF256.as_array(vector)
        if vec.size != self.cols:
            raise ValueError("vector length does not match matrix columns")
        product = GF256.matmul(self._data, vec.reshape(-1, 1))
        return product.reshape(-1)

    def transpose(self) -> "GFMatrix":
        """Return the transpose."""
        return GFMatrix(self._data.T.copy())

    @property
    def T(self) -> "GFMatrix":
        return self.transpose()

    def scale(self, scalar: int) -> "GFMatrix":
        """Multiply every entry by ``scalar``."""
        return GFMatrix(GF256.scale_vec(scalar, self._data))

    def hstack(self, other: "GFMatrix") -> "GFMatrix":
        """Concatenate horizontally."""
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return GFMatrix(np.hstack([self._data, other._data]))

    def vstack(self, other: "GFMatrix") -> "GFMatrix":
        """Concatenate vertically."""
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return GFMatrix(np.vstack([self._data, other._data]))

    def is_symmetric(self) -> bool:
        """Return True when the matrix equals its transpose."""
        return self.rows == self.cols and bool(np.array_equal(self._data, self._data.T))

    # -- elimination -------------------------------------------------------

    def _eliminate(self, augment: np.ndarray | None = None):
        """Run Gauss-Jordan elimination.

        Returns ``(reduced, augmented, pivot_columns)``.  ``augmented`` is
        ``None`` when no augment matrix was supplied.
        """
        work = self._data.copy()
        aug = None if augment is None else augment.astype(np.uint8)
        rows, cols = work.shape
        pivot_cols: list[int] = []
        pivot_row = 0
        for col in range(cols):
            if pivot_row >= rows:
                break
            # Find a pivot in this column at or below pivot_row.
            candidates = np.flatnonzero(work[pivot_row:, col])
            if candidates.size == 0:
                continue
            pivot = pivot_row + int(candidates[0])
            if pivot != pivot_row:
                work[[pivot_row, pivot]] = work[[pivot, pivot_row]]
                if aug is not None:
                    aug[[pivot_row, pivot]] = aug[[pivot, pivot_row]]
            # Normalise the pivot row.
            inv = GF256.inv(int(work[pivot_row, col]))
            work[pivot_row] = GF256.scale_vec(inv, work[pivot_row])
            if aug is not None:
                aug[pivot_row] = GF256.scale_vec(inv, aug[pivot_row])
            # Eliminate the column from every other row at once: the outer
            # product factors x pivot-row, with the pivot row's own factor
            # zeroed so it is left alone.
            factors = work[:, col, None].copy()
            factors[pivot_row] = 0
            work ^= GF256.mul_vec(factors, work[pivot_row])
            if aug is not None:
                aug ^= GF256.mul_vec(factors, aug[pivot_row])
            pivot_cols.append(col)
            pivot_row += 1
        return work, aug, pivot_cols

    def rank(self) -> int:
        """Return the rank of the matrix."""
        _, _, pivots = self._eliminate()
        return len(pivots)

    def is_invertible(self) -> bool:
        """Return True when the matrix is square and full rank."""
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "GFMatrix":
        """Return the inverse matrix.

        Raises :class:`SingularMatrixError` when the matrix is not square
        or not full rank.
        """
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        _, aug, pivots = self._eliminate(np.eye(self.rows, dtype=np.uint8))
        if len(pivots) != self.rows:
            raise SingularMatrixError("matrix is singular")
        return GFMatrix(aug)

    def inverse_of_rows(self, rows: Sequence[int], width: int | None = None) -> np.ndarray:
        """Return the inverse of the square block ``self[rows, :width]``.

        ``width`` defaults to every column.  The result is a pure function of
        this matrix's entries and the selection, so it is memoised on exactly
        those (process-wide: code objects built from equal encoding matrices
        share the entries) and handed out read-only.  Raises
        :class:`SingularMatrixError` like :meth:`inverse`; failures are not
        memoised.  A row outside ``0..rows-1`` (a negative one would wrap) or
        a width outside ``0..cols`` is an :class:`IndexError`.
        """
        rows = tuple(as_index(row) for row in rows)
        width = self.cols if width is None else as_index(width)
        if any(not 0 <= row < self.rows for row in rows):
            raise IndexError(f"rows {rows} out of range for {self.rows} rows")
        if not 0 <= width <= self.cols:
            raise IndexError(f"width {width} out of range for {self.cols} columns")
        return _inverse_of_rows(self._data.tobytes(), self.cols, rows, width)

    def solve(self, rhs) -> np.ndarray:
        """Solve ``self @ x = rhs`` for a uniquely determined ``x``.

        ``rhs`` may be a vector or a matrix; the result has matching shape.
        Raises :class:`SingularMatrixError` when the system is not uniquely
        solvable.
        """
        rhs_arr = GF256.as_array(rhs)
        vector_input = rhs_arr.ndim == 1
        if vector_input:
            rhs_arr = rhs_arr.reshape(-1, 1)
        if rhs_arr.shape[0] != self.rows:
            raise ValueError("rhs row count does not match matrix")
        if self.rows != self.cols:
            raise SingularMatrixError("solve requires a square system")
        inverse = self.inverse()
        solution = GF256.matmul(inverse.data, rhs_arr)
        return solution.reshape(-1) if vector_input else solution


@lru_cache(maxsize=_ROW_INVERSE_CACHE_SIZE)
def _inverse_of_rows(entries: bytes, cols: int, rows: tuple, width: int) -> np.ndarray:
    matrix = np.frombuffer(entries, dtype=np.uint8).reshape(-1, cols)
    inverse = GFMatrix(matrix[list(rows), :width]).inverse().data
    # A view of immutable bytes: read-only, and ``setflags`` cannot undo it.
    return np.frombuffer(inverse.tobytes(), dtype=np.uint8).reshape(inverse.shape)


__all__ = ["GFMatrix", "SingularMatrixError"]
