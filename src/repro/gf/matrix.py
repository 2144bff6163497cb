"""Dense matrices over GF(2^8).

:class:`GFMatrix` holds an immutable tuple of ``bytes`` rows and provides
the linear algebra the code constructions need: multiplication, rank,
Gaussian elimination, inversion, and solving linear systems.  The matrices
involved in the product-matrix codes are small (tens of rows/columns), so a
straightforward O(n^3) elimination is more than fast enough and keeps the
implementation easy to audit.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index as as_index
from typing import List, Sequence, Tuple

from repro.gf.gf256 import GF256, as_rows, as_vector, is_vector, split_rows, xor

#: Most row-subset inverses kept by :meth:`GFMatrix.inverse_of_rows`.  One
#: (n, k, d) code needs at most C(n, d) + C(n, k) of them; the protocol's
#: helper and reader quorums draw on far fewer.
_ROW_INVERSE_CACHE_SIZE = 1024


class SingularMatrixError(ValueError):
    """Raised when an inverse or unique solution does not exist."""


class GFMatrix:
    """A dense, immutable matrix with entries in GF(2^8), held as ``bytes`` rows.

    ``data`` is a sequence of rows (each ``bytes``, ``bytearray`` or a
    sequence of ints 0..255), or one such vector for a one-row matrix.
    """

    def __init__(self, data) -> None:
        if not isinstance(data, (bytes, bytearray)):
            data = list(data)
        rows = (as_vector(data),) if data and is_vector(data) else as_rows(data)
        if len(set(map(len, rows))) > 1:
            raise ValueError("GFMatrix rows differ in length")
        self._rows = rows
        self._cols = len(rows[0]) if rows else 0

    @classmethod
    def _of(cls, rows: Sequence[bytes], cols: int) -> "GFMatrix":
        """A matrix of rows already known to be ``bytes`` of width ``cols``."""
        matrix = cls.__new__(cls)
        matrix._rows, matrix._cols = tuple(rows), cols
        return matrix

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GFMatrix":
        """Return the all-zero matrix of the given shape."""
        return cls._of((bytes(cols),) * rows, cols)

    # -- accessors ---------------------------------------------------------

    @property
    def data(self) -> Tuple[bytes, ...]:
        """The rows, as a tuple of ``bytes``."""
        return self._rows

    @property
    def shape(self) -> Tuple[int, int]:
        """The (rows, cols) shape."""
        return len(self._rows), self._cols

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return self._cols

    def submatrix(self, row_indices: Sequence[int], col_indices=None) -> "GFMatrix":
        """Return the submatrix picking ``row_indices`` (and optionally columns)."""
        rows = [self._rows[index] for index in row_indices]
        if col_indices is None:
            return GFMatrix._of(rows, self._cols)
        cols = list(col_indices)
        return GFMatrix._of([bytes([row[col] for col in cols]) for row in rows], len(cols))

    def __getitem__(self, key):
        """``m[i]`` is row ``i``; ``m[i, j]`` is one entry."""
        if isinstance(key, tuple):
            row, col = key
            return self._rows[row][col]
        return self._rows[key]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GFMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __repr__(self) -> str:
        return f"GFMatrix(shape={self.shape})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GFMatrix") -> "GFMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in GF matrix addition")
        return GFMatrix._of([xor(a, b) for a, b in zip(self._rows, other._rows)], self._cols)

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        return self.matmul(other)

    def matmul(self, other: "GFMatrix") -> "GFMatrix":
        """Return the matrix product ``self @ other``."""
        if self._cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} x {other.shape}")
        if not other.rows:  # no rows to read the width from: all zero
            return GFMatrix.zeros(self.rows, other.cols)
        return GFMatrix._of(GF256.matmul(self._rows, other._rows), other.cols)

    def matvec(self, vector) -> bytes:
        """Multiply the matrix by a column vector."""
        vec = as_vector(vector)
        if len(vec) != self._cols:
            raise ValueError("vector length does not match matrix columns")
        return b"".join(GF256.matmul(self._rows, split_rows(vec, 1, len(vec))))

    def scale(self, scalar: int) -> "GFMatrix":
        """Multiply every entry by ``scalar``."""
        flat = GF256.scale_vec(scalar, b"".join(self._rows))
        return GFMatrix._of(split_rows(flat, self._cols, self.rows), self._cols)

    # -- elimination -------------------------------------------------------

    def _eliminate(self, augment: Sequence[bytes] | None = None) -> Tuple[List[bytes], List[int]]:
        """Run Gauss-Jordan elimination on the rows, each extended by the same
        row of ``augment`` if given.  Returns ``(reduced_rows, pivot_columns)``."""
        work = [row + extra for row, extra in zip(self._rows, augment or [b""] * self.rows)]
        pivot_cols: List[int] = []
        for col in range(self._cols):
            pivot_row = len(pivot_cols)
            # Find a pivot in this column at or below pivot_row.
            pivot = next((r for r in range(pivot_row, len(work)) if work[r][col]), None)
            if pivot is None:
                continue
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            # Normalise the pivot row, then eliminate the column from every
            # other row at once: one element-wise product of the factors (each
            # spread over a row, the pivot row's own zeroed) and the pivot row.
            top = work[pivot_row] = GF256.scale_vec(GF256.inv(work[pivot_row][col]),
                                                    work[pivot_row])
            factors = [0 if r == pivot_row else row[col] for r, row in enumerate(work)]
            spread = bytes([factor for factor in factors for _ in range(len(top))])
            flat = xor(b"".join(work), GF256.mul_vec(spread, top * len(work)))
            work = split_rows(flat, len(top), len(work))
            pivot_cols.append(col)
        return work, pivot_cols

    def rank(self) -> int:
        """Return the rank of the matrix."""
        return len(self._eliminate()[1])

    def inverse(self) -> "GFMatrix":
        """Return the inverse matrix.

        Raises :class:`SingularMatrixError` when the matrix is not square
        or not full rank.
        """
        size = self.rows
        if size != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        identity = [bytes(i) + b"\x01" + bytes(size - i - 1) for i in range(size)]
        work, pivots = self._eliminate(identity)
        if len(pivots) != size:
            raise SingularMatrixError("matrix is singular")
        return GFMatrix._of([row[size:] for row in work], size)

    def inverse_of_rows(self, rows: Sequence[int], width: int | None = None) -> Tuple[bytes, ...]:
        """Return the rows of the inverse of the square block ``self[rows, :width]``.

        ``width`` defaults to every column.  The result is a pure function of
        this matrix's entries and the selection, so it is memoised on exactly
        those (process-wide: code objects built from equal encoding matrices
        share the entries).  Raises :class:`SingularMatrixError` like
        :meth:`inverse`; failures are not memoised.  A row outside
        ``0..rows-1`` (a negative one would wrap) or a width outside
        ``0..cols`` is an :class:`IndexError`.
        """
        rows = tuple(map(as_index, rows))
        width = self._cols if width is None else as_index(width)
        if rows and not (0 <= min(rows) and max(rows) < self.rows):
            raise IndexError(f"rows {rows} out of range for {self.rows} rows")
        if not 0 <= width <= self._cols:
            raise IndexError(f"width {width} out of range for {self._cols} columns")
        return _inverse_of_rows(self._rows, rows, width)

    def solve(self, rhs):
        """Solve ``self @ x = rhs`` for a uniquely determined ``x``.

        ``rhs`` may be a vector (the result is ``bytes``) or a sequence of
        rows (the result is a tuple of rows).  Raises
        :class:`SingularMatrixError` when the system is not uniquely
        solvable.
        """
        vector_input = is_vector(rhs)
        if vector_input:
            rhs = as_vector(rhs)
            rhs = split_rows(rhs, 1, len(rhs))
        rhs_rows = as_rows(rhs)
        if len(rhs_rows) != self.rows:
            raise ValueError("rhs row count does not match matrix")
        if self.rows != self.cols:
            raise SingularMatrixError("solve requires a square system")
        solution = GF256.matmul(self.inverse().data, rhs_rows)
        return b"".join(solution) if vector_input else solution


@lru_cache(maxsize=_ROW_INVERSE_CACHE_SIZE)
def _inverse_of_rows(entries: Tuple[bytes, ...], rows: tuple, width: int) -> Tuple[bytes, ...]:
    return GFMatrix._of([entries[row][:width] for row in rows], width).inverse().data


__all__ = ["GFMatrix", "SingularMatrixError"]
