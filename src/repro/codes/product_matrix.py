"""Product-matrix regenerating codes (Rashmi, Shah and Kumar, 2011).

These are the exact-repair code constructions the paper relies on
(reference [25]).  Two constructions are implemented:

* :class:`ProductMatrixMBRCode` -- the minimum-bandwidth-regenerating
  construction for any ``(n, k, d)`` with ``k <= d <= n - 1``; this is the
  code the LDS algorithm uses in its back-end layer.
* :class:`ProductMatrixMSRCode` -- the minimum-storage-regenerating
  construction at ``d = 2k - 2``; used by the MBR-vs-MSR ablation
  (Remarks 1 and 2 of the paper).

Both codes share the product-matrix structure: node ``i`` stores the row
vector ``psi_i @ M`` where ``psi_i`` is row ``i`` of a fixed encoding
matrix and ``M`` is a message matrix filled with the payload symbols.  The
crucial property for LDS is that during repair a helper node computes its
helper symbol from its own content and the *identity of the failed node
only* -- it does not need to know which other nodes act as helpers
(Section II-c of the paper).

Every inverse either construction needs is that of a few rows of its fixed
encoding matrix, which :meth:`~repro.gf.matrix.GFMatrix.inverse_of_rows`
memoises: a helper set or a reader quorum is inverted once, not once per
stripe.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.codes.base import DecodingError, RegeneratingCode, RepairError
from repro.codes.regenerating import (
    RegeneratingCodeParameters,
    mbr_parameters,
    msr_parameters,
)
from repro.gf.builders import vandermonde_matrix
from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix, SingularMatrixError


def _repair_column(
    code: RegeneratingCode, failed_index: int, helper_data: Mapping[int, np.ndarray]
) -> np.ndarray:
    """Solve ``Psi_helpers @ x = received`` for one block of either construction.

    The helpers are the ``d`` lowest indices given (``failed_index`` apart);
    ``x`` is the message matrix times the vector every helper projected its
    element on (``M psi_f^t`` for MBR, ``M phi_f^t`` for MSR).  Indices are
    range-checked before any matrix is touched, so only row sets of the
    encoding matrix are ever inverted.
    """
    helpers = sorted(idx for idx in helper_data if idx != failed_index)
    if not 0 <= failed_index < code.n or (
        helpers and not (0 <= helpers[0] and helpers[-1] < code.n)
    ):
        raise RepairError("helper or failed index out of range")
    if len(helpers) < code.d:
        raise RepairError(
            f"repair requires d={code.d} distinct helpers, got {len(helpers)}"
        )
    helpers = helpers[: code.d]
    if any(np.size(helper_data[i]) != code.helper_size for i in helpers):
        raise RepairError("helper messages have the wrong length")
    received = np.array(
        [int(np.asarray(helper_data[i], dtype=np.uint8).reshape(-1)[0]) for i in helpers],
        dtype=np.uint8,
    )
    try:
        inverse = code.encoding_matrix.inverse_of_rows(helpers)  # d x d
    except SingularMatrixError as exc:  # pragma: no cover - defensive
        raise RepairError("helper rows are not invertible") from exc
    return GF256.matmul(inverse, received[:, None]).reshape(-1)


class ProductMatrixMBRCode(RegeneratingCode):
    """Exact-repair MBR code via the product-matrix construction.

    Parameters ``(n, k, d)`` with ``k <= d <= n - 1`` and ``n <= 255``.
    Per block: ``alpha = d`` symbols per node, ``beta = 1`` helper symbol,
    and file size ``B = k*d - k*(k-1)/2`` symbols.

    The message matrix is the symmetric ``d x d`` matrix::

        M = [[ S,   T ],
             [ T^t, 0 ]]

    where ``S`` is ``k x k`` symmetric (``k(k+1)/2`` payload symbols) and
    ``T`` is ``k x (d-k)`` (``k(d-k)`` payload symbols).  The encoding
    matrix ``Psi`` is an ``n x d`` Vandermonde matrix, so any ``d`` rows of
    ``Psi`` and any ``k`` rows of its first ``k`` columns are invertible.
    """

    def __init__(self, n: int, k: int, d: int) -> None:
        if not 1 <= k <= d <= n - 1:
            raise ValueError("PM-MBR requires 1 <= k <= d <= n - 1")
        if n > 255:
            raise ValueError("GF(2^8) product-matrix codes support at most n = 255")
        self.n = n
        self.k = k
        self.d = d
        self._alpha = d
        self._beta = 1
        self._file_size = k * d - (k * (k - 1)) // 2
        self.encoding_matrix: GFMatrix = vandermonde_matrix(n, d)

    # -- size properties ----------------------------------------------------

    @property
    def parameters(self) -> RegeneratingCodeParameters:
        """The ``{(n, k, d)(alpha, beta)}`` parameter tuple at the MBR point."""
        return mbr_parameters(self.n, self.k, self.d)

    @property
    def block_size(self) -> int:
        return self._file_size

    @property
    def element_size(self) -> int:
        return self._alpha

    @property
    def helper_size(self) -> int:
        return self._beta

    # -- message-matrix packing ----------------------------------------------

    def _message_matrix(self, block: np.ndarray) -> GFMatrix:
        """Pack ``B`` payload symbols into the symmetric d x d message matrix."""
        block = np.asarray(block, dtype=np.uint8)
        if block.size != self._file_size:
            raise ValueError(
                f"block must contain B={self._file_size} symbols, got {block.size}"
            )
        k, d = self.k, self.d
        matrix = np.zeros((d, d), dtype=np.uint8)
        cursor = 0
        # Fill the upper triangle (incl. diagonal) of the k x k block S.
        for i in range(k):
            for j in range(i, k):
                matrix[i, j] = block[cursor]
                matrix[j, i] = block[cursor]
                cursor += 1
        # Fill T (k x (d - k)) and its transpose.
        for i in range(k):
            for j in range(k, d):
                matrix[i, j] = block[cursor]
                matrix[j, i] = block[cursor]
                cursor += 1
        return GFMatrix(matrix)

    def _unpack_message_matrix(self, s_block: np.ndarray, t_block: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_message_matrix` given recovered S and T."""
        k, d = self.k, self.d
        block = np.zeros(self._file_size, dtype=np.uint8)
        cursor = 0
        for i in range(k):
            for j in range(i, k):
                block[cursor] = s_block[i, j]
                cursor += 1
        for i in range(k):
            for j in range(d - k):
                block[cursor] = t_block[i, j]
                cursor += 1
        return block

    # -- encode / decode ------------------------------------------------------

    def encode_block(self, block: np.ndarray) -> List[np.ndarray]:
        message = self._message_matrix(block)
        codeword = self.encoding_matrix.matmul(message)
        return [codeword.row(i) for i in range(self.n)]

    def decode_block(self, elements: Mapping[int, np.ndarray]) -> np.ndarray:
        if len(elements) < self.k:
            raise DecodingError(
                f"PM-MBR decode requires k={self.k} elements, got {len(elements)}"
            )
        indices = sorted(elements)[: self.k]
        for index in indices:
            if not 0 <= index < self.n:
                raise DecodingError(f"invalid element index {index}")
        k = self.k
        received = np.vstack(
            [np.asarray(elements[i], dtype=np.uint8).reshape(-1) for i in indices]
        )
        if received.shape[1] != self._alpha:
            raise DecodingError("coded elements have the wrong length")
        try:
            # Phi: the chosen rows of Psi, first k columns (k x k, invertible).
            phi_inverse = self.encoding_matrix.inverse_of_rows(indices, k)
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("selected rows are not decodable") from exc
        delta = self.encoding_matrix[indices, k:]  # k x (d - k)
        # The last d - k columns of the received matrix equal Phi @ T.
        t_block = GF256.matmul(phi_inverse, received[:, k:])
        # The first k columns equal Phi @ S + Delta @ T^t.
        phi_s = received[:, :k] ^ GF256.matmul(delta, t_block.T)
        s_block = GF256.matmul(phi_inverse, phi_s)
        return self._unpack_message_matrix(s_block, t_block)

    # -- repair ---------------------------------------------------------------

    def helper_symbols_block(
        self, helper_index: int, helper_element: np.ndarray, failed_index: int
    ) -> np.ndarray:
        if not 0 <= helper_index < self.n or not 0 <= failed_index < self.n:
            raise RepairError("helper or failed index out of range")
        element = np.asarray(helper_element, dtype=np.uint8).reshape(-1)
        if element.size != self._alpha:
            raise RepairError("helper element has the wrong length")
        failed_row = self.encoding_matrix[failed_index]
        # Helper j sends psi_j M psi_f^t, a single symbol.
        return np.array([GF256.dot(element, failed_row)], dtype=np.uint8)

    def repair_block(
        self, failed_index: int, helper_data: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        # Psi_helpers @ (M psi_f^t) = received  =>  M psi_f^t.  Because M is
        # symmetric, (M psi_f^t)^t == psi_f M, the failed element.
        return _repair_column(self, failed_index, helper_data)

    def __repr__(self) -> str:
        return f"ProductMatrixMBRCode(n={self.n}, k={self.k}, d={self.d})"


class ProductMatrixMSRCode(RegeneratingCode):
    """Exact-repair MSR code via the product-matrix construction (d = 2k - 2).

    Per block: ``alpha = k - 1``, ``beta = 1`` and ``B = k (k - 1)`` (so the
    code is storage-optimal, ``B = k * alpha``).  The message matrix is::

        M = [[ S1 ],
             [ S2 ]]

    with ``S1`` and ``S2`` symmetric ``(k-1) x (k-1)`` matrices.  The
    encoding matrix is ``Psi = [Phi, Lambda Phi]`` where ``Phi`` is an
    ``n x (k-1)`` Vandermonde matrix and ``Lambda`` a diagonal matrix of
    distinct non-zero constants; with ``lambda_i = x_i^{k-1}`` the whole
    ``Psi`` is an ``n x (2k-2)`` Vandermonde matrix.
    """

    def __init__(self, n: int, k: int) -> None:
        if k < 2:
            raise ValueError("PM-MSR requires k >= 2")
        d = 2 * k - 2
        if d > n - 1:
            raise ValueError("PM-MSR at d = 2k - 2 requires n >= 2k - 1")
        if n > 255:
            raise ValueError("GF(2^8) product-matrix codes support at most n = 255")
        self.n = n
        self.k = k
        self.d = d
        self._alpha = k - 1
        self._beta = 1
        self._file_size = k * (k - 1)
        # Full Vandermonde Psi (n x d); Phi is its first k-1 columns and
        # lambda_i = x_i^{k-1} where x_i is the i-th evaluation point.
        self.encoding_matrix: GFMatrix = vandermonde_matrix(n, d)
        #: The n x (k-1) matrix Phi (first k-1 columns of Psi).
        self.phi: GFMatrix = self.encoding_matrix.submatrix(range(n), range(k - 1))
        self._points = [GF256.exp(i) for i in range(n)]
        self._lambdas = [GF256.pow(x, k - 1) for x in self._points]
        if len(set(self._lambdas)) != n:
            raise ValueError("encoding points do not give distinct lambda values")

    # -- size properties ------------------------------------------------------

    @property
    def parameters(self) -> RegeneratingCodeParameters:
        """The ``{(n, k, d)(alpha, beta)}`` parameter tuple at the MSR point."""
        return msr_parameters(self.n, self.k, self.d)

    @property
    def block_size(self) -> int:
        return self._file_size

    @property
    def element_size(self) -> int:
        return self._alpha

    @property
    def helper_size(self) -> int:
        return self._beta

    # -- message-matrix packing ------------------------------------------------

    def _symmetric_from_symbols(self, symbols: np.ndarray, size: int) -> np.ndarray:
        matrix = np.zeros((size, size), dtype=np.uint8)
        cursor = 0
        for i in range(size):
            for j in range(i, size):
                matrix[i, j] = symbols[cursor]
                matrix[j, i] = symbols[cursor]
                cursor += 1
        return matrix

    def _symbols_from_symmetric(self, matrix: np.ndarray) -> List[int]:
        size = matrix.shape[0]
        symbols = []
        for i in range(size):
            for j in range(i, size):
                symbols.append(int(matrix[i, j]))
        return symbols

    def _message_matrix(self, block: np.ndarray) -> GFMatrix:
        block = np.asarray(block, dtype=np.uint8)
        if block.size != self._file_size:
            raise ValueError(
                f"block must contain B={self._file_size} symbols, got {block.size}"
            )
        half = (self.k * (self.k - 1)) // 2
        s1 = self._symmetric_from_symbols(block[:half], self.k - 1)
        s2 = self._symmetric_from_symbols(block[half:], self.k - 1)
        return GFMatrix(np.vstack([s1, s2]))

    # -- encode / decode ---------------------------------------------------------

    def encode_block(self, block: np.ndarray) -> List[np.ndarray]:
        message = self._message_matrix(block)
        codeword = self.encoding_matrix.matmul(message)
        return [codeword.row(i) for i in range(self.n)]

    def decode_block(self, elements: Mapping[int, np.ndarray]) -> np.ndarray:
        if len(elements) < self.k:
            raise DecodingError(
                f"PM-MSR decode requires k={self.k} elements, got {len(elements)}"
            )
        indices = sorted(elements)[: self.k]
        for index in indices:
            if not 0 <= index < self.n:
                raise DecodingError(f"invalid element index {index}")
        k = self.k
        alpha = self._alpha
        received = GFMatrix(
            np.vstack(
                [np.asarray(elements[i], dtype=np.uint8).reshape(-1) for i in indices]
            )
        )
        if received.cols != alpha:
            raise DecodingError("coded elements have the wrong length")
        phi_dc = self.phi.submatrix(indices)  # k x (k-1)
        lambdas = [self._lambdas[i] for i in indices]
        # C = Phi_DC S1 Phi_DC^t + Lambda_DC Phi_DC S2 Phi_DC^t = P + Lambda Q.
        c_matrix = received.matmul(phi_dc.transpose())  # k x k
        p_matrix = np.zeros((k, k), dtype=np.uint8)
        q_matrix = np.zeros((k, k), dtype=np.uint8)
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                # Solve P_ij + lambda_i Q_ij = C_ij ; P_ij + lambda_j Q_ij = C_ji.
                numerator = GF256.add(int(c_matrix[i, j]), int(c_matrix[j, i]))
                denominator = GF256.add(lambdas[i], lambdas[j])
                if denominator == 0:
                    raise DecodingError("lambda values are not distinct")
                q_value = GF256.div(numerator, denominator)
                p_value = GF256.add(int(c_matrix[i, j]), GF256.mul(lambdas[i], q_value))
                q_matrix[i, j] = q_value
                p_matrix[i, j] = p_value
        try:
            s1 = self._recover_symmetric(p_matrix, indices)
            s2 = self._recover_symmetric(q_matrix, indices)
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("PM-MSR decoding matrix is singular") from exc
        half = (k * (k - 1)) // 2
        block = np.zeros(self._file_size, dtype=np.uint8)
        block[:half] = self._symbols_from_symmetric(s1)
        block[half:] = self._symbols_from_symmetric(s2)
        return block

    def _recover_symmetric(self, off_diagonal: np.ndarray, indices: List[int]) -> np.ndarray:
        """Recover a symmetric S from the off-diagonal of Phi_DC S Phi_DC^t.

        ``indices`` are the rows of ``Phi`` that make up ``Phi_DC``.  Row
        ``i`` of the product restricted to columns ``j != i`` equals
        ``phi_i S`` multiplied by the (k-1) x (k-1) invertible matrix formed
        by the other rows of ``Phi_DC``; inverting it yields ``phi_i S`` for
        any i, and stacking those of the first k-1 nodes (any k-1 rows of
        Phi_DC are invertible) recovers S.
        """
        k = self.k
        rows_phi_s = np.zeros((k - 1, k - 1), dtype=np.uint8)
        for i in range(k - 1):
            others = [j for j in range(k) if j != i]
            # phi_others @ (S phi_i^t) = the values phi_i S phi_j^t for j != i
            # =>  S phi_i^t, i.e. (phi_i S)^t.
            inverse = self.phi.inverse_of_rows([indices[j] for j in others])
            rows_phi_s[i] = GF256.matmul(inverse, off_diagonal[i, others][:, None]).reshape(-1)
        inverse = self.phi.inverse_of_rows(indices[: k - 1])
        return GF256.matmul(inverse, rows_phi_s)

    # -- repair --------------------------------------------------------------------

    def helper_symbols_block(
        self, helper_index: int, helper_element: np.ndarray, failed_index: int
    ) -> np.ndarray:
        if not 0 <= helper_index < self.n or not 0 <= failed_index < self.n:
            raise RepairError("helper or failed index out of range")
        element = np.asarray(helper_element, dtype=np.uint8).reshape(-1)
        if element.size != self._alpha:
            raise RepairError("helper element has the wrong length")
        failed_phi = self.phi[failed_index]
        # Helper j sends psi_j M phi_f^t, a single symbol.
        return np.array([GF256.dot(element, failed_phi)], dtype=np.uint8)

    def repair_block(
        self, failed_index: int, helper_data: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        column = _repair_column(self, failed_index, helper_data)  # M phi_f^t, length d = 2(k-1)
        half = self.k - 1
        s1_phi = column[:half]
        s2_phi = column[half:]
        lam = self._lambdas[failed_index]
        # Node content: phi_f S1 + lambda_f phi_f S2 = (S1 phi_f^t)^t + lambda_f (S2 phi_f^t)^t.
        return np.bitwise_xor(s1_phi, GF256.scale_vec(lam, s2_phi))

    def __repr__(self) -> str:
        return f"ProductMatrixMSRCode(n={self.n}, k={self.k}, d={self.d})"


__all__ = ["ProductMatrixMBRCode", "ProductMatrixMSRCode"]
