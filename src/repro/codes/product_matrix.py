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

from abc import abstractmethod
from typing import List, Sequence

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


def _symmetric_index(size: int, first: int) -> np.ndarray:
    """Payload positions ``first, first + 1, ...`` laid out as a symmetric
    ``size x size`` matrix, upper triangle row by row."""
    index = np.zeros((size, size), dtype=np.intp)
    upper = np.triu_indices(size)
    index[upper] = np.arange(first, first + upper[0].size)
    return np.maximum(index, index.T)


class _ProductMatrixCode(RegeneratingCode):
    """What the two constructions share.

    Node ``i`` stores ``psi_i @ M_s`` for every stripe ``s``, with ``Psi`` an
    ``n x d`` Vandermonde matrix and ``M_s`` the ``d x alpha`` message matrix
    of the stripe, so a value of ``S`` stripes is the single product
    ``Psi @ [M_1 | ... | M_S]``.  Helper ``j`` projects its element on the
    first ``alpha`` entries ``v_f`` of ``psi_f`` (``beta = 1``), and a repair
    solves ``Psi_helpers @ x_s = received_s`` for ``x_s = M_s v_f`` in one
    product over all stripes.  A subclass supplies the layout of ``M`` (an
    index map), how ``x`` folds into the failed node's element, and decode.

    Args:
        message_index: ``d x alpha``; entry ``(i, j)`` is the position in the
            block of the payload symbol ``M[i, j]``, or ``file_size`` where
            ``M`` is identically zero.
    """

    def __init__(self, n: int, k: int, d: int, file_size: int,
                 message_index: np.ndarray) -> None:
        if n > 255:
            raise ValueError("GF(2^8) product-matrix codes support at most n = 255")
        self.n = n
        self.k = k
        self.d = d
        self._alpha = message_index.shape[1]
        self._file_size = file_size
        self.encoding_matrix: GFMatrix = vandermonde_matrix(n, d)
        self._message_index = message_index
        # Where each payload symbol first sits in M (row-major), to unpack it.
        _, first = np.unique(message_index, return_index=True)
        self._payload_entries = np.unravel_index(first[:file_size], message_index.shape)
        #: v_f for every f, as the columns of an alpha x n matrix.
        self._helper_columns = self.encoding_matrix.data[:, : self._alpha].T

    # -- size properties ----------------------------------------------------

    @property
    def block_size(self) -> int:
        return self._file_size

    @property
    def element_size(self) -> int:
        return self._alpha

    @property
    def helper_size(self) -> int:
        return 1

    # -- message-matrix packing ----------------------------------------------

    def _message_matrices(self, stripes: np.ndarray) -> np.ndarray:
        """Pack ``(S, B)`` payload stripes into their ``S`` message matrices,
        a ``(d, S, alpha)`` array, with one gather (slot ``B`` holds zero)."""
        slots = np.zeros((len(stripes), self._file_size + 1), dtype=np.uint8)
        slots[:, :-1] = stripes
        return slots[:, self._message_index].transpose(1, 0, 2)

    def _payload_of(self, matrices: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_message_matrices`; the leading rows of ``M``
        suffice as long as they hold every payload symbol."""
        rows, cols = self._payload_entries
        return matrices[rows, :, cols].T

    # -- encode / repair -------------------------------------------------------

    def _encode_stripes(self, stripes: np.ndarray) -> np.ndarray:
        message = self._message_matrices(stripes).reshape(self.d, -1)
        coded = GF256.matmul(self.encoding_matrix.data, message)
        return coded.reshape(self.n, len(stripes), self._alpha)

    def _helper_stripes(self, element: np.ndarray, failed_indices: Sequence[int]) -> np.ndarray:
        # Helper j sends psi_j M_s v_f, a single symbol per stripe and target.
        return GF256.matmul(element, self._helper_columns[:, list(failed_indices)])

    def _repair_stripes(
        self, failed_index: int, helpers: List[int], received: np.ndarray
    ) -> np.ndarray:
        try:
            inverse = self.encoding_matrix.inverse_of_rows(helpers)  # d x d
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise RepairError("helper rows are not invertible") from exc
        # Column s is M_s v_f.
        columns = GF256.matmul(inverse, received.reshape(self.d, -1))
        return self._element_from_columns(failed_index, columns).T

    @abstractmethod
    def _element_from_columns(self, failed_index: int, columns: np.ndarray) -> np.ndarray:
        """Fold the ``d x S`` repair columns ``M_s v_f`` into ``(psi_f M_s)^t``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, k={self.k}, d={self.d})"


class ProductMatrixMBRCode(_ProductMatrixCode):
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
        file_size = k * d - (k * (k - 1)) // 2
        index = np.full((d, d), file_size, dtype=np.intp)  # the zero block
        index[:k, :k] = _symmetric_index(k, 0)
        index[:k, k:] = np.arange(file_size - k * (d - k), file_size).reshape(k, d - k)
        index[k:, :k] = index[:k, k:].T
        super().__init__(n, k, d, file_size, index)

    @property
    def parameters(self) -> RegeneratingCodeParameters:
        """The ``{(n, k, d)(alpha, beta)}`` parameter tuple at the MBR point."""
        return mbr_parameters(self.n, self.k, self.d)

    def _decode_stripes(self, indices: List[int], received: np.ndarray) -> np.ndarray:
        k, extra, count = self.k, self.d - self.k, received.shape[1]
        try:
            # Phi: the chosen rows of Psi, first k columns (k x k, invertible).
            phi_inverse = self.encoding_matrix.inverse_of_rows(indices, k)
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("selected rows are not decodable") from exc
        delta = self.encoding_matrix[indices, k:]  # k x (d - k)
        # The last d - k columns of each received matrix equal Phi @ T_s.
        t_blocks = GF256.matmul(phi_inverse, received[:, :, k:].reshape(k, count * extra))
        t_blocks = t_blocks.reshape(k, count, extra)
        # The first k columns equal Phi @ S_s + Delta @ T_s^t.
        delta_t = GF256.matmul(delta, t_blocks.transpose(2, 1, 0).reshape(extra, count * k))
        phi_s = received[:, :, :k].reshape(k, count * k) ^ delta_t
        s_blocks = GF256.matmul(phi_inverse, phi_s).reshape(k, count, k)
        return self._payload_of(np.concatenate([s_blocks, t_blocks], axis=2))

    def _element_from_columns(self, failed_index: int, columns: np.ndarray) -> np.ndarray:
        # M is symmetric, so (M psi_f^t)^t == psi_f M, the failed element.
        return columns


class ProductMatrixMSRCode(_ProductMatrixCode):
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
        half = (k * (k - 1)) // 2
        index = np.vstack([_symmetric_index(k - 1, 0), _symmetric_index(k - 1, half)])
        super().__init__(n, k, d, 2 * half, index)
        # Phi is the first k - 1 columns of Psi; lambda_i = x_i^{k-1} is the next.
        self._lambdas = self.encoding_matrix.data[:, k - 1]
        if len(set(self._lambdas.tolist())) != n:
            raise ValueError("encoding points do not give distinct lambda values")
        #: 1 / (lambda_i + lambda_j); the diagonal (never used) reads 0.
        inverses = np.array([0] + [GF256.inv(x) for x in range(1, 256)], dtype=np.uint8)
        self._lambda_gap_inverses = inverses[self._lambdas[:, None] ^ self._lambdas]

    @property
    def parameters(self) -> RegeneratingCodeParameters:
        """The ``{(n, k, d)(alpha, beta)}`` parameter tuple at the MSR point."""
        return msr_parameters(self.n, self.k, self.d)

    def _decode_stripes(self, indices: List[int], received: np.ndarray) -> np.ndarray:
        k, alpha, count = self.k, self._alpha, received.shape[1]
        phi_dc = self.encoding_matrix[indices, :alpha]  # k x (k-1)
        # C_s = Phi_DC S1 Phi_DC^t + Lambda_DC Phi_DC S2 Phi_DC^t = P_s + Lambda Q_s,
        # held as c[i, s, j].
        c = GF256.matmul(received.reshape(-1, alpha), phi_dc.T).reshape(k, count, k)
        # Off the diagonal, P_ij + lambda_i Q_ij = C_ij and P_ij + lambda_j Q_ij = C_ji.
        gaps = self._lambda_gap_inverses[np.ix_(indices, indices)]
        q = GF256.mul_vec(c ^ c.transpose(2, 1, 0), gaps[:, None, :])
        p = c ^ GF256.mul_vec(self._lambdas[indices][:, None, None], q)
        try:
            s1 = self._recover_symmetric(p, indices)
            s2 = self._recover_symmetric(q, indices)
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("PM-MSR decoding matrix is singular") from exc
        return self._payload_of(np.concatenate([s1, s2]))

    def _recover_symmetric(self, off_diagonal: np.ndarray, indices: List[int]) -> np.ndarray:
        """Recover every stripe's symmetric S from the off-diagonal of
        ``Phi_DC S Phi_DC^t``, given as ``[i, s, j]``; returns ``[a, s, b]``.

        ``indices`` are the rows of ``Phi`` that make up ``Phi_DC``.  Row
        ``i`` of the product restricted to columns ``j != i`` equals
        ``phi_i S`` multiplied by the (k-1) x (k-1) invertible matrix formed
        by the other rows of ``Phi_DC``; inverting it yields ``phi_i S`` for
        any i, and stacking those of the first k-1 nodes (any k-1 rows of
        Phi_DC are invertible) recovers S.
        """
        k, alpha, count = self.k, self._alpha, off_diagonal.shape[1]
        rows_phi_s = np.empty((alpha, alpha, count), dtype=np.uint8)
        for i in range(alpha):
            others = [j for j in range(k) if j != i]
            # phi_others @ (S phi_i^t) = the values phi_i S phi_j^t for j != i
            # =>  S phi_i^t, i.e. (phi_i S)^t, one column per stripe.
            inverse = self.encoding_matrix.inverse_of_rows(
                [indices[j] for j in others], alpha)
            rows_phi_s[i] = GF256.matmul(inverse, off_diagonal[i][:, others].T)
        inverse = self.encoding_matrix.inverse_of_rows(indices[:alpha], alpha)
        symmetric = GF256.matmul(inverse, rows_phi_s.reshape(alpha, -1))
        return symmetric.reshape(alpha, alpha, count).transpose(0, 2, 1)

    def _element_from_columns(self, failed_index: int, columns: np.ndarray) -> np.ndarray:
        # Node content: phi_f S1 + lambda_f phi_f S2
        #             = (S1 phi_f^t)^t + lambda_f (S2 phi_f^t)^t.
        half = self._alpha
        return columns[:half] ^ GF256.scale_vec(self._lambdas[failed_index], columns[half:])


__all__ = ["ProductMatrixMBRCode", "ProductMatrixMSRCode"]
