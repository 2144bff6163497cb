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

Every product is one :meth:`~repro.gf.gf256.GF256.matmul` over all the
stripes of a value, on rows that run over the stripes: column ``c`` of an
element is ``element[c::alpha]``, and a per-stripe matrix is held row by
row, each row its columns one after another.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, List, Sequence, Tuple

from repro.codes.base import DecodingError, RegeneratingCode, RepairError, interleave
from repro.codes.regenerating import (
    RegeneratingCodeParameters,
    mbr_parameters,
    msr_parameters,
)
from repro.gf.builders import vandermonde_matrix
from repro.gf.gf256 import GF256, split_rows, xor
from repro.gf.matrix import GFMatrix, SingularMatrixError


def _symmetric_index(size: int, first: int) -> List[List[int]]:
    """Payload positions ``first, first + 1, ...`` laid out as a symmetric
    ``size x size`` matrix, upper triangle row by row."""
    index = [[0] * size for _ in range(size)]
    upper = [(i, j) for i in range(size) for j in range(i, size)]
    for position, (i, j) in enumerate(upper, first):
        index[i][j] = index[j][i] = position
    return index


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
        message_index: ``d`` rows of ``alpha``; entry ``(i, j)`` is the
            position in the block of the payload symbol ``M[i, j]``, or
            ``file_size`` where ``M`` is identically zero.
    """

    def __init__(self, n: int, k: int, d: int, file_size: int,
                 message_index: List[List[int]]) -> None:
        if n > 255:
            raise ValueError("GF(2^8) product-matrix codes support at most n = 255")
        self.n, self.k, self.d = n, k, d
        self._alpha = len(message_index[0])
        self._file_size = file_size
        self.encoding_matrix: GFMatrix = vandermonde_matrix(n, d)
        self._psi = self.encoding_matrix.data
        self._message_index = message_index
        # Where each payload symbol first sits in M (row-major), to unpack it.
        first = {}
        for row, positions in enumerate(message_index):
            for col, position in enumerate(positions):
                first.setdefault(position, (row, col))
        self._payload_entries = [first[position] for position in range(file_size)]
        #: v_f for every f: the first alpha entries of psi_f.
        self._projections = tuple(row[: self._alpha] for row in self._psi)
        # One gather each per stripe count, for the last 64 counts seen.
        self._message_gather = lru_cache(64)(self._gather_message)
        self._payload_gather = lru_cache(64)(self._gather_payload)

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

    # A gather picks one position too many (then dropped): itemgetter of one is no tuple.

    def _gather_message(self, stripes: int) -> Callable[[bytes], tuple]:
        """Picks, out of a padded payload followed by one zero, the ``d`` rows
        of ``[M_1 | ... | M_S]`` one after another, each stripe-major."""
        size, zero = self._file_size, stripes * self._file_size
        return itemgetter(*[zero if position == size else stripe * size + position
                            for row in self._message_index
                            for stripe in range(stripes) for position in row], zero)

    def _gather_payload(self, stripes: int) -> Callable[[bytes], tuple]:
        """Picks the padded payload out of the leading rows of ``M``, joined
        (each row column by column, a column as long as the stripe count)."""
        row_length = self._alpha * stripes
        return itemgetter(*[row * row_length + col * stripes + stripe
                            for stripe in range(stripes)
                            for row, col in self._payload_entries], 0)

    def _message_rows(self, payload: bytes, stripes: int) -> List[bytes]:
        """The ``d`` rows of ``[M_1 | ... | M_S]``, one gather."""
        message = bytes(self._message_gather(stripes)(payload + b"\0"))
        return split_rows(message, stripes * self._alpha, self.d)

    def _payload_of(self, rows: Sequence[bytes], stripes: int) -> bytes:
        """The payload back out of the leading rows of ``M``, each column by
        column; they suffice as long as they hold every payload symbol."""
        return bytes(self._payload_gather(stripes)(b"".join(rows))[:-1])

    # -- encode / repair -------------------------------------------------------

    def _encode_stripes(self, payload: bytes, stripes: int) -> Tuple[bytes, ...]:
        return GF256.matmul(self._psi, self._message_rows(payload, stripes))

    def _helper_stripes(self, element: bytes, failed_indices: Sequence[int],
                        stripes: int) -> Tuple[bytes, ...]:
        # Helper j sends psi_j M_s v_f, a single symbol per stripe and target.
        return GF256.matmul([self._projections[failed] for failed in failed_indices],
                            [element[column::self._alpha] for column in range(self._alpha)])

    def _repair_stripes(self, failed_index: int, helpers: List[int],
                        received: List[bytes], stripes: int) -> bytes:
        try:
            inverse = self.encoding_matrix.inverse_of_rows(helpers)  # d x d
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise RepairError("helper rows are not invertible") from exc
        # Row r is the entry r of M_s v_f, over the stripes.
        columns = GF256.matmul(inverse, received)
        return interleave(self._element_from_columns(failed_index, columns, stripes))

    def _element_from_columns(self, failed_index: int, columns: Sequence[bytes],
                              stripes: int) -> Sequence[bytes]:
        """Fold the ``d`` repair rows ``M_s v_f`` into the ``alpha`` columns of
        ``psi_f M_s``.  For MBR, M is symmetric, so (M psi_f^t)^t == psi_f M."""
        return columns

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
        index = [[file_size] * d for _ in range(d)]  # the zero block stays
        for row, positions in zip(index, _symmetric_index(k, 0)):
            row[:k] = positions
        t_entries = [(i, j) for i in range(k) for j in range(k, d)]  # T row by row
        for position, (i, j) in enumerate(t_entries, file_size - k * (d - k)):
            index[i][j] = index[j][i] = position
        super().__init__(n, k, d, file_size, index)

    @property
    def parameters(self) -> RegeneratingCodeParameters:
        """The ``{(n, k, d)(alpha, beta)}`` parameter tuple at the MBR point."""
        return mbr_parameters(self.n, self.k, self.d)

    def _decode_stripes(self, indices: List[int], received: List[bytes],
                        stripes: int) -> bytes:
        k, d = self.k, self.d
        try:
            # Phi: the chosen rows of Psi, first k columns (k x k, invertible).
            phi_inverse = self.encoding_matrix.inverse_of_rows(indices, k)
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("selected rows are not decodable") from exc
        delta = [self._psi[index][k:] for index in indices]  # k x (d - k)
        # The last d - k columns of each received matrix equal Phi @ T_s.
        t_rows = GF256.matmul(phi_inverse, [b"".join([element[c::d] for c in range(k, d)])
                                            for element in received])
        # The first k columns equal Phi @ S_s + Delta @ T_s^t.
        t_columns = [b"".join([row[e * stripes:(e + 1) * stripes] for row in t_rows])
                     for e in range(d - k)]  # the rows of T_s^t
        delta_t = GF256.matmul(delta, t_columns)
        phi_s = [xor(b"".join([element[c::d] for c in range(k)]), product)
                 for element, product in zip(received, delta_t)]
        s_rows = GF256.matmul(phi_inverse, phi_s)
        return self._payload_of([s + t for s, t in zip(s_rows, t_rows)], stripes)


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
        index = _symmetric_index(k - 1, 0) + _symmetric_index(k - 1, half)
        super().__init__(n, k, d, 2 * half, index)
        # Phi is the first k - 1 columns of Psi; lambda_i = x_i^{k-1} is the next.
        self._lambdas = bytes([row[k - 1] for row in self._psi])
        if len(set(self._lambdas)) != n:
            raise ValueError("encoding points do not give distinct lambda values")
        #: 1 / (lambda_i + lambda_j); the diagonal (never used) reads 0.
        inverses = bytes([0] + [GF256.inv(x) for x in range(1, 256)])
        self._lambda_gap_inverses = [bytes([a ^ b for b in self._lambdas]).translate(inverses)
                                     for a in self._lambdas]

    @property
    def parameters(self) -> RegeneratingCodeParameters:
        """The ``{(n, k, d)(alpha, beta)}`` parameter tuple at the MSR point."""
        return msr_parameters(self.n, self.k, self.d)

    def _decode_stripes(self, indices: List[int], received: List[bytes],
                        stripes: int) -> bytes:
        k, alpha = self.k, self._alpha
        phi_dc = [self._psi[index][:alpha] for index in indices]  # k x (k-1)
        # C_s = Phi_DC S1 Phi_DC^t + Lambda_DC Phi_DC S2 Phi_DC^t = P_s + Lambda Q_s;
        # row j of the product holds the blocks C_s[i, j] for i = 0..k-1.
        c_t = GF256.matmul(phi_dc, [b"".join([element[a::alpha] for element in received])
                                    for a in range(alpha)])
        c = b"".join([row[i * stripes:(i + 1) * stripes] for i in range(k) for row in c_t])
        # Off the diagonal, P_ij + lambda_i Q_ij = C_ij and P_ij + lambda_j Q_ij = C_ji;
        # c holds the blocks [i, j] (over the stripes) in that order, c_t [j, i].
        gaps = bytes([self._lambda_gap_inverses[i][j] for i in indices for j in indices
                      for _ in range(stripes)])
        q = GF256.mul_vec(gaps, xor(c, b"".join(c_t)))
        lambdas = bytes([self._lambdas[i] for i in indices for _ in range(k * stripes)])
        p = xor(c, GF256.mul_vec(lambdas, q))
        try:
            s1 = self._recover_symmetric(p, indices, stripes)
            s2 = self._recover_symmetric(q, indices, stripes)
        except SingularMatrixError as exc:  # pragma: no cover - defensive
            raise DecodingError("PM-MSR decoding matrix is singular") from exc
        return self._payload_of(s1 + s2, stripes)

    def _recover_symmetric(self, off_diagonal: bytes, indices: List[int],
                           stripes: int) -> List[bytes]:
        """Recover every stripe's symmetric S from the off-diagonal of
        ``Phi_DC S Phi_DC^t``, given as the blocks ``[i, j]`` (each over the
        stripes); returns S's rows, each column by column.

        ``indices`` are the rows of ``Phi`` that make up ``Phi_DC``.  Row
        ``i`` of the product restricted to columns ``j != i`` equals
        ``phi_i S`` multiplied by the (k-1) x (k-1) invertible matrix formed
        by the other rows of ``Phi_DC``; inverting it yields ``phi_i S`` for
        any i, and stacking those of the first k-1 nodes (any k-1 rows of
        Phi_DC are invertible) recovers S.
        """
        k, alpha = self.k, self._alpha
        rows_phi_s = []
        for i in range(alpha):
            others = [j for j in range(k) if j != i]
            # phi_others @ (S phi_i^t) = the values phi_i S phi_j^t for j != i
            # =>  S phi_i^t, i.e. (phi_i S)^t, one column per stripe.
            inverse = self.encoding_matrix.inverse_of_rows(
                [indices[j] for j in others], alpha)
            at = i * k * stripes
            rows_phi_s.append(b"".join(GF256.matmul(inverse, [
                off_diagonal[at + j * stripes:at + (j + 1) * stripes] for j in others])))
        inverse = self.encoding_matrix.inverse_of_rows(indices[:alpha], alpha)
        return list(GF256.matmul(inverse, rows_phi_s))

    def _element_from_columns(self, failed_index: int, columns: Sequence[bytes],
                              stripes: int) -> Sequence[bytes]:
        # Node content: phi_f S1 + lambda_f phi_f S2
        #             = (S1 phi_f^t)^t + lambda_f (S2 phi_f^t)^t.
        half = self._alpha
        lower = GF256.scale_vec(self._lambdas[failed_index], b"".join(columns[half:]))
        return split_rows(xor(b"".join(columns[:half]), lower), stripes, half)


__all__ = ["ProductMatrixMBRCode", "ProductMatrixMSRCode"]
