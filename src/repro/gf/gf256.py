"""Arithmetic over the finite field GF(2^8).

The field is constructed with the primitive polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B, the polynomial used by AES) and the
generator element 3, which is primitive for this polynomial.  Scalar
multiplication and division use logarithm / exponential lookup tables;
every vectorised product is one gather from a precomputed 256 x 256
product table (``_MUL[a, b] == a * b``), so no zero masking and no
widening to a larger integer type is needed.

All elements are represented as Python ints (or numpy ``uint8`` arrays) in
the range ``0..255``.  Addition and subtraction are both XOR.
"""

from __future__ import annotations

import numpy as np

#: The field size.
FIELD_SIZE = 256

#: Primitive (reduction) polynomial, represented as an integer bit mask.
PRIMITIVE_POLY = 0x11B

#: Generator element used to build the log/exp tables.
GENERATOR = 0x03


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build the exponential and logarithm tables for GF(2^8).

    Returns a pair ``(exp_table, log_table)`` where ``exp_table`` has 512
    entries (doubled to avoid a modular reduction in multiplication) and
    ``log_table`` has 256 entries with ``log_table[0]`` unused.
    """
    exp_table = np.zeros(512, dtype=np.int32)
    log_table = np.zeros(256, dtype=np.int32)

    value = 1
    for exponent in range(255):
        exp_table[exponent] = value
        log_table[value] = exponent
        # Multiply by the generator (3) in GF(2^8): value * 3 = value * 2 + value.
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= PRIMITIVE_POLY
        value = doubled ^ value
    for exponent in range(255, 512):
        exp_table[exponent] = exp_table[exponent - 255]
    return exp_table, log_table


_EXP_TABLE, _LOG_TABLE = _build_tables()


def _build_inverse_table() -> np.ndarray:
    """Precompute multiplicative inverses so ``inv`` is one table lookup.

    Inversion sits in the decode/repair hot path (every Gaussian-elimination
    pivot normalisation calls it); the direct table replaces the
    log-negate-exp sequence with a single indexed load.  Index 0 is unused
    (zero has no inverse).
    """
    inverse = np.zeros(256, dtype=np.int32)
    values = np.arange(1, 256)
    inverse[1:] = _EXP_TABLE[255 - _LOG_TABLE[values]]
    return inverse


_INV_TABLE = _build_inverse_table()


def _build_product_table() -> np.ndarray:
    """Precompute every product: ``table[a, b] == a * b`` (64 KiB of uint8).

    Row and column 0 stay zero; the rest is one gather of
    ``exp[log a + log b]`` over the 255 x 255 non-zero pairs.
    """
    logs = _LOG_TABLE[1:]
    table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
    table[1:, 1:] = _EXP_TABLE[logs[:, None] + logs[None, :]]
    return table


_MUL = _build_product_table()


def _element(value) -> int:
    """Return ``value`` as an int, rejecting anything outside ``0..255``."""
    value = int(value)
    if not 0 <= value < FIELD_SIZE:
        raise ValueError(f"{value} is not a GF(2^8) element (0..255)")
    return value


class GF256:
    """Namespace of scalar and vectorised GF(2^8) operations.

    The class is stateless; all methods are class methods so the field can
    be passed around as an object (e.g. ``code.field.mul(a, b)``) without
    instantiating anything.
    """

    order = FIELD_SIZE
    primitive_poly = PRIMITIVE_POLY
    generator = GENERATOR

    # -- scalar operations -------------------------------------------------

    @classmethod
    def add(cls, a: int, b: int) -> int:
        """Return ``a + b`` in GF(2^8) (XOR)."""
        return (int(a) ^ int(b)) & 0xFF

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        """Return the product ``a * b`` in GF(2^8)."""
        a = _element(a)
        b = _element(b)
        if a == 0 or b == 0:
            return 0
        return int(_EXP_TABLE[_LOG_TABLE[a] + _LOG_TABLE[b]])

    @classmethod
    def inv(cls, a: int) -> int:
        """Return the multiplicative inverse of ``a``.

        Raises :class:`ZeroDivisionError` for ``a == 0``.
        """
        a = _element(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(_INV_TABLE[a])

    @classmethod
    def exp(cls, exponent: int) -> int:
        """Return ``generator ** exponent``."""
        return int(_EXP_TABLE[exponent % 255])

    @classmethod
    def log(cls, a: int) -> int:
        """Return the discrete log of ``a`` with respect to the generator."""
        a = _element(a)
        if a == 0:
            raise ValueError("zero has no discrete logarithm")
        return int(_LOG_TABLE[a])

    # -- vectorised operations --------------------------------------------

    @classmethod
    def as_array(cls, data) -> np.ndarray:
        """Coerce ``data`` (bytes, list, array) into a uint8 numpy array."""
        if isinstance(data, (bytes, bytearray)):
            return np.frombuffer(bytes(data), dtype=np.uint8).copy()
        return np.asarray(data, dtype=np.uint8)

    @classmethod
    def add_vec(cls, a, b) -> np.ndarray:
        """Element-wise addition of two vectors (XOR)."""
        return np.bitwise_xor(cls.as_array(a), cls.as_array(b))

    @classmethod
    def mul_vec(cls, a, b) -> np.ndarray:
        """Element-wise product of two equally shaped (or broadcastable) arrays."""
        return _MUL[cls.as_array(a), cls.as_array(b)]

    @classmethod
    def scale_vec(cls, scalar: int, vector) -> np.ndarray:
        """Multiply every element of ``vector`` by ``scalar``."""
        return _MUL[_element(scalar)][cls.as_array(vector)]

    @classmethod
    def dot(cls, a, b) -> int:
        """Inner product of two vectors in GF(2^8)."""
        return int(np.bitwise_xor.reduce(cls.mul_vec(a, b)))

    @classmethod
    def matmul(cls, a, b) -> np.ndarray:
        """Matrix product of two 2-D uint8 arrays over GF(2^8).

        One gather of every ``a[i, j] * b[j, c]`` product from the
        256 x 256 table, then one XOR-reduce over the inner dimension.
        """
        a_arr = cls.as_array(a)
        b_arr = cls.as_array(b)
        if a_arr.ndim != 2 or b_arr.ndim != 2:
            raise ValueError("matmul requires 2-D operands")
        if a_arr.shape[1] != b_arr.shape[0]:
            raise ValueError(
                f"shape mismatch: {a_arr.shape} x {b_arr.shape}"
            )
        products = _MUL[a_arr[:, :, None], b_arr[None, :, :]]
        return np.bitwise_xor.reduce(products, axis=1)


__all__ = ["GF256", "FIELD_SIZE", "PRIMITIVE_POLY", "GENERATOR"]
