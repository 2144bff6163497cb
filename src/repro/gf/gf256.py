"""Arithmetic over the finite field GF(2^8).

The field is constructed with the primitive polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B, the polynomial used by AES) and the
generator element 3, which is primitive for this polynomial.

Scalars are ints in ``0..255`` and vectors are ``bytes``, one symbol per
byte.  Every product is a lookup in a precomputed 256 x 256 table whose
row ``a`` is a 256-byte string (``_MUL[a][b] == a * b``), so scaling a
vector is one ``bytes.translate`` through that row, and adding vectors
(XOR) is one XOR of their ``int.from_bytes`` values.  Addition and
subtraction are both XOR.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem, index as as_index, xor as _int_xor
from typing import List, Tuple

#: The field size.
FIELD_SIZE = 256

#: Primitive (reduction) polynomial, represented as an integer bit mask.
PRIMITIVE_POLY = 0x11B

#: Generator element used to build the log/exp tables.
GENERATOR = 0x03


def _build_tables() -> Tuple[bytes, bytes]:
    """The exponential table, 512 entries (the 255 powers repeated, so
    ``exp[log a + log b]`` needs no modular reduction), and the logarithm
    table, 256 entries (``log[0]`` unused)."""
    powers = bytearray(255)
    value = 1
    for exponent in range(255):
        powers[exponent] = value
        # Multiply by the generator (3) in GF(2^8): value * 3 = value * 2 + value.
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= PRIMITIVE_POLY
        value = doubled ^ value
    # The logarithm is the inverse permutation: it maps powers[e] to e.
    return bytes(powers * 3)[:512], bytes.maketrans(bytes(powers), bytes(range(255)))


_EXP_TABLE, _LOG_TABLE = _build_tables()

#: Row ``a`` of the product table: ``_MUL[a][b] == a * b``.  Row ``a != 0``
#: maps ``b``'s logarithm through ``exp[log a + .]``; no loop over products.
_MUL = (bytes(FIELD_SIZE),) + tuple(
    b"\0" + _LOG_TABLE[1:].translate(_EXP_TABLE[_LOG_TABLE[a]:_LOG_TABLE[a] + 256])
    for a in range(1, FIELD_SIZE))

#: Multiplicative inverses, so ``inv`` is one lookup (index 0 is unused).
_INV_TABLE = b"\0" + _LOG_TABLE[1:].translate(_EXP_TABLE[255:0:-1] + b"\0")


def _element(value) -> int:
    """``value`` as a field element: an integer (``operator.index``) in ``0..255``."""
    value = as_index(value)
    if not 0 <= value < FIELD_SIZE:
        raise ValueError(f"{value} is not a GF(2^8) element (0..255)")
    return value


def as_vector(data) -> bytes:
    """``data`` -- bytes, bytearray or a sequence of ints 0..255 -- as bytes.  As
    for a scalar, a non-integer entry is a TypeError, one outside 0..255 a ValueError."""
    if isinstance(data, (bytes, bytearray)):
        return bytes(data)
    try:  # list(): an int is no vector, and no raw buffer slips through
        return bytes(list(data))  # bytes() reads each entry with __index__
    except ValueError:
        raise ValueError(f"{data!r} holds a value that is not a GF(2^8) element") from None


def is_vector(data) -> bool:
    """Whether ``data`` is one vector (bytes, or entries that hold no entries)."""
    return isinstance(data, (bytes, bytearray)) or (
        _holds_entries(data) and not any(map(_holds_entries, data)))


def _holds_entries(data) -> bool:
    return hasattr(data, "__iter__") and not isinstance(data, str)  # "3" is one bad entry


def as_rows(matrix) -> Tuple[bytes, ...]:
    """The rows of a 2-D operand (a sequence of vectors), each as ``bytes``."""
    rows = tuple(matrix)
    for row in rows:
        if row.__class__ is not bytes:
            if not all(map(is_vector, rows)):
                raise ValueError("expected 2-D operands: a sequence of rows of GF(2^8) elements")
            return tuple(map(as_vector, rows))
    return rows


def xor(a: bytes, b: bytes) -> bytes:
    """``a + b`` for two vectors, as long as ``a`` (an empty ``b`` is zero)."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little")


def split_rows(flat: bytes, width: int, count: int) -> List[bytes]:
    """The ``count`` consecutive rows of ``width`` symbols that make up ``flat``."""
    return [flat[row * width:(row + 1) * width] for row in range(count)]


class GF256:
    """Namespace of scalar and vectorised GF(2^8) operations.

    The class is stateless; all methods are class methods so the field can
    be passed around as an object (e.g. ``code.field.mul(a, b)``) without
    instantiating anything.
    """

    # -- scalar operations -------------------------------------------------

    @classmethod
    def add(cls, a: int, b: int) -> int:
        """Return ``a + b`` in GF(2^8) (XOR)."""
        return _element(a) ^ _element(b)

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        """Return the product ``a * b`` in GF(2^8)."""
        return _MUL[_element(a)][_element(b)]

    @classmethod
    def inv(cls, a: int) -> int:
        """Return the multiplicative inverse of ``a``.

        Raises :class:`ZeroDivisionError` for ``a == 0``.
        """
        a = _element(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return _INV_TABLE[a]

    @classmethod
    def exp(cls, exponent: int) -> int:
        """Return ``generator ** exponent``."""
        return _EXP_TABLE[as_index(exponent) % 255]

    @classmethod
    def log(cls, a: int) -> int:
        """Return the discrete log of ``a`` with respect to the generator."""
        a = _element(a)
        if a == 0:
            raise ValueError("zero has no discrete logarithm")
        return _LOG_TABLE[a]

    # -- vectorised operations --------------------------------------------

    @classmethod
    def add_vec(cls, a, b) -> bytes:
        """Element-wise addition of two equally long vectors (XOR)."""
        a, b = as_vector(a), as_vector(b)
        if len(a) != len(b):
            raise ValueError(f"vector lengths differ: {len(a)} and {len(b)}")
        return xor(a, b)

    @classmethod
    def mul_vec(cls, a, b) -> bytes:
        """Element-wise product of two equally long vectors."""
        a, b = as_vector(a), as_vector(b)
        if len(a) != len(b):
            raise ValueError(f"vector lengths differ: {len(a)} and {len(b)}")
        return bytes(map(getitem, map(_MUL.__getitem__, a), b))

    @classmethod
    def scale_vec(cls, scalar: int, vector) -> bytes:
        """Multiply every element of ``vector`` by ``scalar``."""
        return as_vector(vector).translate(_MUL[_element(scalar)])

    @classmethod
    def dot(cls, a, b) -> int:
        """Inner product of two vectors in GF(2^8)."""
        return reduce(_int_xor, cls.mul_vec(a, b), 0)

    @classmethod
    def matmul(cls, a, b) -> Tuple[bytes, ...]:
        """Matrix product of the rows ``a`` and the rows ``b``, as rows.

        Row ``i`` of the product is the sum over ``j`` of ``b``'s row ``j``
        scaled by ``a[i][j]``: one ``translate`` and one XOR per non-zero
        entry of ``a``.  With no rows in ``b`` the product's rows are empty.
        """
        left, right = as_rows(a), as_rows(b)
        inner = len(right)
        width = len(right[0]) if right else 0
        if len(set(map(len, right))) > 1:
            raise ValueError("the rows of the right operand differ in length")
        product, from_bytes, table = [], int.from_bytes, _MUL  # locals: the inner loop is hot
        for row in left:
            if len(row) != inner:
                raise ValueError(f"shape mismatch: {len(left)}x{len(row)} times {inner}x{width}")
            total = 0
            for coefficient, symbols in zip(row, right):
                if coefficient:
                    total ^= from_bytes(symbols.translate(table[coefficient]), "little")
            product.append(total.to_bytes(width, "little"))
        return tuple(product)


__all__ = ["GF256", "FIELD_SIZE", "PRIMITIVE_POLY", "GENERATOR", "as_rows", "as_vector",
           "is_vector", "split_rows", "xor"]
