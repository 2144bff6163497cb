"""Unit tests for GF(2^8) scalar and vector arithmetic."""

import pytest

from repro.codes.product_matrix import ProductMatrixMBRCode
from repro.gf.gf256 import GF256, as_vector
from repro.gf.matrix import GFMatrix


class TestScalarArithmetic:
    def test_addition_is_xor(self):
        assert GF256.add(0x53, 0xCA) == 0x53 ^ 0xCA

    def test_addition_identity(self):
        for value in (0, 1, 77, 255):
            assert GF256.add(value, 0) == value

    def test_every_element_is_its_own_additive_inverse(self):
        for value in range(256):
            assert GF256.add(value, value) == 0

    def test_multiplication_by_zero(self):
        assert GF256.mul(0, 123) == 0
        assert GF256.mul(123, 0) == 0

    def test_multiplication_by_one(self):
        for value in (1, 2, 123, 255):
            assert GF256.mul(value, 1) == value

    def test_known_product_aes_field(self):
        # 0x53 * 0xCA = 0x01 in the AES field.
        assert GF256.mul(0x53, 0xCA) == 0x01

    def test_multiplication_commutative(self):
        for a, b in [(3, 7), (200, 45), (255, 254)]:
            assert GF256.mul(a, b) == GF256.mul(b, a)

    def test_multiplication_associative(self):
        a, b, c = 19, 83, 201
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    def test_distributivity(self):
        a, b, c = 91, 140, 33
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    def test_inverse_times_self_is_one(self):
        for value in range(1, 256):
            assert GF256.mul(value, GF256.inv(value)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_log_exp_roundtrip(self):
        for value in (1, 2, 3, 100, 255):
            assert GF256.exp(GF256.log(value)) == value

    def test_log_of_zero_raises(self):
        with pytest.raises(ValueError):
            GF256.log(0)

    def test_generator_has_full_order(self):
        seen = set()
        for exponent in range(255):
            seen.add(GF256.exp(exponent))
        assert len(seen) == 255


class TestVectorArithmetic:
    def test_as_vector_from_bytes(self):
        for data in (b"\x01\x02\x03", bytearray([1, 2, 3]), [1, 2, 3], (1, 2, 3)):
            vector = as_vector(data)
            assert type(vector) is bytes and vector == b"\x01\x02\x03"

    def test_add_vec_is_elementwise_xor(self):
        a = [1, 2, 3, 255]
        b = [255, 2, 1, 255]
        assert list(GF256.add_vec(a, b)) == [1 ^ 255, 0, 2, 0]

    def test_mul_vec_matches_scalar(self):
        a = [0, 1, 7, 200, 255]
        b = [13, 0, 99, 200, 1]
        expected = [GF256.mul(x, y) for x, y in zip(a, b)]
        assert list(GF256.mul_vec(a, b)) == expected

    def test_scale_vec_matches_scalar(self):
        vector = [0, 1, 2, 3, 100, 255]
        for scalar in (0, 1, 2, 77, 255):
            expected = [GF256.mul(scalar, v) for v in vector]
            assert list(GF256.scale_vec(scalar, vector)) == expected

    def test_dot_product_matches_manual(self):
        a = [3, 5, 7]
        b = [11, 13, 17]
        expected = 0
        for x, y in zip(a, b):
            expected ^= GF256.mul(x, y)
        assert GF256.dot(a, b) == expected

    def test_dot_of_empty_vectors_is_zero(self):
        assert GF256.dot([], []) == 0

    def test_matmul_identity(self):
        matrix = [[1, 2], [3, 4]]
        identity = [[1, 0], [0, 1]]
        assert GF256.matmul(matrix, identity) == (bytes([1, 2]), bytes([3, 4]))

    def test_matmul_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GF256.matmul([bytes(3)] * 2, [bytes(3)] * 2)

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            GF256.matmul(bytes(3), [bytes(1)] * 3)

    def test_matmul_against_scalar_computation(self):
        a = [[1, 2, 3], [4, 5, 6]]
        b = [[7, 8], [9, 10], [11, 12]]
        result = GF256.matmul(a, b)
        for i in range(2):
            for j in range(2):
                expected = 0
                for l in range(3):
                    expected ^= GF256.mul(a[i][l], b[l][j])
                assert result[i][j] == expected


class TestFieldElementsAreValidatedAlike:
    """Every scalar and vector entry point reads its entries with
    ``operator.index``: a non-integer is a ``TypeError`` and an integer
    outside 0..255 a ``ValueError``."""

    SCALAR_CALLS = [
        lambda bad: GF256.add(bad, 1), lambda bad: GF256.add(1, bad),
        lambda bad: GF256.mul(bad, 3), lambda bad: GF256.mul(3, bad),
        lambda bad: GF256.inv(bad), lambda bad: GF256.log(bad),
        lambda bad: GF256.scale_vec(bad, b"\x01\x02"),
    ]
    VECTOR_CALLS = [
        lambda bad: as_vector([1, bad]),
        lambda bad: GF256.scale_vec(2, [1, bad]),
        lambda bad: GF256.mul_vec([1, bad], [1, 2]),
        lambda bad: GF256.add_vec([1, 2], [1, bad]),
        lambda bad: GF256.dot([1, bad], [1, 2]),
        lambda bad: GF256.matmul([[1, bad]], [[1], [2]]),
        lambda bad: GF256.matmul([[1, 2]], [[1], [bad]]),
        lambda bad: GFMatrix([[bad]]),
        lambda bad: GFMatrix([[1, 0], [0, 1]]).matvec([1, bad]),
        lambda bad: GFMatrix([[1, 0], [0, 1]]).solve([1, bad]),
        lambda bad: ProductMatrixMBRCode(12, 3, 5).encode_block([bad] * 12),
    ]

    @pytest.mark.parametrize("bad", [2.7, 1.9, 1.5, 1.0, "3", None])
    def test_a_non_integer_is_a_type_error(self, bad):
        for call in self.SCALAR_CALLS + self.VECTOR_CALLS:
            with pytest.raises(TypeError):
                call(bad)

    @pytest.mark.parametrize("bad", [-1, 256, 300])
    def test_an_integer_outside_the_field_is_a_value_error(self, bad):
        for call in self.SCALAR_CALLS + self.VECTOR_CALLS:
            with pytest.raises(ValueError, match="not a GF"):
                call(bad)

    def test_integer_like_entries_are_accepted(self):
        assert GF256.mul(True, 7) == 7
        assert GF256.scale_vec(1, [True, 0]) == b"\x01\x00"
