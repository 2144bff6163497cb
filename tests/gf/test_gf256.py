"""Unit tests for GF(2^8) scalar and vector arithmetic."""

import numpy as np
import pytest

from repro.gf.gf256 import GF256


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
    def test_as_array_from_bytes(self):
        array = GF256.as_array(b"\x01\x02\x03")
        assert array.dtype == np.uint8
        assert list(array) == [1, 2, 3]

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
        matrix = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        identity = np.eye(2, dtype=np.uint8)
        assert np.array_equal(GF256.matmul(matrix, identity), matrix)

    def test_matmul_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GF256.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            GF256.matmul(np.zeros(3, dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8))

    def test_matmul_against_scalar_computation(self):
        a = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        b = np.array([[7, 8], [9, 10], [11, 12]], dtype=np.uint8)
        result = GF256.matmul(a, b)
        for i in range(2):
            for j in range(2):
                expected = 0
                for l in range(3):
                    expected ^= GF256.mul(int(a[i, l]), int(b[l, j]))
                assert result[i, j] == expected
