"""Unit tests for dense GF(2^8) matrices."""

import pytest

from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix, SingularMatrixError


def identity(size):
    return GFMatrix([[int(i == j) for j in range(size)] for i in range(size)])


class TestConstruction:
    def test_zeros(self):
        matrix = GFMatrix.zeros(2, 3)
        assert matrix.shape == (2, 3)
        assert matrix.data == (bytes(3), bytes(3))

    def test_one_dimensional_input_becomes_row(self):
        matrix = GFMatrix([1, 2, 3])
        assert matrix.shape == (1, 3)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            GFMatrix([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])

    def test_equality(self):
        assert GFMatrix([[1, 2]]) == GFMatrix([[1, 2]])
        assert GFMatrix([[1, 2]]) != GFMatrix([[1, 3]])


class TestBasicOps:
    def test_addition_is_elementwise_xor(self):
        a = GFMatrix([[1, 2], [3, 4]])
        b = GFMatrix([[5, 6], [7, 8]])
        assert (a + b).data == (bytes([1 ^ 5, 2 ^ 6]), bytes([3 ^ 7, 4 ^ 8]))

    def test_addition_shape_mismatch(self):
        with pytest.raises(ValueError):
            GFMatrix([[1]]) + GFMatrix([[1, 2]])

    def test_matmul_with_identity(self):
        matrix = GFMatrix([[9, 8], [7, 6]])
        assert matrix @ identity(2) == matrix

    def test_matvec(self):
        matrix = GFMatrix([[1, 0], [0, 1], [1, 1]])
        result = matrix.matvec([5, 9])
        assert list(result) == [5, 9, 5 ^ 9]

    def test_matvec_length_mismatch(self):
        with pytest.raises(ValueError):
            GFMatrix([[1, 0]]).matvec([1, 2, 3])

    def test_scale(self):
        matrix = GFMatrix([[1, 2], [3, 4]])
        scaled = matrix.scale(7)
        for i in range(2):
            for j in range(2):
                assert scaled[i, j] == GF256.mul(7, matrix[i, j])

    def test_submatrix_rows_and_columns(self):
        matrix = GFMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sub = matrix.submatrix([0, 2], [1, 2])
        assert sub.data == (bytes([2, 3]), bytes([8, 9]))


class TestElimination:
    def test_rank_of_identity(self):
        assert identity(5).rank() == 5

    def test_rank_of_zero_matrix(self):
        assert GFMatrix.zeros(3, 3).rank() == 0

    def test_rank_of_duplicated_rows(self):
        matrix = GFMatrix([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        assert matrix.rank() == 2

    def test_inverse_roundtrip(self):
        matrix = GFMatrix([[2, 3, 5], [7, 11, 13], [17, 19, 23]])
        assert matrix.rank() == 3
        product = matrix @ matrix.inverse()
        assert product == identity(3)

    def test_inverse_of_singular_raises(self):
        singular = GFMatrix([[1, 2], [1, 2]])
        with pytest.raises(SingularMatrixError):
            singular.inverse()

    def test_inverse_of_non_square_raises(self):
        with pytest.raises(SingularMatrixError):
            GFMatrix([[1, 2, 3]]).inverse()

    def test_solve_vector(self):
        matrix = GFMatrix([[2, 3], [5, 7]])
        x_expected = bytes([9, 200])
        rhs = matrix.matvec(x_expected)
        solution = matrix.solve(rhs)
        assert solution == x_expected

    def test_solve_matrix_rhs(self):
        matrix = GFMatrix([[2, 3], [5, 7]])
        unknown = GFMatrix([[1, 2], [3, 4]])
        rhs = matrix @ unknown
        solution = matrix.solve(rhs.data)
        assert solution == unknown.data

    def test_solve_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GFMatrix([[1, 0], [0, 1]]).solve([1, 2, 3])

    def test_solve_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            GFMatrix([[1, 1], [1, 1]]).solve([1, 2])
