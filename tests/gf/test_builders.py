"""Unit tests for the Vandermonde matrix builders."""

from itertools import combinations

import numpy as np
import pytest

from repro.gf.builders import systematic_vandermonde, vandermonde_matrix
from repro.gf.matrix import GFMatrix


class TestVandermonde:
    def test_shape(self):
        assert vandermonde_matrix(6, 3).shape == (6, 3)

    def test_first_column_is_all_ones(self):
        matrix = vandermonde_matrix(5, 3)
        assert all(matrix[i, 0] == 1 for i in range(5))

    def test_any_k_rows_invertible(self):
        matrix = vandermonde_matrix(7, 3)
        for rows in combinations(range(7), 3):
            assert matrix.submatrix(rows).rank() == 3

    def test_distinct_points_required(self):
        with pytest.raises(ValueError):
            vandermonde_matrix(3, 2, points=[1, 1, 2])

    def test_nonzero_points_required(self):
        with pytest.raises(ValueError):
            vandermonde_matrix(3, 2, points=[0, 1, 2])

    def test_point_count_must_match_rows(self):
        with pytest.raises(ValueError):
            vandermonde_matrix(3, 2, points=[1, 2])

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_matrix(300, 2)

    def test_custom_points(self):
        matrix = vandermonde_matrix(3, 3, points=[1, 2, 3])
        assert matrix[0, 2] == 1  # 1^2
        assert matrix[1, 1] == 2


class TestSystematicVandermonde:
    def test_top_block_is_identity(self):
        matrix = systematic_vandermonde(6, 3)
        assert matrix.submatrix(range(3)) == GFMatrix(np.eye(3, dtype=np.uint8))

    def test_any_k_rows_still_invertible(self):
        matrix = systematic_vandermonde(6, 3)
        for rows in combinations(range(6), 3):
            assert matrix.submatrix(rows).rank() == 3

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            systematic_vandermonde(2, 3)
