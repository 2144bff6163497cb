"""Differential tests of every GF(2^8) vector and matrix primitive against
the table-free oracle in ``gf_oracle.py``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gf_oracle
from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix, SingularMatrixError

elements = st.integers(min_value=0, max_value=255)


def matrices(rows, cols):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matmul_operands(draw):
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(rows, inner)), draw(matrices(inner, cols)), (rows, inner, cols)


@st.composite
def square_matrices(draw):
    size = draw(st.integers(1, 6))
    rows = draw(matrices(size, size))
    if draw(st.booleans()):
        # Random bytes are almost never singular over GF(2^8): plant a
        # dependent row so the singular branch is exercised too.
        rows[-1] = [a ^ b for a, b in zip(rows[0], rows[size // 2])] if size > 1 \
            else [0]
    return rows


def test_the_whole_product_table_matches_the_oracle():
    everything = np.arange(256, dtype=np.uint8)
    table = GF256.mul_vec(everything[:, None], everything[None, :])
    assert table.dtype == np.uint8
    assert table.tolist() == [[gf_oracle.mul(a, b) for b in range(256)]
                              for a in range(256)]


def test_scalar_operations_match_the_oracle():
    for a in range(256):
        for b in (0, 1, 2, 3, 0x53, 0xCA, 254, 255):
            assert GF256.mul(a, b) == gf_oracle.mul(a, b)
            if b:
                assert GF256.div(a, b) == gf_oracle.mul(a, gf_oracle.inv(b))
        if a:
            assert GF256.inv(a) == gf_oracle.inv(a)


@given(st.lists(st.tuples(elements, elements), max_size=60))
def test_mul_vec(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    assert GF256.mul_vec(a, b).tolist() == [gf_oracle.mul(x, y) for x, y in pairs]


@given(elements, st.lists(elements, max_size=60))
def test_scale_vec(scalar, vector):
    result = GF256.scale_vec(scalar, vector)
    assert result.dtype == np.uint8
    assert result.tolist() == [gf_oracle.mul(scalar, v) for v in vector]


@given(st.lists(st.tuples(elements, elements), max_size=60))
def test_dot(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    assert GF256.dot(a, b) == gf_oracle.dot(a, b)


@given(matmul_operands())
def test_matmul(operands):
    a, b, (rows, inner, cols) = operands
    a_arr = np.array(a, dtype=np.uint8).reshape(rows, inner)
    b_arr = np.array(b, dtype=np.uint8).reshape(inner, cols)
    result = GF256.matmul(a_arr, b_arr)
    assert result.dtype == np.uint8 and result.shape == (rows, cols)
    expected = gf_oracle.matmul(a, b, cols)
    assert result.tolist() == expected
    assert GFMatrix(a_arr).matmul(GFMatrix(b_arr)).data.tolist() == expected


@settings(max_examples=200)
@given(square_matrices())
def test_inverse(rows):
    expected = gf_oracle.inverse(rows)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            GFMatrix(rows).inverse()
        assert not GFMatrix(rows).is_invertible()
    else:
        assert GFMatrix(rows).inverse().data.tolist() == expected


@given(square_matrices(), st.data())
def test_solve(rows, data):
    size = len(rows)
    width = data.draw(st.integers(1, 4))
    rhs = data.draw(matrices(size, width))
    inverse = gf_oracle.inverse(rows)
    if inverse is None:
        with pytest.raises(SingularMatrixError):
            GFMatrix(rows).solve(np.array(rhs, dtype=np.uint8))
        return
    assert GFMatrix(rows).solve(np.array(rhs, dtype=np.uint8)).tolist() \
        == gf_oracle.matmul(inverse, rhs)
    column = [row[0] for row in rhs]
    assert GFMatrix(rows).solve(column).tolist() \
        == [row[0] for row in gf_oracle.matmul(inverse, [[v] for v in column])]


class TestScalarRange:
    @pytest.mark.parametrize("bad", [-1, 256, -255, 1000])
    def test_out_of_range_scalars_are_rejected(self, bad):
        vector = np.array([1, 2, 3], dtype=np.uint8)
        with pytest.raises(ValueError, match="not a GF"):
            GF256.scale_vec(bad, vector)
        for call in (lambda: GF256.mul(bad, 3), lambda: GF256.mul(3, bad),
                     lambda: GF256.div(bad, 3), lambda: GF256.div(3, bad),
                     lambda: GF256.inv(bad)):
            with pytest.raises(ValueError, match="not a GF"):
                call()

    def test_both_ends_of_the_range_are_accepted(self):
        vector = np.array([0, 1, 255], dtype=np.uint8)
        assert GF256.scale_vec(0, vector).tolist() == [0, 0, 0]
        assert GF256.scale_vec(255, vector).tolist() \
            == [0, 255, gf_oracle.mul(255, 255)]
        assert GF256.mul(255, 255) == gf_oracle.mul(255, 255)
        assert GF256.inv(255) == gf_oracle.inv(255)
        assert GF256.div(0, 255) == 0
