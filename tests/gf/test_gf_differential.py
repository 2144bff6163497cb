"""Differential tests of every GF(2^8) vector and matrix primitive against
the table-free oracle in ``gf_oracle.py``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gf_oracle
from repro.gf import matrix as matrix_module
from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix, SingularMatrixError

elements = st.integers(min_value=0, max_value=255)


def matrices(rows, cols):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matmul_operands(draw):
    # Inner dimension 0 and 1 and the 1 x 1 product are drawn often, not
    # only when the integers happen to land there.
    rows, inner, cols = draw(st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(1, 6), st.sampled_from([0, 1]), st.integers(1, 6)),
        st.just((1, 1, 1)),
    ))
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
    # Non-contiguous views of the same operands: a transposed copy turned
    # back, and every other row / column of a twice-as-large array.
    assert GF256.matmul(a_arr.T.copy().T, b_arr.T.copy().T).tolist() == expected
    wide_a = np.repeat(np.repeat(a_arr, 2, axis=0), 2, axis=1)
    wide_b = np.repeat(np.repeat(b_arr, 2, axis=0), 2, axis=1)
    assert GF256.matmul(wide_a[::2, ::2], wide_b[::2, ::2]).tolist() == expected


def test_matmul_of_255_row_operands():
    # As tall as the largest code (n = 255), on either side, as arrays and
    # as nested lists.
    rng = np.random.default_rng(255)
    tall = rng.integers(0, 256, size=(255, 4), dtype=np.uint8)
    small = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    expected = gf_oracle.matmul(tall.tolist(), small.tolist())
    assert GF256.matmul(tall, small).tolist() == expected
    assert GF256.matmul(tall.tolist(), small.tolist()).tolist() == expected
    flat = rng.integers(0, 256, size=(2, 255), dtype=np.uint8)
    assert GF256.matmul(flat, tall).tolist() \
        == gf_oracle.matmul(flat.tolist(), tall.tolist())


@pytest.mark.parametrize("a, b", [
    ([1, 2, 3], [[1], [2], [3]]),            # 1-D left operand
    ([[1, 2, 3]], [1, 2, 3]),                # 1-D right operand
    (b"\x01\x02", [[1], [2]]),               # bytes are 1-D
    (np.zeros((2, 2, 2), np.uint8), [[1, 2], [3, 4]]),
    ([[1, 2, 3]], [[1], [2]]),               # inner dimensions differ
    (np.zeros((2, 0), np.uint8), np.zeros((1, 2), np.uint8)),
])
def test_matmul_still_rejects_malformed_operands(a, b):
    with pytest.raises(ValueError, match="2-D operands|shape mismatch"):
        GF256.matmul(a, b)


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


class TestInverseOfRows:
    def setup_method(self):
        matrix_module._inverse_of_rows.cache_clear()

    @given(st.integers(1, 6), st.data())
    def test_matches_the_oracle_on_any_row_subset_and_width(self, width, data):
        rows = data.draw(st.integers(width, 9))
        cols = data.draw(st.integers(width, width + 2))
        entries = data.draw(matrices(rows, cols))
        if data.draw(st.booleans()):
            entries[-1] = list(entries[0])  # a singular selection, often
        chosen = data.draw(st.permutations(range(rows)))[:width]
        expected = gf_oracle.inverse([entries[r][:width] for r in chosen])
        matrix = GFMatrix(entries)
        for _ in range(2):  # a miss, then a hit (or a second failure)
            if expected is None:
                with pytest.raises(SingularMatrixError):
                    matrix.inverse_of_rows(chosen, width)
            else:
                assert matrix.inverse_of_rows(chosen, width).tolist() == expected
        if cols == width and expected is not None:
            assert matrix.inverse_of_rows(chosen).tolist() == expected

    def test_is_keyed_on_entries_not_on_the_object(self, monkeypatch):
        calls = []
        original = GFMatrix.inverse

        def counting(self):
            calls.append(self.shape)
            return original(self)

        monkeypatch.setattr(GFMatrix, "inverse", counting)
        first = GFMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10], [1, 1, 1]])
        twin = first.copy()
        a = first.inverse_of_rows([0, 2, 3])
        assert twin.inverse_of_rows([0, 2, 3]) is a
        assert first.inverse_of_rows((0, 2, 3), 3) is a
        assert first.inverse_of_rows(np.array([0, 2, 3])) is a
        assert calls == [(3, 3)]
        # Another selection, another order, another width, or entries that
        # differ in a single byte: new work.
        first.inverse_of_rows([0, 1, 3])
        first.inverse_of_rows([2, 0, 3])
        first.inverse_of_rows([0, 2], 2)
        twin[0, 0] = 9
        changed = twin.inverse_of_rows([0, 2, 3])
        assert len(calls) == 5
        assert changed is not a
        assert changed.tolist() == gf_oracle.inverse(
            [[9, 2, 3], [7, 8, 10], [1, 1, 1]])
        # Same bytes, other shape: 2 x 6 is not 4 x 3.
        reshaped = GFMatrix(first.data.reshape(2, 6))
        assert reshaped.inverse_of_rows([0, 1], 2).tolist() == gf_oracle.inverse(
            [[1, 2], [7, 8]])

    def test_result_is_read_only_and_failures_are_not_kept(self):
        matrix = GFMatrix([[1, 2], [2, 4], [3, 5]])
        inverse = matrix.inverse_of_rows([0, 2])
        assert inverse.dtype == np.uint8 and not inverse.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            inverse[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            inverse ^= 1
        with pytest.raises(ValueError):
            inverse.setflags(write=True)  # it does not own its memory
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                matrix.inverse_of_rows([0, 1])  # row 1 = 2 * row 0
            with pytest.raises(SingularMatrixError):
                matrix.inverse_of_rows([0, 0])  # the same row twice
            with pytest.raises(SingularMatrixError):
                matrix.inverse_of_rows([0, 1, 2])  # 3 x 2 is not square
        assert matrix_module._inverse_of_rows.cache_info().currsize == 1
        assert matrix.inverse_of_rows([0, 2]) is inverse

    def test_rows_and_width_outside_the_matrix_are_refused(self):
        matrix = GFMatrix([[1, 2], [3, 5], [7, 9]])
        for rows in ([0, -1], [-3, 1], [0, 3], [99, 0]):
            with pytest.raises(IndexError):
                matrix.inverse_of_rows(rows)
        for width in (-1, 3):
            with pytest.raises(IndexError):
                matrix.inverse_of_rows([0, 1], width)
        with pytest.raises(TypeError):
            matrix.inverse_of_rows([0.0, 1.0])
        assert matrix_module._inverse_of_rows.cache_info().currsize == 0
        assert matrix.inverse_of_rows([0, 2]).tolist() == gf_oracle.inverse([[1, 2], [7, 9]])

    def test_the_table_is_bounded(self):
        bound = matrix_module._ROW_INVERSE_CACHE_SIZE
        assert matrix_module._inverse_of_rows.cache_info().maxsize == bound
        # One entry per distinct one-row selection of a tall matrix, more of
        # them than the table holds.
        for low in range(1, 256):
            for high in range(1, 6):
                GFMatrix([[low], [high]]).inverse_of_rows([0], 1)
        assert matrix_module._inverse_of_rows.cache_info().currsize == bound


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
