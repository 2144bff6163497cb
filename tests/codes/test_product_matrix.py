"""Unit tests for the product-matrix MBR and MSR codes (reference [25])."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes.base import DecodingError, RepairError
from repro.codes.product_matrix import ProductMatrixMBRCode, ProductMatrixMSRCode
from repro.codes.regenerating import mbr_parameters, msr_parameters


def random_block(size: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8)


class TestMBRConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProductMatrixMBRCode(5, 0, 3)
        with pytest.raises(ValueError):
            ProductMatrixMBRCode(5, 4, 3)
        with pytest.raises(ValueError):
            ProductMatrixMBRCode(4, 2, 4)  # d > n - 1
        with pytest.raises(ValueError):
            ProductMatrixMBRCode(300, 2, 3)

    def test_sizes_match_mbr_point(self):
        code = ProductMatrixMBRCode(n=10, k=3, d=4)
        assert code.block_size == 3 * 4 - 3  # kd - k(k-1)/2 = 9
        assert code.element_size == 4
        assert code.helper_size == 1
        assert code.parameters == mbr_parameters(10, 3, 4)

    def test_message_matrix_is_symmetric(self):
        code = ProductMatrixMBRCode(n=8, k=3, d=5)
        stripes = random_block(4 * code.block_size, seed=3).reshape(4, -1)
        matrices = code._message_matrices(stripes)
        assert matrices.shape == (5, 4, 5)  # (d, S, d)
        for stripe in range(4):
            matrix = matrices[:, stripe, :]
            assert np.array_equal(matrix, matrix.T)
            assert matrix[:code.k].any() and not matrix[code.k:, code.k:].any()

    def test_message_matrix_roundtrip(self):
        for code in (ProductMatrixMBRCode(n=8, k=3, d=5), ProductMatrixMBRCode(n=6, k=4, d=4),
                     ProductMatrixMSRCode(n=8, k=4)):
            stripes = random_block(3 * code.block_size, seed=4).reshape(3, -1)
            matrices = code._message_matrices(stripes)
            assert np.array_equal(code._payload_of(matrices), stripes)
            if isinstance(code, ProductMatrixMBRCode):
                # [S, T], the first k rows, is all that decode recovers.
                assert np.array_equal(code._payload_of(matrices[:code.k]), stripes)


class TestMBRDecode:
    @pytest.mark.parametrize("n,k,d", [(6, 2, 3), (10, 3, 4), (9, 4, 6), (12, 5, 5)])
    def test_decode_from_any_k_nodes(self, n, k, d):
        code = ProductMatrixMBRCode(n=n, k=k, d=d)
        block = random_block(code.block_size, seed=n * k + d)
        encoded = code.encode_block(block)
        for indices in list(combinations(range(n), k))[:20]:
            subset = {i: encoded[i] for i in indices}
            assert np.array_equal(code.decode_block(subset), block)

    def test_decode_when_d_equals_k(self):
        code = ProductMatrixMBRCode(n=8, k=4, d=4)
        block = random_block(code.block_size, seed=9)
        encoded = code.encode_block(block)
        assert np.array_equal(code.decode_block({i: encoded[i] for i in (1, 3, 5, 7)}), block)

    def test_decode_with_too_few_elements(self):
        code = ProductMatrixMBRCode(n=6, k=3, d=4)
        encoded = code.encode_block(random_block(code.block_size))
        with pytest.raises(DecodingError):
            code.decode_block({0: encoded[0], 1: encoded[1]})

    def test_byte_level_roundtrip(self):
        code = ProductMatrixMBRCode(n=10, k=3, d=4)
        payload = b"a value stored in the back-end layer of LDS"
        elements = code.encode(payload)
        assert code.decode(elements[2:5]) == payload


class TestMBRRepair:
    @pytest.mark.parametrize("n,k,d", [(6, 2, 3), (10, 3, 4), (9, 4, 6)])
    def test_repair_reproduces_exact_element(self, n, k, d):
        code = ProductMatrixMBRCode(n=n, k=k, d=d)
        block = random_block(code.block_size, seed=17)
        encoded = code.encode_block(block)
        failed = 1
        helpers = [i for i in range(n) if i != failed][:d]
        helper_data = {
            i: code.helper_symbols_block(i, encoded[i], failed) for i in helpers
        }
        repaired = code.repair_block(failed, helper_data)
        assert np.array_equal(repaired, encoded[failed])

    def test_repair_from_any_d_helper_subset(self):
        code = ProductMatrixMBRCode(n=8, k=3, d=4)
        encoded = code.encode_block(random_block(code.block_size, seed=23))
        failed = 5
        others = [i for i in range(8) if i != failed]
        for helpers in list(combinations(others, 4))[:15]:
            helper_data = {
                i: code.helper_symbols_block(i, encoded[i], failed) for i in helpers
            }
            assert np.array_equal(code.repair_block(failed, helper_data), encoded[failed])

    def test_helper_computation_is_independent_of_other_helpers(self):
        # The property Section II-c relies on: a helper's symbols depend only
        # on its own element and the failed index.
        code = ProductMatrixMBRCode(n=8, k=3, d=4)
        encoded = code.encode_block(random_block(code.block_size, seed=29))
        helper = 2
        failed = 6
        first = code.helper_symbols_block(helper, encoded[helper], failed)
        second = code.helper_symbols_block(helper, encoded[helper], failed)
        assert np.array_equal(first, second)

    def test_repair_with_too_few_helpers(self):
        code = ProductMatrixMBRCode(n=6, k=2, d=3)
        encoded = code.encode_block(random_block(code.block_size))
        helper_data = {1: code.helper_symbols_block(1, encoded[1], 0)}
        with pytest.raises(RepairError):
            code.repair_block(0, helper_data)

    def test_helper_index_validation(self):
        code = ProductMatrixMBRCode(n=6, k=2, d=3)
        encoded = code.encode_block(random_block(code.block_size))
        with pytest.raises(RepairError):
            code.helper_symbols_block(99, encoded[0], 0)

    def test_byte_level_repair(self):
        code = ProductMatrixMBRCode(n=10, k=3, d=4)
        payload = b"repair me across stripes please, thanks"
        elements = code.encode(payload)
        failed = 7
        helpers = {i: code.helper_data(i, elements[i].data, failed) for i in range(4)}
        repaired = code.repair(failed, helpers)
        assert repaired.data == elements[failed].data


class TestMSR:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProductMatrixMSRCode(5, 1)
        with pytest.raises(ValueError):
            ProductMatrixMSRCode(4, 3)  # needs n >= 2k - 1

    def test_sizes_match_msr_point(self):
        code = ProductMatrixMSRCode(n=10, k=4)
        assert code.d == 6
        assert code.element_size == 3
        assert code.block_size == 12
        assert code.parameters == msr_parameters(10, 4, 6)

    @pytest.mark.parametrize("n,k", [(5, 2), (8, 3), (10, 4), (12, 5)])
    def test_decode_from_any_k_nodes(self, n, k):
        code = ProductMatrixMSRCode(n=n, k=k)
        block = random_block(code.block_size, seed=n + k)
        encoded = code.encode_block(block)
        for indices in list(combinations(range(n), k))[:15]:
            subset = {i: encoded[i] for i in indices}
            assert np.array_equal(code.decode_block(subset), block)

    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (10, 4)])
    def test_repair_reproduces_exact_element(self, n, k):
        code = ProductMatrixMSRCode(n=n, k=k)
        block = random_block(code.block_size, seed=41)
        encoded = code.encode_block(block)
        failed = n - 1
        helpers = [i for i in range(n) if i != failed][: code.d]
        helper_data = {
            i: code.helper_symbols_block(i, encoded[i], failed) for i in helpers
        }
        assert np.array_equal(code.repair_block(failed, helper_data), encoded[failed])

    def test_repair_bandwidth_smaller_than_full_decode(self):
        # MSR repair downloads d*beta symbols, far fewer than k*alpha when alpha > 1.
        code = ProductMatrixMSRCode(n=10, k=4)
        assert code.d * code.helper_size < code.k * code.element_size + code.block_size

    def test_byte_roundtrip(self):
        code = ProductMatrixMSRCode(n=9, k=3)
        payload = b"minimum storage regenerating codes"
        elements = code.encode(payload)
        assert code.decode(elements[4:7]) == payload

    def test_decode_with_too_few_elements(self):
        code = ProductMatrixMSRCode(n=8, k=3)
        encoded = code.encode_block(random_block(code.block_size))
        with pytest.raises(DecodingError):
            code.decode_block({0: encoded[0]})


class TestRepairIndexRange:
    """``repair`` / ``repair_block`` refuse indices outside ``0..n-1``: a
    negative one must not wrap round to a row counted from the end."""

    CODES = [ProductMatrixMBRCode(n=12, k=3, d=5), ProductMatrixMSRCode(n=12, k=3)]

    @staticmethod
    def helper_messages(code, payload, failed, helpers):
        elements = code.encode(payload)
        return {i: code.helper_data(i, elements[i].data, failed) for i in helpers}

    @pytest.mark.parametrize("code", CODES, ids=["mbr", "msr"])
    @pytest.mark.parametrize("bad", [-1, -12, 12, 99])
    def test_helper_index_out_of_range(self, code, bad):
        messages = self.helper_messages(code, b"two stripes of payload", 0, range(5, 5 + code.d))
        stray = dict(list(messages.items())[:-1])
        stray[bad] = messages[4 + code.d]
        with pytest.raises(RepairError, match="out of range"):
            code.repair(0, stray)
        with pytest.raises(RepairError, match="out of range"):
            code.repair_block(0, {i: np.frombuffer(data[:1], np.uint8)
                                  for i, data in stray.items()})
        # A stray index is refused even when d good helpers remain.
        with pytest.raises(RepairError, match="out of range"):
            code.repair(0, {**messages, bad: messages[5]})

    @pytest.mark.parametrize("code", CODES, ids=["mbr", "msr"])
    @pytest.mark.parametrize("bad", [-1, -12, 12, 99])
    def test_failed_index_out_of_range(self, code, bad):
        messages = self.helper_messages(code, b"two stripes of payload", 0, range(1, 1 + code.d))
        with pytest.raises(RepairError, match="out of range"):
            code.repair(bad, messages)
        with pytest.raises(RepairError, match="out of range"):
            code.repair_block(bad, {i: np.frombuffer(data[:1], np.uint8)
                                    for i, data in messages.items()})

    @pytest.mark.parametrize("code", CODES, ids=["mbr", "msr"])
    def test_both_ends_of_the_range_are_accepted(self, code):
        payload = b"two stripes of payload"
        elements = code.encode(payload)
        last = code.n - 1
        # Node 0 from helpers that include n-1, and node n-1 from helpers
        # that include 0.
        high = self.helper_messages(code, payload, 0, range(code.n - code.d, code.n))
        assert code.repair(0, high) == elements[0]
        low = self.helper_messages(code, payload, last, range(code.d))
        assert code.repair(last, low) == elements[last]
