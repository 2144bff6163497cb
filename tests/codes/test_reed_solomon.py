"""Unit tests for the Reed-Solomon code."""

from itertools import combinations

import pytest

from repro.codes.base import CodedElement, DecodingError
from repro.codes.reed_solomon import ReedSolomonCode


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(3, 0)
        with pytest.raises(ValueError):
            ReedSolomonCode(3, 4)
        with pytest.raises(ValueError):
            ReedSolomonCode(300, 4)

    def test_sizes(self):
        code = ReedSolomonCode(6, 3)
        assert code.block_size == 3
        assert code.element_size == 1
        assert code.storage_overhead == pytest.approx(2.0)
        assert code.element_fraction == pytest.approx(1 / 3)


class TestBlockCodec:
    def test_encode_produces_n_elements(self):
        code = ReedSolomonCode(7, 4)
        elements = code.encode_block(bytes([1, 2, 3, 4]))
        assert len(elements) == 7

    def test_decode_from_any_k_elements(self):
        code = ReedSolomonCode(6, 3)
        block = bytes([11, 22, 33])
        encoded = code.encode_block(block)
        for indices in combinations(range(6), 3):
            subset = {i: encoded[i] for i in indices}
            assert code.decode_block(subset) == block

    def test_decode_with_fewer_than_k_fails(self):
        code = ReedSolomonCode(6, 3)
        encoded = code.encode_block(bytes([1, 2, 3]))
        with pytest.raises(DecodingError):
            code.decode_block({0: encoded[0], 1: encoded[1]})

    def test_decode_rejects_invalid_index(self):
        code = ReedSolomonCode(4, 2)
        encoded = code.encode_block(bytes([1, 2]))
        with pytest.raises(DecodingError):
            code.decode_block({0: encoded[0], 9: encoded[1]})

    def test_encode_wrong_block_size(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(ValueError):
            code.encode_block(bytes([1, 2, 3]))

    def test_systematic_prefix_equals_payload(self):
        code = ReedSolomonCode(6, 3, systematic=True)
        block = bytes([9, 8, 7])
        encoded = code.encode_block(block)
        assert [int(encoded[i][0]) for i in range(3)] == [9, 8, 7]


class TestByteCodec:
    @pytest.mark.parametrize("payload", [b"", b"x", b"hello world", bytes(range(256)) * 3])
    def test_roundtrip(self, payload):
        code = ReedSolomonCode(8, 5)
        elements = code.encode(payload)
        assert len(elements) == 8
        assert code.decode(elements[:5]) == payload

    def test_roundtrip_from_arbitrary_subset(self):
        code = ReedSolomonCode(7, 3)
        payload = b"erasure coded atomic storage"
        elements = code.encode(payload)
        assert code.decode([elements[1], elements[4], elements[6]]) == payload

    def test_decode_without_elements(self):
        with pytest.raises(DecodingError):
            ReedSolomonCode(4, 2).decode([])

    def test_decode_inconsistent_lengths(self):
        code = ReedSolomonCode(4, 2)
        elements = code.encode(b"abcdef")
        broken = [elements[0], CodedElement(index=1, data=elements[1].data + b"\x00")]
        with pytest.raises(DecodingError):
            code.decode(broken)

    def test_element_length_matches_stripes(self):
        code = ReedSolomonCode(5, 2)
        payload = b"0123456789"  # 10 bytes + 4-byte header -> 7 stripes of 2 symbols
        elements = code.encode(payload)
        assert len(elements[0].data) == code.stripe_count(len(payload))
