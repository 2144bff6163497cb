"""Unit tests for the shared byte-level code interface (striping, headers)."""

import pytest

from repro.codes.base import CodedElement, DecodingError, RepairError
from repro.codes.product_matrix import ProductMatrixMBRCode
from repro.codes.reed_solomon import ReedSolomonCode


class TestCodedElement:
    def test_length(self):
        assert len(CodedElement(index=0, data=b"abc")) == 3

    def test_frozen(self):
        element = CodedElement(index=1, data=b"x")
        with pytest.raises(AttributeError):
            element.index = 2  # type: ignore[misc]


class TestStriping:
    def test_stripe_count_minimum_is_one(self):
        code = ReedSolomonCode(4, 2)
        assert code.stripe_count(0) == 2  # 4-byte header over 2-symbol blocks
        assert ProductMatrixMBRCode(6, 3, 4).stripe_count(0) == 1

    def test_stripe_count_grows_with_payload(self):
        code = ReedSolomonCode(6, 4)
        assert code.stripe_count(100) > code.stripe_count(10)

    def test_element_sizes_are_uniform_across_indices(self):
        code = ProductMatrixMBRCode(8, 3, 4)
        elements = code.encode(b"some moderately long payload" * 3)
        sizes = {len(element.data) for element in elements}
        assert len(sizes) == 1

    def test_exact_block_boundary_roundtrip(self):
        code = ReedSolomonCode(5, 3)
        # Payload such that payload + header is an exact multiple of the block.
        payload = bytes(3 * 4 - 4)
        assert code.decode(code.encode(payload)[:3]) == payload

    def test_single_byte_roundtrip(self):
        code = ProductMatrixMBRCode(6, 2, 3)
        assert code.decode(code.encode(b"Z")[2:4]) == b"Z"

    def test_decode_rejects_truncated_padding(self):
        code = ReedSolomonCode(4, 2)
        elements = code.encode(b"hello")
        # Tamper with the length header so it claims more bytes than decoded.
        tampered = []
        for element in elements[:2]:
            data = bytearray(element.data)
            tampered.append(CodedElement(index=element.index, data=bytes(data)))
        # Decoding untampered works; then corrupt the declared length by
        # decoding a truncated symbol stream directly.
        payload = code.decode(tampered)
        assert payload == b"hello"
        with pytest.raises(DecodingError):
            code._strip_payload(bytes([0, 0]))

    def test_strip_payload_rejects_overlong_length(self):
        code = ReedSolomonCode(4, 2)
        bad = bytes([0, 0, 0, 99, 1, 2])  # claims 99 bytes
        with pytest.raises(DecodingError):
            code._strip_payload(bad)


class TestRepairInterfaceValidation:
    def test_helper_data_with_misaligned_element(self):
        code = ProductMatrixMBRCode(6, 2, 3)
        with pytest.raises(RepairError):
            code.helper_data(1, b"\x01\x02", 0)  # not a multiple of alpha = 3

    def test_repair_with_inconsistent_helper_lengths(self):
        code = ProductMatrixMBRCode(6, 2, 3)
        elements = code.encode(b"abcdef")
        helpers = {i: code.helper_data(i, elements[i].data, 0) for i in (1, 2, 3)}
        helpers[3] = helpers[3] + b"\x00"
        with pytest.raises(RepairError):
            code.repair(0, helpers)

    def test_repair_with_too_few_helpers(self):
        code = ProductMatrixMBRCode(6, 2, 3)
        elements = code.encode(b"abcdef")
        helpers = {1: code.helper_data(1, elements[1].data, 0)}
        with pytest.raises(RepairError):
            code.repair(0, helpers)

    def test_repair_bandwidth_fraction_property(self):
        code = ProductMatrixMBRCode(10, 3, 4)
        assert float(code.repair_bandwidth_fraction) == pytest.approx(4 / 9)
        assert float(code.helper_fraction) == pytest.approx(1 / 9)
