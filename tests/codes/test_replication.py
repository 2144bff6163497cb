"""Unit tests for the replication pseudo-code."""

import pytest

from repro.codes.base import DecodingError
from repro.codes.replication import ReplicationCode


class TestReplication:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReplicationCode(0)
        with pytest.raises(ValueError):
            ReplicationCode(3, block_size=0)

    def test_storage_overhead_is_n(self):
        assert ReplicationCode(5).storage_overhead == pytest.approx(5.0)

    def test_every_replica_is_the_block(self):
        code = ReplicationCode(3, block_size=4)
        block = bytes([1, 2, 3, 4])
        for replica in code.encode_block(block):
            assert replica == block

    def test_decode_from_any_single_replica(self):
        code = ReplicationCode(4, block_size=4)
        block = bytes([9, 9, 9, 9])
        encoded = code.encode_block(block)
        assert code.decode_block({2: encoded[2]}) == block

    def test_decode_requires_at_least_one(self):
        with pytest.raises(DecodingError):
            ReplicationCode(3).decode_block({})

    def test_decode_rejects_bad_index(self):
        code = ReplicationCode(2, block_size=2)
        with pytest.raises(DecodingError):
            code.decode_block({5: bytes([1, 2])})

    def test_byte_roundtrip(self):
        code = ReplicationCode(3, block_size=16)
        payload = b"replicated atomic register"
        elements = code.encode(payload)
        assert code.decode([elements[1]]) == payload

    def test_wrong_block_size_rejected(self):
        code = ReplicationCode(2, block_size=4)
        with pytest.raises(ValueError):
            code.encode_block(bytes([1, 2]))
