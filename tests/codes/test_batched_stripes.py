"""The whole-value codec against its own block view, stripe by stripe.

``encode`` / ``decode`` / ``helper_data`` / ``repair`` stripe a value of any
length over blocks.  The reference here is written out independently: pad,
cut into blocks, call the block-level method per stripe and stitch the
pieces together.  Both must agree byte for byte, however the byte view
comes to be implemented (per stripe today, one product per value later).
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.codes.base import CodedElement, DecodingError, RepairError
from repro.codes.product_matrix import ProductMatrixMBRCode, ProductMatrixMSRCode
from repro.codes.reed_solomon import ReedSolomonCode
from repro.codes.replication import ReplicationCode


# -- the stitched reference ---------------------------------------------------


def blocks_of(code, data: bytes):
    payload = struct.pack(">I", len(data)) + data
    payload += b"\x00" * ((-len(payload)) % code.block_size)
    return [payload[at:at + code.block_size]
            for at in range(0, len(payload), code.block_size)]


def stitched_encode(code, data: bytes):
    parts = [[] for _ in range(code.n)]
    for block in blocks_of(code, data):
        for index, element in enumerate(code.encode_block(block)):
            assert type(element) is bytes and len(element) == code.element_size
            parts[index].append(element)
    return [b"".join(pieces) for pieces in parts]


def pieces_of(data: bytes, width: int):
    return [data[at:at + width] for at in range(0, len(data), width)]


def stitched_decode(code, elements: dict) -> bytes:
    cut = {index: pieces_of(data, code.element_size)
           for index, data in elements.items()}
    stripes = len(next(iter(cut.values())))
    raw = b"".join(
        bytes(code.decode_block({index: pieces[t] for index, pieces in cut.items()}))
        for t in range(stripes))
    (length,) = struct.unpack(">I", raw[:4])
    return raw[4:4 + length]


def stitched_helper_data(code, helper: int, element: bytes, failed: int) -> bytes:
    return b"".join(
        bytes(code.helper_symbols_block(helper, piece, failed))
        for piece in pieces_of(element, code.element_size))


def stitched_repair(code, failed: int, helper_data: dict) -> bytes:
    cut = {index: pieces_of(data, code.helper_size)
           for index, data in helper_data.items()}
    stripes = len(next(iter(cut.values())))
    return b"".join(
        bytes(code.repair_block(failed, {i: pieces[t] for i, pieces in cut.items()}))
        for t in range(stripes))


# -- random codes and payloads --------------------------------------------------


@st.composite
def mbr_codes(draw):
    k = draw(st.integers(1, 5))
    d = draw(st.integers(k, 8))
    return ProductMatrixMBRCode(draw(st.integers(d + 1, d + 5)), k, d)


@st.composite
def msr_codes(draw):
    k = draw(st.integers(2, 5))
    return ProductMatrixMSRCode(draw(st.integers(2 * k - 1, 2 * k + 4)), k)


@st.composite
def rs_codes(draw):
    k = draw(st.integers(1, 6))
    return ReedSolomonCode(draw(st.integers(k, k + 5)), k,
                           systematic=draw(st.booleans()))


@st.composite
def replication_codes(draw):
    return ReplicationCode(draw(st.integers(1, 5)),
                           block_size=draw(st.integers(1, 9)))


any_code = st.one_of(mbr_codes(), msr_codes(), rs_codes(), replication_codes())
regenerating_code = st.one_of(mbr_codes(), msr_codes())


@st.composite
def payload_for(draw, code):
    """Lengths around the padding edges: empty, one byte, one short of and
    exactly filling the first block, and many stripes."""
    block = code.block_size
    length = draw(st.sampled_from(
        [0, 1, max(0, block - 5), max(0, block - 4), max(0, block - 3),
         block, 7 * block - 4, 7 * block - 3, 23 * block + 2]))
    return draw(st.binary(min_size=length, max_size=length))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_encode_and_decode_equal_the_stitched_block_view(data):
    code = data.draw(any_code)
    payload = data.draw(payload_for(code))
    elements = code.encode(payload)
    assert [element.index for element in elements] == list(range(code.n))
    assert [element.data for element in elements] == stitched_encode(code, payload)
    assert len(elements[0].data) \
        == code.stripe_count(len(payload)) * code.element_size

    count = data.draw(st.integers(code.k, code.n))
    chosen = data.draw(st.permutations(range(code.n)))[:count]
    subset = {index: elements[index].data for index in chosen}
    decoded = code.decode([elements[index] for index in chosen])
    assert decoded == payload
    assert decoded == stitched_decode(code, subset)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_helper_data_and_repair_equal_the_stitched_block_view(data):
    code = data.draw(regenerating_code)
    payload = data.draw(payload_for(code))
    elements = code.encode(payload)
    failed = data.draw(st.integers(0, code.n - 1))
    others = [index for index in range(code.n) if index != failed]
    count = data.draw(st.integers(code.d, len(others)))
    helpers = data.draw(st.permutations(others))[:count]

    helper_data = {}
    for helper in helpers:
        helper_data[helper] = code.helper_data(helper, elements[helper].data, failed)
        assert helper_data[helper] == stitched_helper_data(
            code, helper, elements[helper].data, failed)
    repaired = code.repair(failed, helper_data)
    assert repaired == CodedElement(index=failed, data=elements[failed].data)
    assert repaired.data == stitched_repair(code, failed, helper_data)


# -- zero stripes -----------------------------------------------------------------

CODES = [ProductMatrixMBRCode(7, 3, 4), ProductMatrixMSRCode(6, 3),
         ReedSolomonCode(5, 3)]


@pytest.mark.parametrize("code", CODES, ids=repr)
def test_decode_of_zero_length_elements_names_the_empty_input(code):
    empty = [CodedElement(index=index, data=b"") for index in range(code.k)]
    with pytest.raises(DecodingError, match="empty coded element"):
        code.decode(empty)
    with pytest.raises(DecodingError):
        code.decode_block({index: b"" for index in range(code.k)})


@pytest.mark.parametrize("code", CODES[:2], ids=repr)
def test_zero_stripe_repair_inputs_name_the_empty_input(code):
    with pytest.raises(RepairError, match="empty helper element"):
        code.helper_data(1, b"", 0)
    with pytest.raises(RepairError):
        code.helper_symbols_block(1, b"", 0)
    with pytest.raises(RepairError, match="empty helper message"):
        code.repair(0, {index: b"" for index in range(1, code.d + 1)})
    with pytest.raises(RepairError):
        code.repair_block(0, {index: b"" for index in range(1, code.d + 1)})


def test_block_view_rejects_more_than_one_block():
    code = ProductMatrixMBRCode(7, 3, 4)
    elements = code.encode(bytes(2 * code.block_size - 4))  # two stripes
    with pytest.raises(DecodingError, match="wrong length"):
        code.decode_block({index: elements[index].data for index in range(3)})
    with pytest.raises(RepairError, match="wrong length"):
        code.helper_symbols_block(1, elements[1].data, 0)
