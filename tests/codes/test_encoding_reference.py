"""Coded bytes against a reference that shares no code with ``repro.codes``.

``test_batched_stripes.py`` proves "S stripes = S x one stripe"; this proves
one stripe is *right*.  Everything is plain ints on ``tests/gf/gf_oracle.py``
and built straight from the class docstrings: ``Psi`` from the points
``g^i``, the MBR ``[[S, T], [T^t, 0]]`` and MSR ``[S1; S2]`` message
matrices filled upper triangle row by row, the RS Vandermonde generator.
"""

import hashlib
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "gf"))
import gf_oracle  # noqa: E402

from repro.codes.layered import LayeredCode  # noqa: E402
from repro.codes.product_matrix import ProductMatrixMBRCode, ProductMatrixMSRCode  # noqa: E402
from repro.codes.reed_solomon import ReedSolomonCode  # noqa: E402
from repro.core import messages as msg  # noqa: E402
from repro.core.server_l2 import L2Server  # noqa: E402
from repro.core.tags import Tag  # noqa: E402


def vandermonde(rows, cols):
    matrix, x = [], 1
    for _ in range(rows):
        matrix.append([1])
        for _ in range(cols - 1):
            matrix[-1].append(gf_oracle.mul(matrix[-1][-1], x))
        x = gf_oracle.mul(x, 3)  # the points are g^i, g = 3
    return matrix


def symmetric(symbols, size):
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            matrix[i][j] = matrix[j][i] = next(symbols)
    return matrix


def reference_elements(code, block):
    symbols = iter(block)
    if isinstance(code, ProductMatrixMBRCode):
        message = [row + [0] * (code.d - code.k) for row in symmetric(symbols, code.k)]
        message += [[0] * code.d for _ in range(code.d - code.k)]
        for i in range(code.k):
            for j in range(code.k, code.d):
                message[i][j] = message[j][i] = next(symbols)
    elif isinstance(code, ProductMatrixMSRCode):
        message = symmetric(symbols, code.k - 1) + symmetric(symbols, code.k - 1)
    else:
        message = [[symbol] for symbol in symbols]
    generator = vandermonde(code.n, len(message))
    if getattr(code, "systematic", False):
        generator = gf_oracle.matmul(generator, gf_oracle.inverse(generator[:code.k]))
    return gf_oracle.matmul(generator, message)


@st.composite
def code_and_block(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(k, 6))
    code = draw(st.sampled_from([
        ProductMatrixMBRCode(d + 1 + draw(st.integers(0, 3)), k, d),
        ProductMatrixMSRCode(2 * k + 1 + draw(st.integers(0, 3)), k + 1),
        ReedSolomonCode(k + draw(st.integers(0, 4)), k, systematic=draw(st.booleans())),
    ]))
    size = code.block_size
    return code, draw(st.lists(st.integers(0, 255), min_size=size, max_size=size))


@settings(max_examples=150, deadline=None)
@given(code_and_block(), st.data())
def test_block_view_equals_the_docstring_construction(drawn, data):
    code, block = drawn
    expected = reference_elements(code, block)
    encoded = code.encode_block(block)
    assert [list(element) for element in encoded] == expected
    if isinstance(code, ReedSolomonCode):
        return
    failed = data.draw(st.integers(0, code.n - 1))
    helpers = data.draw(st.permutations([i for i in range(code.n) if i != failed]))[:code.d]
    width = code.d if isinstance(code, ProductMatrixMBRCode) else code.k - 1
    projection = vandermonde(code.n, width)[failed]  # psi_f (MBR), phi_f (MSR)
    symbols = {j: code.helper_symbols_block(j, encoded[j], failed) for j in helpers}
    assert {j: list(s) for j, s in symbols.items()} \
        == {j: [gf_oracle.dot(expected[j], projection)] for j in helpers}
    assert list(code.repair_block(failed, symbols)) == expected[failed]


@pytest.mark.parametrize("stripes", [1, 11])
@pytest.mark.parametrize("point", ["mbr", "msr"])
def test_every_l2_server_sends_every_l1_index_psi_j_m_v_f(point, stripes):
    """What an L2 server answers a ``QueryCodeElem`` with, for every (L2
    server, L1 index) pair and asked twice, is ``psi_j M_s v_f`` per stripe,
    with ``M_s`` built from the length-prefixed, zero-padded value."""
    layered = LayeredCode(n1=5, n2=6, k=3, d=4, operating_point=point)
    code = layered.code
    value = bytes(range(7, 7 + stripes * code.block_size - 4))
    payload = (struct.pack(">I", len(value)) + value).ljust(stripes * code.block_size, b"\0")
    blocks = [payload[at:at + code.block_size]
              for at in range(0, len(payload), code.block_size)]
    assert len(blocks) == stripes == code.stripe_count(len(value))
    elements = [reference_elements(code, block) for block in blocks]  # [s][j] = psi_j M_s
    projections = vandermonde(code.n, code.element_size)  # [f] = v_f
    stored = layered.encode_for_backend(value)
    for l2_index in range(layered.n2):
        server = L2Server(f"l2-{l2_index}", l2_index, layered, Tag(1, "w"), stored[l2_index])
        sent = []
        server.send = lambda destination, message: sent.append(message)
        for l1_index in list(range(layered.n1)) * 2:
            server.on_message("l1", msg.QueryCodeElem(l1_index=l1_index))
            assert sent[-1].tag == Tag(1, "w")
            assert list(sent[-1].helper_data) == [
                gf_oracle.dot(stripe[layered.n1 + l2_index], projections[l1_index])
                for stripe in elements]


@pytest.mark.parametrize("code, digest", [
    (ProductMatrixMBRCode(12, 3, 5),
     "4e99106fdd12e1b85755faf8e0a60b9065a5ef25311d1d80463ed83aae7d9387"),
    (ProductMatrixMSRCode(8, 3),
     "33552b508c9527a914f8b6464ed5db1cb2acaadcf9b5221c855494bf311415a9"),
    (ReedSolomonCode(7, 3),
     "a21bebfcfd7ab7c94c7842269a4d7c4c282953c0c34a3173b966d256b4168dd4"),
], ids=["mbr-12-3-5", "msr-8-3", "rs-7-3"])
def test_whole_value_digests_are_pinned(code, digest):
    coded = b"".join(element.data for element in code.encode(bytes(range(200))))
    assert hashlib.sha256(coded).hexdigest() == digest


def _value(length):
    return bytes((37 * i + 11) % 256 for i in range(length))


#: name -> (layered code, helper set for every L1 target, value lengths of
#: 1 / 11 / 22 stripes): MBR at B = 12, MSR at B = 6.
LAYERED = {
    "mbr-5-7-3-5": (lambda: LayeredCode(5, 7, 3, 5), (0, 2, 3, 5, 6), (8, 128, 256)),
    "msr-5-6-3-4": (lambda: LayeredCode(5, 6, 3, 4, "msr"), (0, 2, 3, 5), (2, 62, 128)),
}


#: (code, stripes) -> SHA-256 of the helper data and of the repaired elements.
HELPER_AND_REPAIR_DIGESTS = {
    ("mbr-5-7-3-5", 1): (
        "47f772074a3b974affb8ae12bb6b34562846b25384ceaa303a175a0726a931d0",
        "e06aefaecf44eef5565fefcebd57dc71e55d7769f577485520524e735e2de926"),
    ("mbr-5-7-3-5", 11): (
        "5e43ce102171766ccba76ed0425f82b21fcb6d7e686af91fd89aef1caf64bf34",
        "1daff5ac8e8be073d430a8405565415757249273031571b57e2439ad3de070fb"),
    ("mbr-5-7-3-5", 22): (
        "fb8d8a6744b34c7a1a2d1e6e65873804694058fcdd490836f6c49686dea786f5",
        "a8736716a34692fb4d87c2b930df27f3fdd112278f161eaf87359619034b3a3f"),
    ("msr-5-6-3-4", 1): (
        "3069727105ea334b21489858b07df6ca6c2e69ba80fc6a19a903f214196f3122",
        "b80f72c39cfb7757dea24049bf57002b3c1d75e5c5b3a353c3657b3df74078bf"),
    ("msr-5-6-3-4", 11): (
        "1f937024edca2a90d325f8cac8b0ca89d1fa67bc86552b3eec4d8b6de75d8b3d",
        "6cc7517e11cfbd2d8486bee1f8d07517a1fc909203edba7ca8e25ba89a3a0c38"),
    ("msr-5-6-3-4", 22): (
        "82db920fd962d367e139f787d8b574df42653515c0f840f913ccaff63b13c0bb",
        "7ddda103095e75e534bb40e63938c4a533b35be3ec2147d03938c91777743bfa"),
}


@pytest.mark.parametrize("name, stripes", list(HELPER_AND_REPAIR_DIGESTS),
                         ids=[f"{name}-{stripes}" for name, stripes in HELPER_AND_REPAIR_DIGESTS])
def test_helper_data_and_repair_digests_are_pinned(name, stripes):
    """Helper data from every L2 server to every L1 target, and each L1
    target's element repaired from a fixed helper set, as SHA-256 digests."""
    build, helpers, lengths = LAYERED[name]
    helper_digest, repair_digest = HELPER_AND_REPAIR_DIGESTS[name, stripes]
    layered = build()
    value = _value(lengths[(1, 11, 22).index(stripes)])
    assert layered.code.stripe_count(len(value)) == stripes
    stored = layered.encode_for_backend(value)
    replies = [layered.helper_data(l2, stored[l2]) for l2 in range(layered.n2)]
    assert hashlib.sha256(b"".join(b"".join(r) for r in replies)).hexdigest() \
        == helper_digest
    repaired = [layered.regenerate_l1_element(f, {l2: replies[l2][f] for l2 in helpers}).data
                for f in range(layered.n1)]
    assert hashlib.sha256(b"".join(repaired)).hexdigest() == repair_digest
