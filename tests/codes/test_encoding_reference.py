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

import numpy as np
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
    encoded = code.encode_block(np.array(block, dtype=np.uint8))
    assert [element.tolist() for element in encoded] == expected
    if isinstance(code, ReedSolomonCode):
        return
    failed = data.draw(st.integers(0, code.n - 1))
    helpers = data.draw(st.permutations([i for i in range(code.n) if i != failed]))[:code.d]
    width = code.d if isinstance(code, ProductMatrixMBRCode) else code.k - 1
    projection = vandermonde(code.n, width)[failed]  # psi_f (MBR), phi_f (MSR)
    symbols = {j: code.helper_symbols_block(j, encoded[j], failed) for j in helpers}
    assert {j: s.tolist() for j, s in symbols.items()} \
        == {j: [gf_oracle.dot(expected[j], projection)] for j in helpers}
    assert code.repair_block(failed, symbols).tolist() == expected[failed]


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
