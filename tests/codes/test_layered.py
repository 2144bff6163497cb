"""Unit tests for the layered (C, C1, C2) code used by LDS."""

from fractions import Fraction

import numpy as np
import pytest

from repro.codes.base import DecodingError, RepairError
from repro.codes.layered import LayeredCode
from repro.gf import matrix as matrix_module
from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix


@pytest.fixture
def layered() -> LayeredCode:
    # Matches LDSConfig(n1=5, n2=6, f1=1, f2=1): k=3, d=4.
    return LayeredCode(n1=5, n2=6, k=3, d=4)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LayeredCode(n1=0, n2=5, k=1, d=2)
        with pytest.raises(ValueError):
            LayeredCode(n1=5, n2=3, k=2, d=4)  # d > n2
        with pytest.raises(ValueError):
            LayeredCode(n1=2, n2=6, k=3, d=4)  # k > n1
        with pytest.raises(ValueError):
            LayeredCode(n1=5, n2=6, k=3, d=4, operating_point="rs")

    def test_msr_point_requires_d_2k_minus_2(self):
        with pytest.raises(ValueError):
            LayeredCode(n1=5, n2=6, k=3, d=5, operating_point="msr")
        code = LayeredCode(n1=5, n2=6, k=3, d=4, operating_point="msr")
        assert code.operating_point == "msr"

    def test_index_mapping(self, layered):
        assert layered.l1_symbol_index(0) == 0
        assert layered.l2_symbol_index(0) == 5
        assert layered.l2_symbol_index(5) == 10
        with pytest.raises(ValueError):
            layered.l1_symbol_index(5)
        with pytest.raises(ValueError):
            layered.l2_symbol_index(6)


class TestProtocolOperations:
    def test_encode_for_backend_covers_all_l2_servers(self, layered):
        elements = layered.encode_for_backend(b"value")
        assert sorted(elements) == list(range(6))

    def test_decode_from_backend(self, layered):
        value = b"back-end persistent copy"
        elements = layered.encode_for_backend(value)
        subset = {i: elements[i].data for i in (0, 2, 4)}
        assert layered.decode_from_backend(subset) == value

    def test_regenerate_then_decode_from_l1(self, layered):
        value = b"the value a reader reconstructs"
        backend = layered.encode_for_backend(value)
        l1_elements = {}
        for l1_server in range(3):  # k = 3 servers regenerate their symbols
            helpers = {
                l2: layered.helper_data(l2, backend[l2])[l1_server] for l2 in range(4)
            }
            regenerated = layered.regenerate_l1_element(l1_server, helpers)
            l1_elements[l1_server] = regenerated.data
        assert layered.decode_from_l1(l1_elements) == value

    def test_regenerate_from_any_d_of_the_l2_servers(self, layered):
        value = b"any d helpers suffice"
        backend = layered.encode_for_backend(value)
        helpers_a = {l2: layered.helper_data(l2, backend[l2])[1] for l2 in (0, 1, 2, 3)}
        helpers_b = {l2: layered.helper_data(l2, backend[l2])[1] for l2 in (2, 3, 4, 5)}
        element_a = layered.regenerate_l1_element(1, helpers_a)
        element_b = layered.regenerate_l1_element(1, helpers_b)
        assert element_a.data == element_b.data

    def test_regenerate_requires_d_helpers(self, layered):
        backend = layered.encode_for_backend(b"x")
        helpers = {0: layered.helper_data(0, backend[0])[0]}
        with pytest.raises(RepairError):
            layered.regenerate_l1_element(0, helpers)

    def test_decode_from_l1_requires_k_elements(self, layered):
        with pytest.raises(DecodingError):
            layered.decode_from_l1({0: b"xx"})

    def test_decode_from_backend_requires_k_elements(self, layered):
        with pytest.raises(DecodingError):
            layered.decode_from_backend({0: b"xx"})


class TestCosts:
    def test_mbr_cost_fractions(self, layered):
        costs = layered.costs
        # k=3, d=4 at the MBR point: B=9, alpha=4, beta=1.
        assert costs.element_fraction == Fraction(4, 9)
        assert costs.helper_fraction == Fraction(1, 9)
        assert costs.regeneration_fraction == Fraction(4, 9)
        assert costs.backend_storage_fraction == Fraction(24, 9)

    def test_msr_costs_are_storage_optimal(self):
        code = LayeredCode(n1=5, n2=6, k=3, d=4, operating_point="msr")
        assert code.costs.element_fraction == Fraction(1, 3)
        # ... but regeneration is more expensive relative to element size.
        assert code.costs.regeneration_fraction > code.costs.helper_fraction

    def test_mbr_regeneration_cheaper_than_msr_relay(self):
        # Remark 1: at the MBR point a regenerated element costs the same as
        # one stored element (alpha = d*beta), which keeps the read cost Theta(1).
        mbr = LayeredCode(n1=5, n2=6, k=3, d=4)
        assert mbr.costs.regeneration_fraction == mbr.costs.element_fraction


def test_one_helper_set_and_one_reader_quorum_invert_once_each(monkeypatch):
    """Work done, as a count: 50 multi-stripe elements regenerated through
    two code objects (two shards) with one helper set invert the helper rows
    of the shared encoding matrix once; 20 decodes from one set of k L1
    servers invert once more."""
    inversions = []
    original = GFMatrix.inverse

    def counting(self):
        inversions.append(self.shape)
        return original(self)

    monkeypatch.setattr(GFMatrix, "inverse", counting)
    matrix_module._inverse_of_rows.cache_clear()

    shards = [LayeredCode(n1=5, n2=7, k=3, d=5), LayeredCode(n1=5, n2=7, k=3, d=5)]
    helpers = [0, 2, 3, 5, 6]
    rng = np.random.default_rng(12)
    for round_number in range(50):
        code = shards[round_number % 2]
        l1_server = round_number % code.n1
        value = rng.integers(0, 256, size=100, dtype=np.uint8).tobytes()
        stored = code.encode_for_backend(value)
        assert len(stored[0].data) > code.code.element_size  # multi-stripe
        messages = {l2: code.helper_data(l2, stored[l2])[l1_server] for l2 in helpers}
        element = code.regenerate_l1_element(l1_server, messages)
        assert element.data == code.code.encode(value)[l1_server].data
    assert inversions == [(5, 5)]

    for code in shards * 10:
        value = rng.integers(0, 256, size=100, dtype=np.uint8).tobytes()
        coded = code.code.encode(value)
        assert code.decode_from_l1({i: coded[i].data for i in (0, 2, 4)}) == value
    assert inversions == [(5, 5), (3, 3)]


def test_products_per_call_do_not_depend_on_the_stripe_count(monkeypatch):
    """Work done, as a count: with the inverses memoised, every operation on
    a value is a fixed number of ``GF256.matmul`` calls -- one to encode, one
    per stored element for its helper replies to all n1 servers, one to
    regenerate, three to decode -- and no ``dot`` or
    ``mul_vec``, whether the value has 1 stripe or 40."""
    calls = []
    for name in ("matmul", "dot", "mul_vec"):
        original = getattr(GF256, name).__func__

        def counting(cls, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(cls, *args)

        monkeypatch.setattr(GF256, name, classmethod(counting))

    def counted(operation, *args):
        calls.clear()
        return operation(*args), list(calls)

    code = LayeredCode(n1=5, n2=7, k=3, d=5)

    def products(value):
        stored, encode = counted(code.encode_for_backend, value)
        messages, helper = {}, []
        for l2 in (0, 2, 3, 5, 6):
            replies, made = counted(code.helper_data, l2, stored[l2])
            messages[l2] = replies[1]
            helper.append(made)
        element, regenerate = counted(code.regenerate_l1_element, 1, messages)
        coded = code.code.encode(value)
        elements = {0: coded[0].data, 1: element.data, 4: coded[4].data}
        decoded, decode = counted(code.decode_from_l1, elements)
        assert decoded == value
        return encode, helper, regenerate, decode

    one_stripe, forty_stripes = bytes(range(8)), bytes(range(238)) * 2
    assert code.code.stripe_count(len(one_stripe)) == 1
    assert code.code.stripe_count(len(forty_stripes)) == 40
    products(one_stripe)  # warms the inverse memo
    expected = (["matmul"], [["matmul"]] * 5, ["matmul"], ["matmul"] * 3)
    assert products(one_stripe) == expected
    assert products(forty_stripes) == expected
