"""Property-based tests of the code layer: any-k decodability and exact repair."""

from hypothesis import given, settings, strategies as st

from repro.codes.layered import LayeredCode
from repro.codes.product_matrix import ProductMatrixMBRCode, ProductMatrixMSRCode
from repro.codes.reed_solomon import ReedSolomonCode
from repro.gf.gf256 import GF256

payloads = st.binary(min_size=0, max_size=200)


@st.composite
def rs_code_and_subset(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    subset = draw(st.permutations(list(range(n))))
    return ReedSolomonCode(n, k), list(subset)[:k]


@st.composite
def mbr_code_and_subsets(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    d = draw(st.integers(min_value=2, max_value=n - 1))
    k = draw(st.integers(min_value=1, max_value=d))
    code = ProductMatrixMBRCode(n=n, k=k, d=d)
    order = draw(st.permutations(list(range(n))))
    return code, list(order)


class TestReedSolomonProperties:
    @settings(max_examples=40, deadline=None)
    @given(rs_code_and_subset(), payloads)
    def test_any_k_subset_decodes(self, code_subset, payload):
        code, subset = code_subset
        elements = code.encode(payload)
        chosen = [elements[i] for i in subset]
        assert code.decode(chosen) == payload

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=8), payloads)
    def test_storage_overhead_matches_n_over_k(self, k, payload):
        code = ReedSolomonCode(2 * k, k)
        elements = code.encode(payload)
        stored = sum(len(element.data) for element in elements)
        payload_symbols = code.stripe_count(len(payload)) * code.block_size
        assert stored == payload_symbols * 2  # n / k = 2


class TestProductMatrixProperties:
    @settings(max_examples=25, deadline=None)
    @given(mbr_code_and_subsets(), payloads)
    def test_mbr_decode_from_any_k_and_repair_any_node(self, code_order, payload):
        code, order = code_order
        elements = code.encode(payload)
        # Decodability from an arbitrary k-subset.
        decoders = order[: code.k]
        assert code.decode([elements[i] for i in decoders]) == payload
        # Exact repair of an arbitrary node from the next d distinct helpers.
        failed = order[-1]
        helpers = [i for i in order if i != failed][: code.d]
        helper_data = {i: code.helper_data(i, elements[i].data, failed) for i in helpers}
        assert code.repair(failed, helper_data).data == elements[failed].data

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5), payloads)
    def test_msr_roundtrip_and_repair(self, k, payload):
        code = ProductMatrixMSRCode(n=2 * k, k=k)
        elements = code.encode(payload)
        assert code.decode(elements[k - 1 : 2 * k - 1]) == payload
        failed = 0
        helpers = {i: code.helper_data(i, elements[i].data, failed)
                   for i in range(1, code.d + 1)}
        assert code.repair(failed, helpers).data == elements[failed].data

    @settings(max_examples=25, deadline=None)
    @given(st.data(), payloads)
    def test_mbr_helper_data_is_helper_set_independent(self, data, payload):
        code = ProductMatrixMBRCode(n=8, k=3, d=4)
        elements = code.encode(payload)
        failed = data.draw(st.integers(min_value=0, max_value=7))
        helper = data.draw(st.integers(min_value=0, max_value=7).filter(lambda i: i != failed))
        once = code.helper_data(helper, elements[helper].data, failed)
        again = code.helper_data(helper, elements[helper].data, failed)
        assert once == again

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([ProductMatrixMBRCode(n=9, k=3, d=5), ProductMatrixMSRCode(n=9, k=4)]),
           st.integers(min_value=1, max_value=11), st.data())
    def test_helper_data_for_any_targets_is_one_projection_per_target(self, code, stripes, data):
        # Any bytes of the right length (no codeword needed) and any targets,
        # repeats and the helper itself included, in any order: entry i is
        # element_s . v_f for f = targets[i], v_f the first alpha entries of psi_f.
        alpha = code.element_size
        element = data.draw(st.binary(min_size=stripes * alpha, max_size=stripes * alpha))
        helper = data.draw(st.integers(0, code.n - 1))
        targets = data.draw(st.lists(st.integers(0, code.n - 1), max_size=12))

        def projection(stripe, failed):
            total = 0
            for symbol, weight in zip(stripe, code.encoding_matrix.data[failed][:alpha]):
                total ^= GF256.mul(symbol, weight)
            return total

        expected = tuple(
            bytes(projection(element[at:at + alpha], failed)
                  for at in range(0, len(element), alpha))
            for failed in targets)
        assert code.helper_data_for(helper, element, targets) == expected
        assert tuple(code.helper_data(helper, element, failed) for failed in targets) == expected


class TestLayeredCodeProperties:
    @settings(max_examples=20, deadline=None)
    @given(payloads, st.integers(min_value=0, max_value=4))
    def test_backend_write_then_regenerate_then_client_decode(self, payload, rotation):
        code = LayeredCode(n1=5, n2=6, k=3, d=4)
        backend = code.encode_for_backend(payload)
        l2_choices = [(i + rotation) % 6 for i in range(4)]
        l1_elements = {}
        for l1_server in range(3):
            helpers = {l2: code.helper_data(l2, backend[l2])[l1_server] for l2 in l2_choices}
            l1_elements[l1_server] = code.regenerate_l1_element(l1_server, helpers).data
        assert code.decode_from_l1(l1_elements) == payload

    @settings(max_examples=20, deadline=None)
    @given(payloads)
    def test_backend_alone_can_always_rebuild_the_value(self, payload):
        code = LayeredCode(n1=5, n2=6, k=3, d=4)
        backend = code.encode_for_backend(payload)
        subset = {i: backend[i].data for i in (1, 3, 5)}
        assert code.decode_from_backend(subset) == payload
