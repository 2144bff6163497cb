"""Unit tests for the L2 server automaton and client edge cases."""

import pytest

from repro.core import messages as msg
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.core.tags import Tag
from repro.net.latency import FixedLatencyModel
from repro.net.messages import Message


def build_system(**kwargs):
    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    return LDSSystem(config, num_writers=2, num_readers=2,
                     latency_model=FixedLatencyModel(), **kwargs)


class TestL2Server:
    def test_initial_state_holds_coded_initial_value(self):
        system = build_system()
        for server in system.l2_servers:
            assert server.stored_tag == Tag.initial()
            assert len(server.stored_element.data) > 0

    def test_stale_write_code_elem_is_acked_but_not_stored(self):
        system = build_system()
        result = system.write(b"current version")
        system.run_until_idle()
        target = system.l2_servers[0]
        element_before = target.stored_element.data
        # Deliver a WRITE-CODE-ELEM with an older tag directly.
        stale = msg.WriteCodeElem(tag=Tag.initial(), coded_element=b"\x00" * len(element_before))
        target.on_message(system.config.l1_pid(0), stale)
        assert target.stored_tag == result.tag
        assert target.stored_element.data == element_before

    def test_newer_write_code_elem_replaces_stored_pair(self):
        system = build_system()
        system.write(b"v1")
        system.run_until_idle()
        target = system.l2_servers[0]
        newer_tag = Tag(99, "writer-0")
        replacement = msg.WriteCodeElem(tag=newer_tag,
                                        coded_element=target.stored_element.data)
        target.on_message(system.config.l1_pid(0), replacement)
        assert target.stored_tag == newer_tag

    def test_helper_response_carries_current_tag_and_regen_id(self):
        system = build_system()
        system.write(b"value for helpers")
        system.run_until_idle()
        target = system.l2_servers[0]
        request = msg.QueryCodeElem(reader_id="reader-0", l1_index=2, regen_id=7,
                                    op_id="read-op")
        captured = []
        target.send = lambda dest, message: captured.append((dest, message))  # type: ignore[assignment]
        target.on_message(system.config.l1_pid(2), request)
        destination, response = captured[0]
        assert destination == system.config.l1_pid(2)
        assert isinstance(response, msg.SendHelperElem)
        assert response.tag == target.stored_tag
        assert response.regen_id == 7
        assert response.data_size == pytest.approx(float(system.code.costs.helper_fraction))

    def test_helper_memo_follows_the_stored_pair_and_only_a_higher_tag_drops_it(self):
        system = build_system()
        first = system.write(b"the first value")
        system.run_until_idle()
        target = system.l2_servers[3]
        captured = []
        target.send = lambda dest, message: captured.append(message)  # type: ignore[assignment]

        def helper(l1_index):
            target.on_message(system.config.l1_pid(l1_index),
                              msg.QueryCodeElem(l1_index=l1_index))
            return captured[-1].tag, captured[-1].helper_data

        def fresh(value, l1_index):
            # Straight from the code, bypassing the server.
            element = system.code.code.encode(value)[system.code.l2_symbol_index(3)]
            return system.code.code.helper_data(element.index, element.data, l1_index)

        computed = []
        compute = system.code.helper_data
        system.code.helper_data = lambda **kwargs: computed.append(kwargs) or compute(**kwargs)

        assert target._helpers is None  # nothing asked since the store
        before = [helper(l1_index) for l1_index in range(5)]
        assert before == [(first.tag, fresh(b"the first value", i)) for i in range(5)]
        memo = target._helpers
        assert memo == tuple(data for _, data in before)
        other = system.code.encode_for_backend(b"another value!!")[3].data
        for tag in (Tag.initial(), first.tag):  # lower, equal: element and memo stay
            target.on_message(system.config.l1_pid(0),
                              msg.WriteCodeElem(tag=tag, coded_element=other))
            assert target._helpers is memo
            assert [helper(l1_index) for l1_index in range(5)] == before
        higher = Tag(first.tag.z + 1, "writer-1")
        target.on_message(system.config.l1_pid(0),
                          msg.WriteCodeElem(tag=higher, coded_element=other))
        assert target._helpers is None  # dropped with the element it described
        after = [helper(l1_index) for l1_index in range(5)]
        assert after == [(higher, fresh(b"another value!!", i)) for i in range(5)]
        assert after != [(higher, data) for _, data in before]
        # Fifteen requests, two stored elements: two computations.
        assert [call["stored"].data for call in computed] \
            == [system.code.encode_for_backend(b"the first value")[3].data, other]

    def test_unknown_messages_are_ignored(self):
        system = build_system()
        target = system.l2_servers[0]
        target.on_message("nobody", Message(kind="garbage"))
        assert target.stored_tag == Tag.initial()

    def test_a_subclass_dispatches_like_its_base(self):
        class PaddedWriteCodeElem(msg.WriteCodeElem):
            pass

        system = build_system()
        target = system.l2_servers[0]
        newer_tag = Tag(3, "writer-0")
        target.on_message(system.config.l1_pid(0), PaddedWriteCodeElem(
            tag=newer_tag, coded_element=target.stored_element.data))
        assert target.stored_tag == newer_tag


class TestClientEdgeCases:
    def test_writer_ignores_stale_phase_messages(self):
        system = build_system()
        writer = system.writers[0]
        result = system.write(b"done")
        # A late QueryTagResponse for the finished operation must be ignored.
        writer.on_message(system.config.l1_pid(0),
                          msg.QueryTagResponse(tag=Tag(50, "x"), op_id=result.op_id))
        assert not writer.busy

    def test_reader_ignores_duplicate_acks_from_same_server(self):
        system = build_system()
        system.write(b"x")
        reader = system.readers[0]
        op_id = system.invoke_read(reader=0)
        # Feed duplicated put-tag acks directly; quorum must count distinct senders.
        system.run_until_idle()
        assert op_id in system.results
        assert not reader.busy

    def test_operation_ids_are_unique_even_when_scheduled_in_advance(self):
        system = build_system()
        first = system.invoke_write(b"a", writer=0, at=10.0)
        second = system.invoke_write(b"b", writer=0, at=200.0)
        assert first != second
        system.run_until_idle()
        assert first in system.results and second in system.results

    def test_run_until_complete_raises_for_impossible_operation(self):
        system = build_system()
        with pytest.raises(RuntimeError):
            system.run_until_complete("not-a-real-operation")

    def test_client_lookup_by_pid_and_invalid_selector(self):
        system = build_system()
        result = system.write(b"by pid", writer="writer-1")
        assert result.client_id == "writer-1"
        with pytest.raises(KeyError):
            system.write(b"nope", writer="writer-99")

    def test_storage_sample_convenience(self):
        system = build_system()
        sample = system.storage_sample()
        assert sample.l2_cost > 0
        assert system.alive_l1_count() == 5
        assert system.alive_l2_count() == 6
