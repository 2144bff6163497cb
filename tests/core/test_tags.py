"""Unit tests for version tags."""

import operator

import pytest

from repro.core.tags import INITIAL_TAG, Tag


class TestTagOrder:
    def test_initial_tag(self):
        assert Tag.initial() == Tag(0, "")
        assert INITIAL_TAG == Tag.initial()

    def test_counter_dominates(self):
        assert Tag(2, "a") > Tag(1, "z")

    def test_writer_id_breaks_ties(self):
        assert Tag(1, "writer-b") > Tag(1, "writer-a")

    def test_total_order_is_consistent(self):
        tags = [Tag(1, "b"), Tag(0, ""), Tag(2, "a"), Tag(1, "a")]
        ordered = sorted(tags)
        assert ordered == [Tag(0, ""), Tag(1, "a"), Tag(1, "b"), Tag(2, "a")]

    def test_equality_and_hash(self):
        assert Tag(3, "w") == Tag(3, "w")
        assert hash(Tag(3, "w")) == hash(Tag(3, "w"))
        assert Tag(3, "w") != Tag(3, "x")
        assert len({Tag(1, "a"), Tag(1, "a"), Tag(2, "a")}) == 2

    def test_comparison_with_non_tag(self):
        assert Tag(1, "a").__eq__(42) is NotImplemented

    def test_all_six_comparisons_agree_with_tuple_order(self):
        tags = [Tag(0, ""), Tag(1, "a"), Tag(1, "b"), Tag(2, ""), Tag(2, "a")]
        for compare in (operator.lt, operator.le, operator.gt, operator.ge,
                        operator.eq, operator.ne):
            for left in tags:
                for right in tags:
                    assert compare(left, right) is compare(
                        (left.z, left.writer_id), (right.z, right.writer_id))

    def test_every_comparison_refuses_a_plain_tuple(self):
        tag = Tag(1, "a")
        for method in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            assert getattr(tag, method)((1, "a")) is NotImplemented
        assert tag != (1, "a")
        with pytest.raises(TypeError):
            tag < (2, "a")

    def test_next_tag_is_strictly_larger(self):
        tag = Tag(7, "zzz")
        successor = tag.next_tag("aaa")
        assert successor > tag
        assert successor.z == 8
        assert successor.writer_id == "aaa"

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            Tag(-1, "w")

    def test_ordering_transitive(self):
        a, b, c = Tag(1, "x"), Tag(1, "y"), Tag(2, "a")
        assert a < b < c
        assert a < c
