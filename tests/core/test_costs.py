"""Unit tests for the storage cost tracker."""

import pytest

from repro.core.costs import StorageCostTracker
from repro.core.tags import Tag


class TestStorageTracker:
    def test_l1_add_and_remove(self):
        tracker = StorageCostTracker()
        tracker.value_added(1.0, "l1-0", Tag(1, "w"), 1.0)
        tracker.value_added(1.5, "l1-1", Tag(1, "w"), 1.0)
        assert tracker.l1_cost == pytest.approx(2.0)
        tracker.value_removed(2.0, "l1-0", Tag(1, "w"))
        assert tracker.l1_cost == pytest.approx(1.0)

    def test_peak_tracking(self):
        tracker = StorageCostTracker()
        tracker.value_added(1.0, "l1-0", Tag(1, "w"), 1.0)
        tracker.value_added(1.0, "l1-0", Tag(2, "w"), 1.0)
        tracker.value_removed(2.0, "l1-0", Tag(1, "w"))
        assert tracker.l1_peak == pytest.approx(2.0)
        assert tracker.l1_cost == pytest.approx(1.0)

    def test_removing_unknown_value_is_harmless(self):
        tracker = StorageCostTracker()
        tracker.value_removed(1.0, "l1-0", Tag(9, "w"))
        assert tracker.l1_cost == 0.0
        assert tracker.events == []

    def test_l2_storage_overwrites_per_server(self):
        tracker = StorageCostTracker()
        tracker.l2_element_stored("l2-0", 0.4)
        tracker.l2_element_stored("l2-1", 0.4)
        tracker.l2_element_stored("l2-0", 0.4)  # same server again
        assert tracker.l2_cost == pytest.approx(0.8)

    def test_temporary_clear_time(self):
        tracker = StorageCostTracker()
        tag = Tag(1, "w")
        tracker.value_added(1.0, "l1-0", tag, 1.0)
        tracker.value_added(1.0, "l1-1", tag, 1.0)
        tracker.value_removed(4.0, "l1-0", tag)
        tracker.value_removed(6.0, "l1-1", tag)
        assert tracker.temporary_clear_time(tag) == pytest.approx(6.0)

    def test_temporary_clear_time_none_while_still_stored(self):
        tracker = StorageCostTracker()
        tracker.value_added(1.0, "l1-0", Tag(1, "w"), 1.0)
        assert tracker.temporary_clear_time(Tag(1, "w")) is None

    def test_temporary_clear_time_ignores_newer_tags(self):
        tracker = StorageCostTracker()
        old, new = Tag(1, "w"), Tag(2, "w")
        tracker.value_added(1.0, "l1-0", old, 1.0)
        tracker.value_removed(2.0, "l1-0", old)
        tracker.value_added(3.0, "l1-0", new, 1.0)  # still live, but newer
        assert tracker.temporary_clear_time(old) == pytest.approx(2.0)
