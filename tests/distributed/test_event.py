"""Unit tests for events and their timestamp windows."""

import pickle

import pytest

from repro.distributed.computation import DistributedComputation
from repro.distributed.event import Event, make_event
from repro.errors import ComputationError


class TestConstruction:
    def test_make_event_with_string_prop(self):
        event = make_event("P1", 0, 5, "a")
        assert event.props == frozenset({"a"})

    def test_make_event_with_iterable_props(self):
        event = make_event("P1", 0, 5, ("a", "b"))
        assert event.props == frozenset({"a", "b"})

    def test_make_event_with_deltas(self):
        event = make_event("P1", 0, 5, (), {"to.alice": 100})
        assert event.deltas["to.alice"] == 100

    def test_key(self):
        assert make_event("P1", 3, 5).key == ("P1", 3)

    def test_empty_process_rejected(self):
        with pytest.raises(ComputationError):
            Event("", 0, 5)

    def test_negative_seq_rejected(self):
        with pytest.raises(ComputationError):
            Event("P1", -1, 5)

    def test_negative_time_rejected(self):
        with pytest.raises(ComputationError):
            Event("P1", 0, -5)


class TestTimestampWindow:
    def test_epsilon_one_is_exact(self):
        assert make_event("P1", 0, 10).timestamp_window(1) == (10, 10)

    def test_symmetric_window(self):
        assert make_event("P1", 0, 10).timestamp_window(3) == (8, 12)

    def test_clamped_at_zero(self):
        assert make_event("P1", 0, 1).timestamp_window(5) == (0, 5)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ComputationError):
            make_event("P1", 0, 10).timestamp_window(0)

    def test_window_always_contains_reading(self):
        for sigma in (0, 1, 7, 100):
            for eps in (1, 2, 5):
                lo, hi = make_event("P1", 0, sigma).timestamp_window(eps)
                assert lo <= sigma <= hi


class TestEquality:
    def test_equal_events(self):
        assert make_event("P1", 0, 5, "a") == make_event("P1", 0, 5, "a")

    def test_deltas_participate_in_equality(self):
        with_deltas = make_event("P1", 0, 5, (), {"x": 1})
        without = make_event("P1", 0, 5)
        assert with_deltas != without

    def test_str_format(self):
        assert str(make_event("P1", 2, 5, "a")) == "P1[2]@5:a"


class TestPickling:
    def test_computation_pickles(self):
        """Events (with mappingproxy deltas) must survive the pool boundary."""
        computation = DistributedComputation(2)
        computation.add_event("P1", 0, "a", {"to.alice": 1.0})
        computation.add_event("P2", 1, "b")
        computation.happened_before()  # include the cached closure
        clone = pickle.loads(pickle.dumps(computation))
        assert clone.events == computation.events
        assert dict(clone.events[0].deltas) == {"to.alice": 1.0}
