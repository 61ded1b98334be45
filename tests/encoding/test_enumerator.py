"""Tests for segment trace enumeration — DFS vs the paper-literal CSP."""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.distributed.computation import DistributedComputation
from repro.encoding.cut_encoder import timestamp_domain
from repro.encoding.enumerator import count_traces, enumerate_traces
from repro.encoding.trace_extractor import build_trace, segment_carry
from repro.mtl.trace import TimedTrace

from tests.conftest import small_computations


def fig3() -> DistributedComputation:
    return DistributedComputation.from_event_lists(
        2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
    )


class TestTimestampDomain:
    def test_unclamped_window(self):
        comp = fig3()
        event = comp.events[0]  # @1, epsilon 2
        domain = timestamp_domain(event, 2)
        assert domain.values == (0, 1, 2)

    def test_clamped_window(self):
        comp = fig3()
        event = comp.events[0]
        domain = timestamp_domain(event, 2, clamp_lo=1, clamp_hi=2)
        assert domain.values == (1,)

    def test_sampling_keeps_reading_and_extremes(self):
        comp = DistributedComputation.from_event_lists(20, {"P1": [(50, "a")]})
        event = comp.events[0]
        domain = timestamp_domain(event, 20, samples=3)
        assert set(domain.values) == {31, 50, 69}

    def test_sampling_noop_for_small_windows(self):
        comp = fig3()
        event = comp.events[0]
        assert timestamp_domain(event, 2, samples=5).values == (0, 1, 2)


class TestEnumeration:
    def test_monotone_timestamps(self):
        comp = fig3()
        for trace in enumerate_traces(comp.happened_before(), 2):
            assert list(trace.times) == sorted(trace.times)

    def test_respects_happened_before(self):
        comp = fig3()
        hb = comp.happened_before()
        # P1@1 precedes P2@5 under the epsilon rule (1 + 2 < 5): in every
        # trace, the {a}-then-... ordering must hold.  We check via event
        # count only: enumeration always yields full-length traces.
        for trace in enumerate_traces(hb, 2):
            assert len(trace) == 4

    def test_limit(self):
        comp = fig3()
        traces = list(enumerate_traces(comp.happened_before(), 2, limit=7))
        assert len(traces) == 7

    def test_deterministic(self):
        comp = fig3()
        first = list(enumerate_traces(comp.happened_before(), 2, limit=5))
        second = list(enumerate_traces(comp.happened_before(), 2, limit=5))
        assert first == second

    def test_epsilon_one_single_delta(self):
        comp = DistributedComputation.from_event_lists(
            1, {"P1": [(0, "a"), (5, "b")]}
        )
        traces = list(enumerate_traces(comp.happened_before(), 1))
        assert traces == [
            TimedTrace.from_pairs(
                [(traces[0].state(0), 0), (traces[0].state(1), 5)]
            )
        ]


class TestBackendAgreement:
    @settings(max_examples=30, deadline=None)
    @given(small_computations())
    def test_dfs_and_csp_enumerate_same_trace_set(self, comp):
        hb = comp.happened_before()
        dfs = set(enumerate_traces(hb, comp.epsilon, backend="dfs"))
        csp = set(enumerate_traces(hb, comp.epsilon, backend="csp"))
        assert dfs == csp

    @settings(max_examples=30, deadline=None)
    @given(small_computations())
    def test_count_positive(self, comp):
        assert count_traces(comp.happened_before(), comp.epsilon) >= 1

    @settings(max_examples=20, deadline=None)
    @given(small_computations())
    def test_clamping_only_removes_traces(self, comp):
        hb = comp.happened_before()
        lo, hi = comp.local_span()
        unclamped = set(enumerate_traces(hb, comp.epsilon))
        clamped = set(enumerate_traces(hb, comp.epsilon, clamp_lo=lo, clamp_hi=hi + 1))
        assert clamped <= unclamped

    @settings(max_examples=20, deadline=None)
    @given(small_computations())
    def test_sampling_only_removes_traces(self, comp):
        hb = comp.happened_before()
        full = set(enumerate_traces(hb, comp.epsilon))
        sampled = set(enumerate_traces(hb, comp.epsilon, timestamp_samples=2))
        assert sampled <= full
        assert sampled


def _admissible_choices(hb, epsilon, clamp_lo=None, clamp_hi=None):
    """Every ordered ``(event, timestamp)`` choice the segment admits: a
    plain walk over linear extensions x non-decreasing timestamps."""
    events = hb.events
    domains = [timestamp_domain(e, epsilon, clamp_lo, clamp_hi).values for e in events]

    def extend(chosen, mask, last):
        if len(chosen) == len(events):
            yield list(chosen)
            return
        for i, event in enumerate(events):
            if mask >> i & 1 or hb.predecessors_mask(i) & ~mask:
                continue
            for timestamp in domains[i]:
                if timestamp >= last:
                    chosen.append((event, timestamp))
                    yield from extend(chosen, mask | 1 << i, timestamp)
                    chosen.pop()

    yield from extend([], 0, 0)


class TestStatesPerCut:
    """The DFS builds one State per cut; ``build_trace`` folds them per
    trace.  Same traces, state for state."""

    CONTEXT = dict(
        base_valuation={"x": 1, "y": 7},
        frontier_props={"P2": frozenset({"c"}), "P9": frozenset({"q"})},
    )

    @settings(max_examples=40, deadline=None)
    @given(small_computations(deltas=True))
    def test_every_trace_is_build_trace_on_the_same_choices(self, comp):
        hb = comp.happened_before()
        lo, hi = comp.local_span()
        for window in ({}, {"clamp_lo": lo, "clamp_hi": hi + 1}):
            for context in ({}, self.CONTEXT):
                enumerated = Counter(enumerate_traces(hb, comp.epsilon, **window, **context))
                rebuilt = Counter(
                    build_trace(choice, **context)
                    for choice in _admissible_choices(hb, comp.epsilon, **window)
                )
                assert enumerated == rebuilt  # integer deltas: exact equality

    @settings(max_examples=20, deadline=None)
    @given(small_computations(deltas=True))
    def test_traces_share_one_state_object_per_cut(self, comp):
        traces = list(enumerate_traces(comp.happened_before(), comp.epsilon, **self.CONTEXT))
        shared = {id(state) for trace in traces for state in trace.states}
        assert len(shared) <= 2 ** len(comp) - 1
        assert len({id(trace.states[-1]) for trace in traces}) == 1  # the full cut

    def test_float_deltas_sum_in_event_order_on_every_trace(self):
        """0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1, and the
        three events are concurrent: whatever order a trace takes them in,
        the state of a cut carries the sum in ascending event index — the
        value ``segment_carry`` hands the next segment."""
        comp = DistributedComputation(3)
        for process, amount in (("P1", 0.1), ("P2", 0.2), ("P3", 0.3)):
            comp.add_event(process, 5, (), {"paid": amount})
        hb = comp.happened_before()
        carried, _ = segment_carry(hb.events)
        assert carried["paid"] == (0.1 + 0.2) + 0.3 != 0.3 + 0.2 + 0.1
        traces = list(enumerate_traces(hb, 3))
        assert len({id(trace.states[0]) for trace in traces}) == 3  # all orders occur
        for trace in traces:
            assert trace.states[-1].valuation["paid"] == carried["paid"]
        for choice in _admissible_choices(hb, 3):
            folded = build_trace(choice).states[-1].valuation["paid"]
            assert folded == pytest.approx(carried["paid"])
