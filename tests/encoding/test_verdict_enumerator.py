"""Tests for per-segment verdict/residual enumeration."""

from repro.distributed.computation import DistributedComputation
from repro.encoding.verdict_enumerator import enumerate_segment_outcomes
from repro.mtl import ast, parse
from repro.mtl.interval import Interval


def fig3():
    return DistributedComputation.from_event_lists(
        2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
    )


class TestOutcomes:
    def test_counts_sum_to_traces(self):
        comp = fig3()
        spec = parse("a U[0,6) b")
        outcome = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7
        )
        assert sum(outcome.residuals.values()) == outcome.traces_enumerated
        assert outcome.traces_enumerated == 130

    def test_constant_residuals_for_decided_spec(self):
        comp = fig3()
        outcome = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {parse("a"): 1}, None, boundary=7
        )
        assert set(outcome.residuals) <= {ast.TRUE, ast.FALSE}

    def test_carried_counts_multiply(self):
        comp = fig3()
        spec = parse("a")
        single = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7
        )
        tripled = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 3}, None, boundary=7
        )
        for residual, count in single.residuals.items():
            assert tripled.residuals[residual] == 3 * count

    def test_max_traces_truncates(self):
        comp = fig3()
        outcome = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {parse("a U b"): 1}, None,
            boundary=7, max_traces=5,
        )
        assert outcome.truncated
        assert outcome.traces_enumerated == 5

    def test_max_distinct_stops(self):
        comp = fig3()
        outcome = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {parse("a U[0,6) b"): 1}, None,
            boundary=7, max_distinct=1,
        )
        assert outcome.truncated
        assert len(outcome.residuals) == 1

    def test_saturation_stops_when_both_verdicts_seen(self):
        comp = fig3()
        outcome = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {parse("a U[0,6) b"): 1}, None,
            boundary=7, saturate_final=True,
        )
        assert outcome.saturated
        assert outcome.traces_enumerated < 130

    def test_residual_obligation_carries_over(self):
        """A window extending past the boundary leaves a pending F."""
        comp = DistributedComputation.from_event_lists(1, {"P1": [(0, "a")]})
        spec = ast.eventually(ast.atom("b"), Interval.bounded(0, 100))
        outcome = enumerate_segment_outcomes(
            comp.happened_before(), 1, {spec: 1}, None, boundary=10
        )
        (residual,) = outcome.residuals
        assert isinstance(residual, ast.Eventually)
        assert residual.interval == Interval.bounded(0, 90)


class TestStreaming:
    """The generator-driven pipeline behind ``enumerate_segment_outcomes``."""

    def test_stream_yields_per_trace_and_settles(self):
        from repro.encoding.verdict_enumerator import stream_segment_outcomes

        comp = fig3()
        spec = parse("a U[0,6) b")
        snapshots = list(
            stream_segment_outcomes(
                comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7
            )
        )
        # One yield per trace plus the settled final snapshot, all the
        # same mutating outcome instance.
        final = snapshots[-1]
        assert len(snapshots) == final.traces_enumerated + 1
        assert all(s is final for s in snapshots)
        drained = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7
        )
        assert final.residuals == drained.residuals
        assert final.traces_enumerated == drained.traces_enumerated == 130

    def test_empty_column_yields_one_empty_outcome_without_enumerating(self):
        from repro.encoding.verdict_enumerator import stream_segment_outcomes

        class Untouchable:
            """Any use of the happened-before argument is an error."""

            def __getattr__(self, name):
                raise AssertionError(f"enumerator touched hb.{name}")

        for carried in ({}, []):
            (outcome,) = stream_segment_outcomes(
                Untouchable(), 2, carried, None, boundary=7, max_traces=1, saturate_final=True
            )
            assert outcome.traces_enumerated == 0 and outcome.distinct == 0
            assert not (outcome.truncated or outcome.saturated or outcome.preempted)

    def test_stream_counts_grow_monotonically(self):
        from repro.encoding.verdict_enumerator import stream_segment_outcomes

        comp = fig3()
        spec = parse("F[0,8) b")
        seen = 0
        for outcome in stream_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7
        ):
            assert outcome.traces_enumerated >= seen
            seen = outcome.traces_enumerated
            assert sum(outcome.residuals.values()) <= outcome.traces_enumerated

    def test_abandoning_the_stream_stops_enumeration(self):
        from repro.encoding.verdict_enumerator import stream_segment_outcomes

        comp = fig3()
        spec = parse("a U[0,6) b")
        stream = stream_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7
        )
        first = next(stream)
        assert first.traces_enumerated == 1
        stream.close()  # must not raise; enumeration is abandoned mid-way

    def test_stream_honours_truncation_flags(self):
        from repro.encoding.verdict_enumerator import stream_segment_outcomes

        comp = fig3()
        spec = parse("a U[0,6) b")
        final = None
        for final in stream_segment_outcomes(
            comp.happened_before(), comp.epsilon, {spec: 1}, None, boundary=7,
            max_traces=5,
        ):
            pass
        assert final.truncated
        assert final.traces_enumerated == 5

    def test_structurally_equal_carried_keys_merge(self):
        """Two structurally equal (but distinct-object) carried keys are
        one residual class after interning — their counts add."""
        from repro.mtl import ast as mtl_ast

        comp = fig3()
        one = mtl_ast.Until(mtl_ast.Atom("a"), mtl_ast.Atom("b"), Interval.bounded(0, 6))
        other = parse("a U[0,6) b")
        assert one == other and one is not other
        # dict with both keys collapses at construction already; feed the
        # duplicates through two dicts instead.
        merged = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {one: 2}, None, boundary=7
        )
        canonical = enumerate_segment_outcomes(
            comp.happened_before(), comp.epsilon, {other: 2}, None, boundary=7
        )
        assert merged.residuals == canonical.residuals
