"""The segmented, solver-backed central monitor (the paper's algorithm).

Pipeline per Section V: chop the computation into ``g`` segments; for each
segment enumerate the admissible traces (solver models of the cut
encoding), progress every carried residual formula over every trace, and
deduplicate the outcomes; after the last segment, close residuals to
final verdicts.

Exactness: with ``g = 1`` the monitor computes exactly the paper's verdict
set (validated against the explicit-enumeration baseline in tests).  With
``g > 1`` timestamps are clamped to segment windows so per-segment traces
concatenate monotonically — the trade-off Section V-C motivates
(documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.computation import DistributedComputation
from repro.distributed.hb import HappenedBefore
from repro.distributed.segmentation import Segment, segment_computation
from repro.encoding.trace_extractor import segment_carry
from repro.encoding.verdict_enumerator import (
    DEFAULT_TRACE_BUDGET,
    enumerate_segment_outcomes,
)
from repro.errors import MonitorError, PreemptedError
from repro.mtl.ast import Formula, intern_id
from repro.monitor.verdicts import MonitorResult, SegmentReport
from repro.progression.budget import Budget
from repro.progression.progressor import close, close_id


@dataclass
class PipelineState:
    """Everything the segment pipeline carries from one segment to the next.

    The per-segment loop is a fold over this state: the carried residual
    column (``(arena id, trace-class count)`` pairs — the kernel's native
    currency, so a residual crossing a boundary builds no object), the
    time anchor the residuals are anchored at, and the accumulated
    valuation/frontier context of the already-consumed prefix.  It never
    leaves the process: arena ids are process-local.
    """

    column: list[tuple[int, int]]
    anchor: int | None = None
    base_valuation: dict[str, float] = field(default_factory=dict)
    frontier: dict[str, frozenset[str]] = field(default_factory=dict)


class SmtMonitor:
    """Central monitor for MTL over partially synchronous computations.

    Parameters
    ----------
    formula:
        The MTL specification.
    segments:
        The paper's ``g`` — how many windows to chop the computation into.
    max_traces_per_segment / max_distinct_per_segment:
        Enumeration budgets; when either triggers, the result is flagged
        non-exhaustive.  ``max_traces_per_segment`` defaults to
        :data:`~repro.encoding.verdict_enumerator.DEFAULT_TRACE_BUDGET`
        (admissible-trace counts explode combinatorially, so an
        unbounded default can hang forever); pass ``None`` explicitly
        for unbounded enumeration.  ``max_distinct_per_segment``
        reproduces the paper's "number of truth values per segment"
        knob (Fig 5e).
    backend:
        ``"dfs"`` (default fast path) or ``"csp"`` (the paper-literal cut
        encoding solved by the constraint engine).
    saturate:
        When True (default), the last segment's enumeration stops as soon
        as both verdicts have been witnessed — the verdict *set* is then
        provably complete ({True, False} is maximal) but the per-verdict
        trace counts are partial.  Set False for count-exact runs (used
        by the baseline-equivalence tests).
    """

    def __init__(
        self,
        formula: Formula,
        segments: int = 1,
        max_traces_per_segment: int | None = DEFAULT_TRACE_BUDGET,
        max_distinct_per_segment: int | None = None,
        backend: str = "dfs",
        saturate: bool = True,
        timestamp_samples: int | None = None,
    ) -> None:
        if segments < 1:
            raise MonitorError(f"segments must be >= 1, got {segments}")
        self._formula = formula
        self._segments = segments
        self._max_traces = max_traces_per_segment
        self._max_distinct = max_distinct_per_segment
        self._backend = backend
        self._saturate = saturate
        self._timestamp_samples = timestamp_samples

    @property
    def formula(self) -> Formula:
        return self._formula

    def run(
        self, computation: DistributedComputation, budget: Budget | None = None
    ) -> MonitorResult:
        """Monitor a complete computation and return its verdict set."""
        result = MonitorResult(self._formula)
        if len(computation) == 0:
            # No observations at all: close the specification directly
            # (strong F/U obligations are violated, weak G satisfied).
            result.record(close(self._formula))
            return result
        hb = computation.happened_before()
        segments = self.segments_of(computation)
        state = self.initial_state()
        for order in range(len(segments)):
            if not state.column:
                break
            state = self.step(
                hb, segments, order, state, result, computation.epsilon, budget=budget
            )
        for fid, count in state.column:
            result.record(close_id(fid), count)
        return result

    # -- the segment fold ----------------------------------------------------------

    def initial_state(self) -> PipelineState:
        """The pipeline state before any segment has been consumed."""
        return PipelineState([(intern_id(self._formula), 1)])

    def segments_of(self, computation: DistributedComputation) -> list[Segment]:
        """The non-empty segments the pipeline will process, in order."""
        return [
            s for s in segment_computation(computation, self._segments) if not s.is_empty()
        ]

    def step(
        self,
        hb: HappenedBefore,
        segments: list[Segment],
        order: int,
        state: PipelineState,
        result: MonitorResult,
        epsilon: int,
        budget: Budget | None = None,
    ) -> PipelineState:
        """Consume ``segments[order]``: enumerate its traces, progress every
        carried residual, record decided verdicts into ``result``, and
        return the state carried into the next segment.

        Preemption (``budget`` tripping) appends a ``preempted`` segment
        report and raises :class:`PreemptedError` *without* returning a
        new state — the fold aborts, nothing is committed."""
        segment = segments[order]
        is_first = order == 0
        is_last = order == len(segments) - 1
        index_map = hb.index_map()
        indices = [index_map[e.key] for e in segment.events]
        view = hb.restricted_to(indices)
        clamp_lo = None if is_first else segment.lo
        clamp_hi = None if is_last else segment.hi
        outcome = enumerate_segment_outcomes(
            view,
            epsilon,
            state.column,
            state.anchor,
            boundary=segment.hi,
            clamp_lo=clamp_lo,
            clamp_hi=clamp_hi,
            max_traces=self._max_traces,
            max_distinct=self._max_distinct,
            backend=self._backend,
            base_valuation=state.base_valuation,
            frontier_props=state.frontier,
            saturate_final=self._saturate and is_last,
            timestamp_samples=self._timestamp_samples,
            budget=budget,
        )
        if outcome.preempted:
            result.exhaustive = False
            result.verdict_set_complete = False
            result.segment_reports.append(
                SegmentReport(
                    index=segment.index,
                    events=len(segment.events),
                    traces_enumerated=outcome.traces_enumerated,
                    distinct_residuals=outcome.distinct,
                    truncated=outcome.truncated,
                    preempted=True,
                )
            )
            raise PreemptedError(
                f"segment {segment.index} preempted after "
                f"{outcome.traces_enumerated} traces"
            )
        if outcome.truncated:
            result.exhaustive = False
            result.verdict_set_complete = False
        if self._timestamp_samples is not None:
            result.exhaustive = False
            result.verdict_set_complete = False
        if outcome.saturated:
            result.exhaustive = False  # counts partial, set complete
        result.segment_reports.append(
            SegmentReport(
                index=segment.index,
                events=len(segment.events),
                traces_enumerated=outcome.traces_enumerated,
                distinct_residuals=outcome.distinct,
                truncated=outcome.truncated,
                saturated=outcome.saturated,
            )
        )

        base_valuation, frontier = segment_carry(
            segment.events, state.base_valuation, state.frontier
        )
        return PipelineState(
            column=result.record_decided(outcome.id_counts()),
            anchor=segment.hi,
            base_valuation=base_valuation,
            frontier=frontier,
        )


def monitor(
    formula: Formula,
    computation: DistributedComputation,
    segments: int = 1,
    **kwargs,
) -> MonitorResult:
    """One-shot convenience wrapper around :class:`SmtMonitor`."""
    return SmtMonitor(formula, segments=segments, **kwargs).run(computation)
