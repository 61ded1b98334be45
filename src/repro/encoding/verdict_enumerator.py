"""Enumerating the distinct progression outcomes of one segment.

Each segment trace progresses the carried formula into a residual; the
*set of distinct residuals* (with trace-class counts) is the segment's
verdict information.  This mirrors the paper's repeated SMT invocations
with previous verdicts blocked (Section VI-A's "number of truth values
per segment" parameter, Fig 5e): ``max_distinct`` stops the enumeration
as soon as that many distinct outcomes exist.

The pipeline is *streaming*: :func:`stream_segment_outcomes` pulls one
trace at a time from the (lazy) enumerator and progresses every carried
residual over it before the next trace is produced, yielding the running
:class:`SegmentOutcome` after each trace.  Memory stays bounded by the
carried-residual set, and early truncation (``max_distinct``, verdict
saturation) stops the underlying enumeration mid-stream.
:func:`enumerate_segment_outcomes` is the drain-it-all wrapper.

Hot-path notes: the inner loop is *columnar* — carried residuals live as
``(arena id, count)`` pairs, and one segment's traces all go through one
:class:`~repro.progression.columnar.ColumnarSegmentProgressor` (a batch
pass per trace, or, for a narrow column, forward steps that share each
DFS prefix), touching no Formula objects at all.  Setting
``REPRO_COLUMNAR=0`` in the environment selects the legacy object path
(a :class:`~repro.progression.progressor.TraceProgressor` walk per
trace); the differential suite runs both and asserts bit-identical
residuals.  :class:`SegmentOutcome` stores ids internally and
materializes the ``residuals`` dict lazily at the API boundary.
"""

from __future__ import annotations

import os
from typing import Iterator, Mapping, Sequence

from repro.distributed.hb import HappenedBefore, HappenedBeforeView
from repro.encoding.enumerator import enumerate_traces
from repro.errors import PreemptedError
from repro.mtl.ast import Formula, formula_of, intern_formula
from repro.progression.budget import Budget
from repro.progression.columnar import ColumnarSegmentProgressor
from repro.progression.progressor import TraceProgressor, anchor_shift, close_id

#: Default per-segment trace budget for the online/offline monitors.
#: Admissible-trace counts explode combinatorially with segment length
#: (every interleaving × every admissible timestamp assignment), so an
#: unbounded default can simply never finish (see ROADMAP's ``F[0,30) b``
#: blowup).  The budget is far above anything exhaustive verification
#: needs in practice; hitting it flags the result ``truncated`` instead
#: of hanging.  Pass ``max_traces_per_segment=None`` explicitly for
#: unbounded enumeration.
DEFAULT_TRACE_BUDGET = 20_000


def _columnar_enabled() -> bool:
    """True unless the environment opts out (``REPRO_COLUMNAR=0``)."""
    return os.environ.get("REPRO_COLUMNAR", "1") != "0"


class SegmentOutcome:
    """Distinct residual formulas after one segment, with class counts.

    Residuals are stored as intern-arena ids (the columnar kernel's
    native currency); the ``residuals`` dict of canonical
    :class:`~repro.mtl.ast.Formula` objects is materialized lazily and
    cached, so boundary consumers (snapshots, reports) see
    the same contract as before while the hot loop never boxes ids.
    """

    __slots__ = (
        "_id_counts",
        "_residuals_cache",
        "traces_enumerated",
        "truncated",
        "saturated",
        "preempted",
    )

    def __init__(
        self,
        residuals: Mapping[Formula, int] | None = None,
        traces_enumerated: int = 0,
        truncated: bool = False,
        saturated: bool = False,
        preempted: bool = False,
    ) -> None:
        self._id_counts: dict[int, int] = {}
        self._residuals_cache: dict[Formula, int] | None = None
        self.traces_enumerated = traces_enumerated
        self.truncated = truncated
        #: True when enumeration stopped because the *final verdict set*
        #: was already saturated ({True, False}) — lossless for the
        #: verdict set.
        self.saturated = saturated
        #: True when the execution budget preempted enumeration (cancel
        #: or deadline) — the counts are partial *and* the stop was not
        #: requested by the trace budget; distinct from ``truncated``.
        self.preempted = preempted
        if residuals:
            for residual, count in residuals.items():
                self.add(residual, count)

    @property
    def residuals(self) -> dict[Formula, int]:
        """The distinct residuals as canonical Formula objects."""
        cached = self._residuals_cache
        if cached is None:
            cached = {
                formula_of(fid): count for fid, count in self._id_counts.items()
            }
            self._residuals_cache = cached
        return cached

    @property
    def distinct(self) -> int:
        """Number of distinct residuals (no materialization)."""
        return len(self._id_counts)

    def id_counts(self) -> dict[int, int]:
        """The residual column itself: arena id -> trace-class count."""
        return self._id_counts

    def add(self, residual: Formula, count: int = 1) -> None:
        self.add_id(intern_formula(residual)._intern_id, count)

    def add_id(self, fid: int, count: int = 1) -> None:
        counts = self._id_counts
        counts[fid] = counts.get(fid, 0) + count
        self._residuals_cache = None

    def __reduce__(self):
        # Arena ids are process-local; a pickled outcome crosses the wire
        # as materialized formulas and re-interns on arrival.
        return (
            _restore_outcome,
            (
                dict(self.residuals),
                self.traces_enumerated,
                self.truncated,
                self.saturated,
                self.preempted,
            ),
        )


def _restore_outcome(
    residuals: dict,
    traces_enumerated: int,
    truncated: bool,
    saturated: bool,
    preempted: bool = False,
) -> SegmentOutcome:
    return SegmentOutcome(residuals, traces_enumerated, truncated, saturated, preempted)


def carried_column(
    carried: Mapping[Formula, int] | Sequence[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Normalize a carried set to a merged ``(arena id, count)`` column.

    Accepts the classic formula mapping *or* an already-interned id
    column (the pipeline's carried state, which never materializes
    Formula objects between segments).
    """
    merged: dict[int, int] = {}
    if isinstance(carried, Mapping):
        for residual, count in carried.items():
            fid = intern_formula(residual)._intern_id
            merged[fid] = merged.get(fid, 0) + count
    else:
        for fid, count in carried:
            merged[fid] = merged.get(fid, 0) + count
    return list(merged.items())


def stream_segment_outcomes(
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    carried: Mapping[Formula, int] | Sequence[tuple[int, int]],
    anchor: int | None,
    boundary: int,
    clamp_lo: int | None = None,
    clamp_hi: int | None = None,
    max_traces: int | None = None,
    max_distinct: int | None = None,
    backend: str = "dfs",
    base_valuation: Mapping[str, float] | None = None,
    frontier_props: Mapping[str, frozenset[str]] | None = None,
    saturate_final: bool = False,
    timestamp_samples: int | None = None,
    budget: Budget | None = None,
) -> Iterator[SegmentOutcome]:
    """Progress every carried residual over the segment's traces, lazily.

    Yields the running :class:`SegmentOutcome` (one mutating instance)
    after each progressed trace, and once more after enumeration ends
    with the truncation flags settled — so ``for outcome in ...: pass``
    leaves ``outcome`` equal to the drained result.  Traces are pulled
    from the enumerator one at a time; stopping early (truncation,
    saturation, or the consumer abandoning the generator) stops the
    enumeration itself.

    ``carried`` maps residual formulas (anchored at ``anchor``; None means
    "anchored at the first observation", i.e. the initial formula) to the
    number of trace classes that produced them — or is an already-interned
    ``(arena id, count)`` column (the pipeline's carried state).
    ``boundary`` is the segment's upper time boundary, where the new
    residuals are anchored.

    ``saturate_final`` is only valid for the *last* segment: enumeration
    stops once the closed verdicts of the distinct residuals cover both
    True and False — the verdict set cannot grow further, mirroring the
    paper's "one SMT query per distinct verdict" loop.

    ``budget``, when given, is checkpointed throughout enumeration and
    progression; tripping it (cancel flag, deadline) stops the stream
    with ``outcome.preempted = True`` instead of propagating — the final
    yield still happens, with partial counts.  Its trace-limit facet
    supplies ``max_traces`` when the keyword is omitted.

    An empty ``carried`` yields one empty outcome (``traces_enumerated ==
    0``, no flag set) without enumerating anything.
    """
    if budget is not None and max_traces is None:
        max_traces = budget.trace_limit()
    outcome = SegmentOutcome()
    closed_verdicts: set[bool] = set()
    # Interned carried residuals: structurally equal residuals collapse
    # to one (id, count) column entry up front.
    pairs = carried_column(carried)
    if not pairs:
        # Nothing carried, nothing to progress: every verdict is already
        # decided, so the segment's traces are not worth enumerating.
        yield outcome
        return

    trace_iter = enumerate_traces(
        hb,
        epsilon,
        clamp_lo=clamp_lo,
        clamp_hi=clamp_hi,
        limit=max_traces,
        backend=backend,
        base_valuation=base_valuation,
        frontier_props=frontier_props,
        timestamp_samples=timestamp_samples,
        budget=budget,
    )
    columnar = _columnar_enabled()
    kernel = ColumnarSegmentProgressor(pairs) if columnar else None
    # Legacy path: one anchor-shift per distinct trace start time, not
    # per (trace, residual) — traces share a handful of start times.
    shifted_by_shift: dict[int, list[tuple[Formula, int]]] = {}
    id_counts = outcome.id_counts()
    try:
        for trace in trace_iter:
            outcome.traces_enumerated += 1
            shift = 0 if anchor is None else trace.start_time - anchor
            if columnar:
                for fid, count in kernel.progress_trace(
                    trace, shift, max(boundary, trace.end_time), budget=budget
                ):
                    if saturate_final and fid not in id_counts:
                        closed_verdicts.add(close_id(fid))
                    outcome.add_id(fid, count)
            else:
                shifted = shifted_by_shift.get(shift)
                if shifted is None:
                    shifted = [
                        (anchor_shift(formula_of(fid), shift), count)
                        for fid, count in pairs
                    ]
                    shifted_by_shift[shift] = shifted
                progressor = TraceProgressor(
                    trace, max(boundary, trace.end_time), budget=budget
                )
                for formula, count in shifted:
                    progressed = progressor.progress(formula, 0)
                    fid = progressed._intern_id
                    if saturate_final and fid not in id_counts:
                        closed_verdicts.add(close_id(fid))
                    outcome.add_id(fid, count)
            yield outcome
            if saturate_final and closed_verdicts >= {True, False}:
                outcome.saturated = True
                break
            if max_distinct is not None and outcome.distinct >= max_distinct:
                outcome.truncated = True
                break
    except PreemptedError:
        # Cooperative unwind: surface the partial outcome flagged
        # PREEMPTED instead of propagating — callers choose whether to
        # abort (OnlineMonitor rolls back) or report (SmtMonitor).
        outcome.preempted = True
    else:
        if max_traces is not None and outcome.traces_enumerated >= max_traces:
            outcome.truncated = True
    yield outcome


def enumerate_segment_outcomes(
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    carried: Mapping[Formula, int],
    anchor: int | None,
    boundary: int,
    **kwargs,
) -> SegmentOutcome:
    """Drain :func:`stream_segment_outcomes` and return the final outcome."""
    outcome = SegmentOutcome()
    for outcome in stream_segment_outcomes(
        hb, epsilon, carried, anchor, boundary, **kwargs
    ):
        pass
    return outcome
