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
carried-residual set (plus the shared trace cache when enabled), early
truncation (``max_distinct``, verdict saturation) stops the underlying
enumeration mid-stream, and incremental consumers — the segment-parallel
orchestrator watching for the carried set to cross its shard threshold —
can act on partial outcomes without waiting for the segment to drain.
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
import time
from typing import Hashable, Iterator, Mapping, Sequence

from repro.distributed.hb import HappenedBefore, HappenedBeforeView
from repro.encoding.enumerator import enumerate_traces, root_frontier
from repro.encoding.trace_cache import shared_traces
from repro.errors import CancelledError, PreemptedError
from repro.mtl.ast import Formula, formula_of, intern_formula
from repro.progression.budget import Budget
from repro.progression.columnar import (
    ColumnarSegmentProgressor,
    pack_carried_column,
    unpack_carried_column,
)
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
    cached, so boundary consumers (shard split, snapshots, reports) see
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
    column (the partitioned sub-task path, which ships the column on the
    wire and never materializes Formula objects).
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
    cache_key: Hashable | None = None,
    budget: Budget | None = None,
    root_branches: Sequence[tuple[int, int]] | None = None,
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
    ``(arena id, count)`` column (the partitioned sub-task path).
    ``boundary`` is the segment's upper time boundary, where the new
    residuals are anchored.

    ``saturate_final`` is only valid for the *last* segment: enumeration
    stops once the closed verdicts of the distinct residuals cover both
    True and False — the verdict set cannot grow further, mirroring the
    paper's "one SMT query per distinct verdict" loop.

    ``cache_key``, when given, shares the trace enumeration through the
    process-local :mod:`~repro.encoding.trace_cache` — the key must
    capture every argument that shapes the traces (events, epsilon,
    clamps, backend, limit, valuation context).

    ``budget``, when given, is checkpointed throughout enumeration and
    progression; tripping it (cancel flag, deadline) stops the stream
    with ``outcome.preempted = True`` instead of propagating — the final
    yield still happens, with partial counts.  Its trace-limit facet
    supplies ``max_traces`` when the keyword is omitted.
    ``root_branches`` restricts the DFS to the given root choices (see
    :func:`~repro.encoding.enumerator.root_frontier`).

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

    def traces():
        return enumerate_traces(
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
            root_branches=root_branches,
        )

    trace_iter = traces() if cache_key is None else shared_traces(cache_key, traces)
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


def partition_branches(
    branches: Sequence[tuple[int, int]], parts: int
) -> list[list[tuple[int, int]]]:
    """Round-robin split of the root frontier into ``parts`` sub-tasks.

    Round-robin (not contiguous chunks) because `_diverse_first` front-
    loads the verdict-flipping timestamps: striping spreads the expensive
    early branches across workers instead of handing them all to part 0.
    """
    parts = max(1, min(parts, len(branches)))
    groups: list[list[tuple[int, int]]] = [[] for _ in range(parts)]
    for index, branch in enumerate(branches):
        groups[index % parts].append(branch)
    return groups


def partitioned_segment_outcomes(
    submit,
    parts: int,
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    carried: Mapping[Formula, int] | Sequence[tuple[int, int]],
    anchor: int | None,
    boundary: int,
    clamp_lo: int | None = None,
    clamp_hi: int | None = None,
    max_traces: int | None = None,
    backend: str = "dfs",
    base_valuation: Mapping[str, float] | None = None,
    frontier_props: Mapping[str, frozenset[str]] | None = None,
    timestamp_samples: int | None = None,
    budget: Budget | None = None,
) -> SegmentOutcome:
    """Enumerate one segment with its root frontier fanned across workers.

    The DFS tree splits at the root: each ``(event, timestamp)`` first
    choice heads an independent subtree, so a partition of
    :func:`~repro.encoding.enumerator.root_frontier` enumerates disjoint
    trace sets whose union is exactly the serial walk.  Verdict multisets
    are order-independent, so summing the per-part ``(id, count)``
    columns reproduces the serial :class:`SegmentOutcome` bit-for-bit
    (when no part truncates).

    ``submit`` takes a :class:`~repro.service.tasks.SegmentPartTask` and
    returns a future with ``done()``/``result()``/``cancel()`` — the
    ``MonitorService.submit_segment_part`` surface.  The carried column
    crosses the wire in its packed form (see
    :func:`~repro.progression.columnar.pack_carried_column`): sliced, not
    materialized.  Falls back to the serial walk when the frontier or
    ``parts`` is too small to split, or the backend is not the DFS.

    Preemption propagates: tripping ``budget`` while waiting cancels
    every in-flight sub-task (the service drops pending parts and
    preempts running ones) and returns the merged partial outcome with
    ``preempted=True``; a worker-side preemption of any part flags the
    merged outcome the same way.
    """
    if budget is not None and max_traces is None:
        max_traces = budget.trace_limit()
    branches = (
        root_frontier(hb, epsilon, clamp_lo, clamp_hi, timestamp_samples)
        if backend == "dfs"
        else []
    )
    if parts < 2 or len(branches) < 2:
        return enumerate_segment_outcomes(
            hb,
            epsilon,
            carried,
            anchor,
            boundary,
            clamp_lo=clamp_lo,
            clamp_hi=clamp_hi,
            max_traces=max_traces,
            backend=backend,
            base_valuation=base_valuation,
            frontier_props=frontier_props,
            timestamp_samples=timestamp_samples,
            budget=budget,
        )

    from repro.service.tasks import SegmentPartTask  # cycle: tasks -> monitor -> here

    pairs = carried_column(carried)
    column = pack_carried_column(pairs)
    events = list(hb.events)
    masks = [hb.predecessors_mask(i) for i in range(len(events))]
    futures = []
    for group in partition_branches(branches, parts):
        task = SegmentPartTask(
            events=events,
            predecessor_masks=masks,
            epsilon=epsilon,
            carried_column=column,
            anchor=anchor,
            boundary=boundary,
            clamp_lo=clamp_lo,
            clamp_hi=clamp_hi,
            max_traces=max_traces,
            base_valuation=dict(base_valuation) if base_valuation else None,
            frontier_props=dict(frontier_props) if frontier_props else None,
            timestamp_samples=timestamp_samples,
            branches=tuple(group),
        )
        futures.append(submit(task))

    outcome = SegmentOutcome()
    preempted = False
    try:
        pending = list(futures)
        while pending:
            still_waiting = []
            for future in pending:
                if not future.done():
                    still_waiting.append(future)
            if budget is not None:
                budget.checkpoint()
            if still_waiting:
                time.sleep(0.002)
            pending = still_waiting
    except PreemptedError:
        preempted = True
        for future in futures:
            future.cancel()  # drops pending parts, preempts running ones

    for future in futures:
        if not future.done():
            continue
        try:
            part_column, part_traces, part_truncated, part_preempted = future.result()
        except (PreemptedError, CancelledError):
            # A preempted part (or one dropped before execution after our
            # cancel) contributes nothing; the merged outcome is flagged.
            preempted = True
            continue
        for fid, count in unpack_carried_column(part_column):
            outcome.add_id(fid, count)
        outcome.traces_enumerated += part_traces
        outcome.truncated = outcome.truncated or part_truncated
        preempted = preempted or part_preempted
    outcome.preempted = preempted
    return outcome
