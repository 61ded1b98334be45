"""The parallel monitoring orchestrator (compatibility wrapper).

.. deprecated::
    :class:`ParallelMonitor` is kept as a thin per-call wrapper over the
    persistent :class:`~repro.service.MonitorService`.  It spawns a fresh
    pool on every ``run``/``run_batch`` call — exactly the fork tax the
    service exists to amortise — so new code should hold a service
    instead::

        with MonitorService(workers=4) as svc:
            report = svc.map(computations, formula=spec)

    The wrapper remains supported for one-shot scripts and for the
    segment-parallel ``run`` entry point.

Two ways to spend cores:

* **Batch mode** (:meth:`ParallelMonitor.run_batch`) — fan a list of
  independent computations out over the pool; results come back in input
  order and a poisoned computation is captured per-item instead of
  killing the batch.

* **Segment-parallel mode** (:meth:`ParallelMonitor.run`) — one large
  computation.  The segmented monitor's pipeline carries a *set* of
  residual formulas between segments; once more than one residual is in
  flight, progression of each residual over the remaining segments is
  independent of the others.  The orchestrator runs the pipeline
  serially until the carried set is big enough to split, shards it
  round-robin across workers, resumes every shard from the same segment
  boundary, and merges the shard results with
  :meth:`~repro.monitor.verdicts.MonitorResult.merge`.  Verdict
  multisets are bit-identical to the serial path (enumeration budgets,
  when set, apply per shard — counts under ``max_distinct`` truncation
  may then differ).
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError
from repro.monitor.smt_monitor import SmtMonitor
from repro.monitor.verdicts import MonitorResult, SegmentReport
from repro.progression.progressor import close_id
from repro.mtl.ast import Formula, intern_id
from repro.service import MonitorService, default_workers
from repro.service.reports import BatchReport
from repro.service.tasks import (
    MonitorTask,
    SegmentShardTask,
    run_monitor_task,
)

__all__ = ["BatchReport", "ParallelMonitor", "default_workers"]


class ParallelMonitor:
    """Shard monitoring work over a worker pool (one pool per call).

    Parameters
    ----------
    formula:
        The MTL specification (shared by every computation).
    monitor:
        Engine kind for batch mode — any :func:`~repro.monitor.factory.make_monitor`
        kind, including ``"auto"``.  Segment-parallel mode always uses the
        segmented smt monitor (the only engine with a resumable pipeline).
    workers:
        Pool size; ``None`` picks :func:`default_workers`.  ``workers=1``
        runs everything inline — no pool, handy under debuggers.
    chunksize:
        Accepted for backward compatibility and ignored: the service pool
        load-balances per item instead of chunking.
    min_shard_residuals:
        Segment-parallel mode fans out only once at least this many
        residual formulas are carried (below it the split cannot win).
    intra_segment_parts:
        Enable **intra-segment** parallelism instead of residual
        sharding: every segment's root-frontier enumeration is split
        into up to this many independent sub-tasks fanned across the
        pool (see
        :func:`~repro.encoding.verdict_enumerator.partitioned_segment_outcomes`),
        merging to a verdict multiset bit-identical to the serial walk.
        Unlike residual sharding this parallelises from the *first*
        segment — including single-segment runs, where sharding has
        nothing to split.  Requires the default ``dfs`` backend; must be
        >= 2.
    **monitor_kwargs:
        Forwarded to the engine constructor (``segments=``, budgets, ...).
    """

    def __init__(
        self,
        formula: Formula,
        monitor: str = "smt",
        workers: int | None = None,
        chunksize: int | None = None,
        min_shard_residuals: int = 2,
        intra_segment_parts: int | None = None,
        endpoints: Sequence[object] | None = None,
        **monitor_kwargs,
    ) -> None:
        if workers is not None and workers < 1:
            raise MonitorError(f"workers must be >= 1, got {workers}")
        if min_shard_residuals < 2:
            raise MonitorError(
                f"min_shard_residuals must be >= 2, got {min_shard_residuals}"
            )
        if intra_segment_parts is not None and intra_segment_parts < 2:
            raise MonitorError(
                f"intra_segment_parts must be >= 2, got {intra_segment_parts}"
            )
        self._formula = formula
        self._kind = monitor
        self._endpoints = list(endpoints) if endpoints is not None else None
        if self._endpoints is not None:
            if workers is not None and workers != len(self._endpoints):
                raise MonitorError(
                    f"workers={workers} contradicts the {len(self._endpoints)} endpoints"
                )
            self._workers = len(self._endpoints)
        else:
            self._workers = workers if workers is not None else default_workers()
        self._chunksize = chunksize
        self._min_shard = min_shard_residuals
        self._intra_parts = intra_segment_parts
        self._monitor_kwargs = dict(monitor_kwargs)

    @property
    def formula(self) -> Formula:
        return self._formula

    @property
    def workers(self) -> int:
        return self._workers

    # -- batch mode ---------------------------------------------------------------

    def run_batch(
        self, computations: Sequence[DistributedComputation]
    ) -> BatchReport:
        """Monitor every computation; results keep input order.

        Delegates to a temporary :class:`~repro.service.MonitorService`
        (each worker builds its own engine via ``make_monitor``, so
        ``monitor="auto"`` re-selects per item; failures are captured per
        item as :class:`~repro.service.tasks.BatchItem` errors).  With one
        worker — or one item — everything runs inline without a pool.
        """
        computations = list(computations)
        workers = min(self._workers, max(1, len(computations)))
        if self._endpoints is not None:
            # An explicit endpoint list is the pool: use it as given
            # (remote agents cost nothing extra to include for one item).
            with MonitorService(
                endpoints=self._endpoints,
                formula=self._formula,
                monitor=self._kind,
                **self._monitor_kwargs,
            ) as service:
                return service.map(computations)
        if workers <= 1 or len(computations) <= 1:
            started = time.perf_counter()
            items = [
                run_monitor_task(
                    MonitorTask(
                        index=index,
                        kind=self._kind,
                        formula=self._formula,
                        kwargs=self._monitor_kwargs,
                        computation=computation,
                    )
                )
                for index, computation in enumerate(computations)
            ]
            wall = time.perf_counter() - started
            return BatchReport(items=items, workers=workers, wall_seconds=wall)
        with MonitorService(
            workers=workers,
            formula=self._formula,
            monitor=self._kind,
            **self._monitor_kwargs,
        ) as service:
            return service.map(computations)

    # -- segment-parallel mode ------------------------------------------------------

    def run(self, computation: DistributedComputation) -> MonitorResult:
        """Monitor one computation, parallelising across its segments.

        The pipeline runs serially until the carried residual set reaches
        ``min_shard_residuals`` with segments still to go, then shards the
        residuals across service workers and merges the shard results.
        Falls back to the plain serial monitor when the computation is too
        small, the pool has one worker, or the carried set never grows.

        The worker pool spawns on a background thread *while* the serial
        prefix enumerates, so shards start executing as soon as the
        carried set crosses the threshold instead of serialising prefix
        enumeration behind pool startup.
        """
        engine = SmtMonitor(self._formula, **self._monitor_kwargs)
        if self._workers <= 1 or len(computation) == 0:
            return engine.run(computation)

        if self._intra_parts is not None:
            return self._run_intra_segment(engine, computation)

        segments = engine.segments_of(computation)
        if len(segments) <= 1:
            # One segment can never reach a shardable boundary: stay serial
            # and skip the pool entirely.
            return engine.run(computation)

        hb = computation.happened_before()
        result = MonitorResult(self._formula)
        state = engine.initial_state()
        warmup = _PoolWarmup(
            {"endpoints": self._endpoints}
            if self._endpoints is not None
            else {"workers": self._workers}
        )
        warmup.start()
        try:
            order = 0
            while order < len(segments):
                if len(state.column) >= self._min_shard:
                    break  # enough independent work to split; segments[order:] go parallel
                if not state.column:
                    break
                state = engine.step(
                    hb, segments, order, state, result, computation.epsilon
                )
                order += 1

            if order >= len(segments) or len(state.column) < self._min_shard:
                for fid, count in state.column:
                    result.record(close_id(fid), count)
                return result

            shards = self._shard_residuals(state.carried)
            tasks = [
                SegmentShardTask(
                    computation=computation,
                    formula=self._formula,
                    kwargs=self._monitor_kwargs,
                    carried=shard,
                    anchor=state.anchor,
                    base_valuation=state.base_valuation,
                    frontier=state.frontier,
                    start=order,
                )
                for shard in shards
            ]
            with warmup.service() as service:
                futures = [service.submit_shard(task) for task in tasks]
                shard_results = [future.result() for future in futures]
        finally:
            warmup.discard()
        for shard_result in shard_results:
            result.merge(shard_result)
        self._collapse_segment_reports(result)
        return result

    def _run_intra_segment(
        self, engine: SmtMonitor, computation: DistributedComputation
    ) -> MonitorResult:
        """Run the whole pipeline client-side, fanning each segment's
        enumeration across a pool.

        The pipeline (segmentation, residual carry, closing) stays on
        this thread; only the hot enumeration of each segment's root
        frontier is partitioned into ``segment_part`` sub-tasks.  Works
        for single-segment computations too — exactly the case residual
        sharding cannot touch.  The pool is spawned here and closed in
        the one ``finally`` below, whatever the run outcome.
        """
        service = MonitorService(
            **(
                {"endpoints": self._endpoints}
                if self._endpoints is not None
                else {"workers": self._workers}
            )
        )
        try:
            engine.attach_partitioner(
                service.submit_segment_part, self._intra_parts
            )
            return engine.run(computation)
        finally:
            engine.detach_partitioner()
            service.close()

    @staticmethod
    def _collapse_segment_reports(result: MonitorResult) -> None:
        """Fold the K per-shard reports of each parallel segment into one.

        Every shard re-enumerates its segments, so trace and residual
        counts *add* (they reflect work actually done) while the
        truncation flags OR — leaving one report per segment index, like
        the serial monitor produces.
        """
        by_index: dict[int, SegmentReport] = {}
        order: list[int] = []
        for report in result.segment_reports:
            existing = by_index.get(report.index)
            if existing is None:
                by_index[report.index] = SegmentReport(
                    index=report.index,
                    events=report.events,
                    traces_enumerated=report.traces_enumerated,
                    distinct_residuals=report.distinct_residuals,
                    truncated=report.truncated,
                    saturated=report.saturated,
                    preempted=report.preempted,
                )
                order.append(report.index)
            else:
                existing.traces_enumerated += report.traces_enumerated
                existing.distinct_residuals += report.distinct_residuals
                existing.truncated = existing.truncated or report.truncated
                existing.saturated = existing.saturated or report.saturated
                existing.preempted = existing.preempted or report.preempted
        result.segment_reports = [by_index[index] for index in order]

    def _shard_residuals(
        self, carried: dict[Formula, int]
    ) -> list[dict[Formula, int]]:
        """Deterministic round-robin split of the carried residuals.

        Oversharded to two shards per worker (when the carried set
        allows): a worker that processes consecutive shards of the same
        computation reuses the segment-trace cache instead of
        re-enumerating, and finer shards balance skewed residual costs.
        The split never changes the merged verdict multiset.

        Ordering is by :func:`~repro.mtl.ast.intern_id` — the residual's
        dense intern-arena row id, an O(1) attribute read instead of
        stringifying every formula tree, and just as deterministic:
        equal carried sets split identically within a process whatever
        insertion order produced them.  Shards carry materialized
        ``Formula`` objects (the pipeline's columnar id column never
        crosses a process boundary — arena ids are process-local).
        """
        shard_count = min(self._workers * 2, len(carried))
        ordered = sorted(carried.items(), key=lambda kv: intern_id(kv[0]))
        shards: list[dict[Formula, int]] = [{} for _ in range(shard_count)]
        for position, (residual, count) in enumerate(ordered):
            shards[position % shard_count][residual] = count
        return shards


class _PoolWarmup:
    """Spawns a :class:`MonitorService` pool concurrently with the serial
    prefix of a segment-parallel run.

    ``service()`` joins the spawn and hands the pool over (re-raising a
    spawn failure); ``discard()`` retires an unused pool — the prefix
    decided everything, or failed — *without blocking the caller*: the
    serial result is already computed at that point, so teardown happens
    on a background thread.  This is the overlap's cost model: a run
    that never shards pays one speculative pool spawn (in background
    CPU, not latency) in exchange for shards starting the moment the
    carried set crosses the threshold on runs that do.
    """

    def __init__(self, pool_kwargs: dict) -> None:
        self._pool_kwargs = pool_kwargs
        self._service: MonitorService | None = None
        self._error: BaseException | None = None
        self._taken = False
        self._thread = threading.Thread(
            target=self._spawn, name="parallel-monitor-pool-warmup", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _spawn(self) -> None:
        try:
            self._service = MonitorService(**self._pool_kwargs)
        except BaseException as exc:  # noqa: BLE001 — surfaced in service()
            self._error = exc

    def service(self) -> MonitorService:
        self._thread.join()
        if self._error is not None:
            raise self._error
        self._taken = True
        return self._service

    def discard(self) -> None:
        if self._taken:
            return  # the with-block already closed it

        def close_when_spawned() -> None:
            self._thread.join()
            if self._service is not None:
                self._service.close()

        threading.Thread(
            target=close_when_spawned,
            name="parallel-monitor-pool-discard",
            daemon=True,
        ).start()
