"""Worker-side task payloads and entry points for the monitor service.

Everything here must be importable and picklable: these functions run in
``multiprocessing`` worker processes, so the task payloads carry only
plain data — computations (events pickle through
:func:`~repro.distributed.event.make_event`), formulas (value-equal
dataclasses), and keyword dictionaries.

(Re-homed from ``repro.parallel.worker``, which keeps re-exporting these
names for existing callers.)
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.distributed.computation import DistributedComputation
from repro.distributed.event import Event
from repro.encoding.verdict_enumerator import carried_column
from repro.monitor.factory import make_monitor
from repro.monitor.smt_monitor import PipelineState, SmtMonitor
from repro.monitor.verdicts import MonitorResult
from repro.mtl.ast import Formula
from repro.progression.budget import Budget


@dataclass
class MonitorTask:
    """One batch item: monitor ``computation`` with a freshly built engine."""

    index: int
    kind: str
    formula: Formula
    kwargs: dict[str, Any]
    computation: DistributedComputation


@dataclass
class BatchItem:
    """The outcome of one batch item (result, captured error, or cancel)."""

    index: int
    result: MonitorResult | None
    error: str | None
    seconds: float
    worker: int
    cancelled: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SegmentShardTask:
    """Resume the segment pipeline from ``start`` with a residual shard."""

    computation: DistributedComputation
    formula: Formula
    kwargs: dict[str, Any]
    carried: dict[Formula, int]
    anchor: int | None
    base_valuation: dict[str, float]
    frontier: dict[str, frozenset[str]]
    start: int


@dataclass
class SegmentPartTask:
    """One root-frontier slice of a single segment's enumeration.

    Carries everything :func:`run_segment_part` needs to enumerate its
    ``branches`` of the DFS root frontier independently: the segment's
    events and happened-before topology (as predecessor bitmasks — the
    :class:`FrozenTopology` shim reconstructs the enumeration view), the
    carried residual column in its packed wire form (see
    :func:`~repro.progression.columnar.pack_carried_column` — sliced,
    never materialized), and the clamp/boundary window of the segment.
    """

    events: list[Event]
    predecessor_masks: list[int]
    epsilon: int
    carried_column: Any
    anchor: int | None
    boundary: int
    clamp_lo: int | None
    clamp_hi: int | None
    max_traces: int | None
    base_valuation: dict[str, float] | None
    frontier_props: dict[str, frozenset[str]] | None
    timestamp_samples: int | None
    branches: tuple[tuple[int, int], ...]


class FrozenTopology:
    """A happened-before view rebuilt from shipped predecessor masks.

    Quacks like :class:`~repro.distributed.hb.HappenedBeforeView` as far
    as the DFS enumerator cares: ``events`` and ``predecessors_mask``.
    """

    __slots__ = ("events", "_masks")

    def __init__(self, events: Sequence[Event], masks: Sequence[int]) -> None:
        self.events = list(events)
        self._masks = list(masks)

    def predecessors_mask(self, index: int) -> int:
        return self._masks[index]


def _accepts_budget(run) -> bool:
    """True when a monitor's ``run`` can take the ``budget`` kwarg."""
    try:
        params = inspect.signature(run).parameters
    except (TypeError, ValueError):  # builtins/extensions without signatures
        return False
    return "budget" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def run_monitor_task(task: MonitorTask, budget: Budget | None = None) -> BatchItem:
    """Monitor one computation, capturing any failure as data.

    A poisoned computation (inconsistent log, an engine limit such as the
    fast monitor's event cap, a malformed formula) must not kill the
    batch: the exception is returned in the item, never raised — a
    preempted run surfaces as a ``PreemptedError: ...`` item error.
    """
    started = time.perf_counter()
    try:
        engine = make_monitor(
            task.formula, task.kind, computation=task.computation, **task.kwargs
        )
        if budget is None or not _accepts_budget(engine.run):
            # Registered third-party engines may predate the budget kwarg
            # (the Monitor protocol only requires run(computation)); such
            # a run is simply not preemptible mid-flight.
            result = engine.run(task.computation)
        else:
            result = engine.run(task.computation, budget=budget)
        error = None
    except Exception as exc:  # noqa: BLE001 — per-item isolation is the point
        result = None
        error = f"{type(exc).__name__}: {exc}"
    return BatchItem(
        index=task.index,
        result=result,
        error=error,
        seconds=time.perf_counter() - started,
        worker=os.getpid(),
    )


def run_segment_shard(
    task: SegmentShardTask, budget: Budget | None = None
) -> MonitorResult:
    """Continue the segment pipeline for one shard of carried residuals.

    Trace caching is enabled: shards of the same computation enumerate
    identical segment traces, so a worker that processes several shards
    (or repeated runs of one computation) reuses the enumeration instead
    of redoing it (see :mod:`repro.encoding.trace_cache`).
    """
    engine = SmtMonitor(task.formula, cache_traces=True, **task.kwargs)
    state = PipelineState(
        column=carried_column(task.carried),
        anchor=task.anchor,
        base_valuation=dict(task.base_valuation),
        frontier=dict(task.frontier),
    )
    return engine.run_from(task.computation, state, start=task.start, budget=budget)


def run_segment_part(task: SegmentPartTask, budget: Budget | None = None):
    """Enumerate one slice of a segment's root frontier on a worker.

    Returns ``(packed_column, traces_enumerated, truncated, preempted)``
    — the progressed residual column re-packed for the trip home, plus
    the flags the merge folds together.  Worker-side preemption (the
    request's budget cancelled by a client drop) surfaces as
    ``preempted=True`` with partial counts, never as an abandoned worker.
    """
    from repro.encoding.verdict_enumerator import enumerate_segment_outcomes
    from repro.progression.columnar import pack_carried_column, unpack_carried_column

    hb = FrozenTopology(task.events, task.predecessor_masks)
    pairs = unpack_carried_column(task.carried_column)
    outcome = enumerate_segment_outcomes(
        hb,
        task.epsilon,
        pairs,
        task.anchor,
        boundary=task.boundary,
        clamp_lo=task.clamp_lo,
        clamp_hi=task.clamp_hi,
        max_traces=task.max_traces,
        base_valuation=task.base_valuation,
        frontier_props=task.frontier_props,
        timestamp_samples=task.timestamp_samples,
        budget=budget,
        root_branches=task.branches,
    )
    column = pack_carried_column(list(outcome.id_counts().items()))
    return (column, outcome.traces_enumerated, outcome.truncated, outcome.preempted)
