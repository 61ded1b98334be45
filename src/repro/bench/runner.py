"""Parameter-sweep harness: run the monitor across settings and time it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bench.workload import WorkloadSpec, formula_for, generate_workload, model_for_formula
from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError
from repro.monitor.factory import make_monitor
from repro.monitor.verdicts import MonitorResult
from repro.mtl.ast import Formula
from repro.service import BatchReport, MonitorService, MonitorTask, default_workers
from repro.service.tasks import run_monitor_task


@dataclass
class SweepPoint:
    """One measured configuration of a sweep."""

    label: str
    runtime_seconds: float
    verdicts: frozenset[bool]
    traces_enumerated: int
    events: int
    extra: dict[str, object] = field(default_factory=dict)


def run_monitor_timed(
    formula: Formula,
    computation: DistributedComputation,
    segments: int = 1,
    max_traces_per_segment: int | None = None,
    max_distinct_per_segment: int | None = None,
    backend: str = "dfs",
) -> tuple[MonitorResult, float]:
    """Run the monitor once, returning (result, wall-clock seconds)."""
    monitor = make_monitor(
        formula,
        "smt",
        segments=segments,
        max_traces_per_segment=max_traces_per_segment,
        max_distinct_per_segment=max_distinct_per_segment,
        backend=backend,
    )
    started = time.perf_counter()
    result = monitor.run(computation)
    elapsed = time.perf_counter() - started
    return result, elapsed


def measure_point(
    label: str,
    formula_name: str,
    workload: WorkloadSpec,
    segments: int,
    max_traces_per_segment: int | None = 2000,
    max_distinct_per_segment: int | None = None,
    window_ms: int = 1000,
) -> SweepPoint:
    """Generate a workload for a formula and time the monitor on it."""
    formula = formula_for(formula_name, workload.processes, window_ms)
    computation = generate_workload(workload)
    result, elapsed = run_monitor_timed(
        formula,
        computation,
        segments=segments,
        max_traces_per_segment=max_traces_per_segment,
        max_distinct_per_segment=max_distinct_per_segment,
    )
    traces = sum(r.traces_enumerated for r in result.segment_reports)
    return SweepPoint(
        label=label,
        runtime_seconds=elapsed,
        verdicts=result.verdicts,
        traces_enumerated=traces,
        events=len(computation),
        extra={"exhaustive": result.exhaustive},
    )


def sweep(points: list[tuple[str, Callable[[], SweepPoint]]]) -> list[SweepPoint]:
    """Evaluate labelled thunks in order (simple, deterministic)."""
    return [thunk() for _, thunk in points]


def run_batch_timed(
    formula: Formula,
    computations: Sequence[DistributedComputation],
    monitor: str = "smt",
    workers: int | None = None,
    service: MonitorService | None = None,
    **monitor_kwargs,
) -> BatchReport:
    """Monitor a batch of computations over a worker pool.

    The orchestration counterpart of :func:`run_monitor_timed`: the
    returned :class:`~repro.service.BatchReport` carries wall-clock,
    per-verdict totals, and worker utilization — the numbers the
    parallel-scaling benchmark plots.

    Pass a persistent :class:`~repro.service.MonitorService` as
    ``service`` to amortise pool startup across repeated batches (the
    ``workers`` argument is then ignored in favour of the service's own
    pool); without one, a temporary service of ``workers`` processes
    (``None`` picks :func:`~repro.service.default_workers`) is spawned
    and torn down around this batch.  One worker — or one item — runs
    inline (no pool, no IPC), so serial baselines measure the algorithm,
    not queue round-trips.
    """
    if service is not None:
        return service.map(computations, formula, monitor=monitor, **monitor_kwargs)
    computations = list(computations)
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise MonitorError(f"workers must be >= 1, got {workers}")
    workers = min(workers, max(1, len(computations)))
    if workers > 1:
        with MonitorService(workers=workers) as pool:
            return pool.map(computations, formula, monitor=monitor, **monitor_kwargs)
    started = time.perf_counter()
    items = [
        run_monitor_task(
            MonitorTask(
                index=index,
                kind=monitor,
                formula=formula,
                kwargs=monitor_kwargs,
                computation=computation,
            )
        )
        for index, computation in enumerate(computations)
    ]
    wall = time.perf_counter() - started
    return BatchReport(items=items, workers=1, wall_seconds=wall)


def batch_sweep_point(label: str, report: BatchReport) -> SweepPoint:
    """Summarise a batch report as one sweep point (for the reporting tables)."""
    totals = report.verdict_totals
    return SweepPoint(
        label=label,
        runtime_seconds=report.wall_seconds,
        verdicts=frozenset(v for v, c in totals.items() if c > 0),
        traces_enumerated=sum(
            r.traces_enumerated
            for item in report.ok_items
            for r in item.result.segment_reports
        ),
        events=len(report.items),
        extra={
            "workers": report.workers,
            "utilization": report.utilization,
            "errors": len(report.errors),
        },
    )
