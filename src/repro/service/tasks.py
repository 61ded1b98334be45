"""Worker-side task payloads and entry points for the monitor service.

Everything here must be importable and picklable: these functions run in
``multiprocessing`` worker processes, so the task payloads carry only
plain data — computations (events pickle through
:func:`~repro.distributed.event.make_event`), formulas (value-equal
dataclasses), and keyword dictionaries.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass
from typing import Any

from repro.distributed.computation import DistributedComputation
from repro.monitor.factory import make_monitor
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
