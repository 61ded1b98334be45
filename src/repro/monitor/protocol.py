"""The unified ``Monitor`` protocol.

Every monitoring engine in this package — the paper's segmented
solver-backed monitor, the memoized fast monitor, the explicit
enumeration baseline, and the online wrapper — answers the same
question: *given a partially synchronous computation, what is the
verdict multiset of the specification?*  Callers (benchmarks, the
experiment script, the monitor service) should depend on this
protocol plus :func:`~repro.monitor.factory.make_monitor` instead of
hard-coding a concrete engine.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.distributed.computation import DistributedComputation
from repro.monitor.verdicts import MonitorResult
from repro.mtl.ast import Formula


@runtime_checkable
class Monitor(Protocol):
    """A monitoring engine for one MTL specification.

    Implementations must be repeatable: ``run`` may be called any number
    of times, on any number of computations, without cross-talk.
    """

    @property
    def formula(self) -> Formula:
        """The monitored specification."""
        ...

    def run(self, computation: DistributedComputation) -> MonitorResult:
        """Monitor a complete computation and return its verdict multiset."""
        ...
