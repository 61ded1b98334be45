"""Explicit-enumeration baseline monitor.

The comparator the paper argues against (Section I): enumerate *every*
admissible trace of the computation — every linear extension of ⇝ with
every admissible timestamp reassignment — and evaluate the finite-MTL
semantics on each.  Exponential, but trivially correct; the SMT-style
monitor is validated against it on small computations, and the ablation
benchmarks quantify the gap.
"""

from __future__ import annotations

from repro.distributed.computation import DistributedComputation
from repro.encoding.enumerator import enumerate_traces
from repro.errors import MonitorError
from repro.mtl.ast import Formula
from repro.mtl.semantics import satisfies
from repro.monitor.verdicts import MonitorResult
from repro.progression.progressor import close


class EnumerationMonitor:
    """Evaluate the formula on every admissible trace, no segmentation."""

    def __init__(
        self,
        formula: Formula,
        max_traces: int | None = None,
        timestamp_samples: int | None = None,
    ) -> None:
        self._formula = formula
        self._max_traces = max_traces
        self._timestamp_samples = timestamp_samples

    @property
    def formula(self) -> Formula:
        return self._formula

    def run(self, computation: DistributedComputation, budget=None) -> MonitorResult:
        result = MonitorResult(self._formula)
        if len(computation) == 0:
            result.record(close(self._formula))
            return result
        hb = computation.happened_before()
        enumerated = 0
        for trace in enumerate_traces(
            hb,
            computation.epsilon,
            limit=self._max_traces,
            timestamp_samples=self._timestamp_samples,
            budget=budget,
        ):
            enumerated += 1
            result.record(satisfies(trace, self._formula))
        if enumerated == 0:
            raise MonitorError("no admissible trace — inconsistent computation")
        if self._max_traces is not None and enumerated >= self._max_traces:
            result.exhaustive = False
            result.verdict_set_complete = False
        return result
