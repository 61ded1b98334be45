"""Verdict bookkeeping for distributed monitoring.

Because a partially synchronous computation corresponds to *many* possible
traces, the monitoring problem's answer is a **set of verdicts**
(Section III): ``{True}``, ``{False}``, or ``{True, False}`` when
different admissible orderings/timings disagree.  We additionally track
how many trace classes produced each verdict, which the blockchain
experiments use to gauge how fragile a protocol parameterisation is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.mtl.ast import FALSE_ID, TRUE_ID, Formula


@dataclass
class SegmentReport:
    """Diagnostics for one monitored segment."""

    index: int
    events: int
    traces_enumerated: int
    distinct_residuals: int
    truncated: bool
    saturated: bool = False
    #: True when enumeration of this segment was preempted (budget cancel
    #: or deadline) before completing — distinct from ``truncated``, which
    #: is the graceful trace-budget stop.
    preempted: bool = False


@dataclass
class MonitorResult:
    """Outcome of monitoring one computation against one formula."""

    formula: Formula
    verdict_counts: dict[bool, int] = field(default_factory=dict)
    segment_reports: list[SegmentReport] = field(default_factory=list)
    #: True when every admissible trace class was enumerated (counts exact).
    exhaustive: bool = True
    #: True when the verdict *set* is provably complete even if counts are
    #: not (e.g. enumeration stopped after both verdicts were witnessed).
    verdict_set_complete: bool = True

    # -- verdict-set view -------------------------------------------------------

    @property
    def verdicts(self) -> frozenset[bool]:
        """The paper's verdict set ``[(E, ⇝) |=_F phi]``."""
        return frozenset(v for v, c in self.verdict_counts.items() if c > 0)

    @property
    def is_deterministic(self) -> bool:
        """True when every admissible trace agrees on the verdict."""
        return len(self.verdicts) == 1

    @property
    def truncated(self) -> bool:
        """True when any segment's enumeration hit a budget.

        Verdict counts (and possibly the verdict set) are partial; the
        monitor finished instead of hanging on a combinatorial blowup.
        """
        return any(report.truncated for report in self.segment_reports)

    @property
    def preempted(self) -> bool:
        """True when any segment's enumeration was preempted mid-flight."""
        return any(report.preempted for report in self.segment_reports)

    @property
    def may_be_satisfied(self) -> bool:
        return True in self.verdicts

    @property
    def may_be_violated(self) -> bool:
        return False in self.verdicts

    @property
    def definitely_satisfied(self) -> bool:
        return self.verdicts == frozenset({True})

    @property
    def definitely_violated(self) -> bool:
        return self.verdicts == frozenset({False})

    def count(self, verdict: bool) -> int:
        return self.verdict_counts.get(verdict, 0)

    def record(self, verdict: bool, count: int = 1) -> None:
        self.verdict_counts[verdict] = self.verdict_counts.get(verdict, 0) + count

    def record_decided(self, id_counts: Mapping[int, int]) -> list[tuple[int, int]]:
        """Record the decided entries of a segment's ``arena id -> count``
        column and return the rest: the ``(id, count)`` column carried
        into the next segment.  The constants' ids are fixed sentinels."""
        carried: list[tuple[int, int]] = []
        for fid, count in id_counts.items():
            if fid == TRUE_ID:
                self.record(True, count)
            elif fid == FALSE_ID:
                self.record(False, count)
            else:
                carried.append((fid, count))
        return carried

    def merge(self, other: "MonitorResult", weight: int = 1) -> "MonitorResult":
        """Fold another result into this one (in place, returns self).

        Verdict counts add (scaled by ``weight`` trace classes), segment
        reports concatenate, and the exactness flags combine
        conservatively.  Used by :meth:`BatchReport.merged
        <repro.service.reports.BatchReport.merged>` to combine the results
        of disjoint computations sharing a formula.
        """
        for verdict, count in other.verdict_counts.items():
            self.record(verdict, count * weight)
        self.segment_reports.extend(other.segment_reports)
        self.exhaustive = self.exhaustive and other.exhaustive
        self.verdict_set_complete = (
            self.verdict_set_complete and other.verdict_set_complete
        )
        return self

    def __str__(self) -> str:
        parts = []
        if self.may_be_satisfied:
            parts.append(f"T×{self.count(True)}")
        if self.may_be_violated:
            parts.append(f"F×{self.count(False)}")
        tag = "" if self.exhaustive else " (truncated)"
        return "{" + ", ".join(parts) + "}" + tag
