"""Batch aggregation for :meth:`MonitorService.map <repro.service.MonitorService.map>`."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitor.verdicts import MonitorResult
from repro.mtl.ast import Formula
from repro.service.tasks import BatchItem


@dataclass
class BatchReport:
    """Aggregate outcome of one monitored batch.

    Per-verdict totals over the successful items, wall-clock time, and
    worker utilization (total busy seconds across items divided by
    ``workers * wall``; 1.0 means the pool never idled).
    """

    items: list[BatchItem] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0

    @property
    def ok_items(self) -> list[BatchItem]:
        return [item for item in self.items if item.ok]

    @property
    def errors(self) -> list[tuple[int, str]]:
        """Failed items (cancelled ones excluded — they were asked for)."""
        return [
            (item.index, item.error)
            for item in self.items
            if not item.ok and not item.cancelled
        ]

    @property
    def cancelled_items(self) -> list[BatchItem]:
        """Items whose futures were cancelled before they resolved."""
        return [item for item in self.items if item.cancelled]

    @property
    def results(self) -> list[MonitorResult | None]:
        """Per-item results in input order (None where the item failed)."""
        return [item.result for item in self.items]

    @property
    def verdict_totals(self) -> dict[bool, int]:
        totals: dict[bool, int] = {}
        for item in self.ok_items:
            for verdict, count in item.result.verdict_counts.items():
                totals[verdict] = totals.get(verdict, 0) + count
        return totals

    @property
    def busy_seconds(self) -> float:
        return sum(item.seconds for item in self.items)

    @property
    def utilization(self) -> float:
        if self.wall_seconds <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.wall_seconds))

    def merged(self, formula: Formula) -> MonitorResult:
        """All successful items folded into one result."""
        merged = MonitorResult(formula)
        for item in self.ok_items:
            merged.merge(item.result)
        return merged

    def __str__(self) -> str:
        totals = self.verdict_totals
        parts = [f"{len(self.ok_items)}/{len(self.items)} ok"]
        if self.cancelled_items:
            parts.append(f"{len(self.cancelled_items)} cancelled")
        if totals:
            parts.append(
                "verdicts " + " ".join(
                    f"{'T' if v else 'F'}×{totals[v]}" for v in sorted(totals, reverse=True)
                )
            )
        parts.append(f"wall {self.wall_seconds:.3f}s")
        parts.append(f"{self.workers} workers @ {self.utilization:.0%}")
        return "BatchReport(" + ", ".join(parts) + ")"
