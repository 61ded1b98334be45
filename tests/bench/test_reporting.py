"""Tests for the bench reporting helpers (series tables, batch tables)."""

from __future__ import annotations

from repro.bench.reporting import (
    assert_monotone_nondecreasing,
    format_batch_report,
    format_series,
)
from repro.bench.runner import SweepPoint
from repro.monitor.verdicts import MonitorResult
from repro.mtl import parse
from repro.service import BatchItem, BatchReport


def _item(index: int, verdicts, seconds: float = 0.1, error: str | None = None) -> BatchItem:
    if error is not None:
        return BatchItem(index=index, result=None, error=error, seconds=seconds, worker=1)
    result = MonitorResult(parse("F[0,5) a"))
    for verdict in verdicts:
        result.record(verdict)
    return BatchItem(index=index, result=result, error=None, seconds=seconds, worker=1)


class TestSeries:
    def test_format_series(self):
        points = [
            SweepPoint("a", 0.5, frozenset({True}), 10, 4),
            SweepPoint("b", 1.0, frozenset({True, False}), 20, 8),
        ]
        text = format_series("demo", points)
        assert "demo" in text and "{T}" in text and "{TF}" in text

    def test_empty_verdicts_dash(self):
        text = format_series("demo", [SweepPoint("x", 0.1, frozenset(), 0, 0)])
        assert "{-}" in text

    def test_monotone_check_accepts_growth(self):
        assert assert_monotone_nondecreasing([0.1, 0.2, 0.4, 0.8])

    def test_monotone_check_tolerates_noise(self):
        assert assert_monotone_nondecreasing([0.1, 0.09, 0.12])

    def test_monotone_check_rejects_collapse(self):
        assert not assert_monotone_nondecreasing([1.0, 0.1])


class TestBatchReportFormatting:
    def test_table_lists_items_and_totals(self):
        report = BatchReport(
            items=[_item(0, [True, True]), _item(1, [False]), _item(2, [True])],
            workers=2,
            wall_seconds=0.5,
        )
        text = format_batch_report("batch demo", report)
        assert "batch demo" in text
        assert "3/3 ok" in text
        assert "T×3" in text and "F×1" in text
        assert "2 workers" in text

    def test_errors_shown_per_item(self):
        report = BatchReport(
            items=[_item(0, [True]), _item(1, [], error="MonitorError: boom")],
            workers=1,
            wall_seconds=0.2,
        )
        text = format_batch_report("batch", report)
        assert "MonitorError: boom" in text
        assert "1/2 ok" in text

    def test_report_str_summary(self):
        report = BatchReport(items=[_item(0, [True])], workers=1, wall_seconds=0.1)
        text = str(report)
        assert "1/1 ok" in text and "workers" in text

    def test_utilization_bounds(self):
        report = BatchReport(
            items=[_item(0, [True], seconds=5.0)], workers=1, wall_seconds=0.1
        )
        assert report.utilization == 1.0  # clamped
        assert BatchReport().utilization == 0.0
