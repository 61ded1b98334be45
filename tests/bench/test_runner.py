"""Tests for the bench runner: timed runs, sweeps, and batch reports.

Also smoke-tests the figure benchmarks themselves: every
``benchmarks/bench_*.py`` module must import and the shared workload
builders must construct, so a broken benchmark is caught by tier-1
instead of at figure-regeneration time.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.runner import (
    SweepPoint,
    batch_sweep_point,
    measure_point,
    run_batch_timed,
    run_monitor_timed,
    sweep,
)
from repro.bench.workload import WorkloadSpec, formula_for, generate_workload
from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError
from repro.monitor.smt_monitor import SmtMonitor
from repro.mtl import parse

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"


class TestRunner:
    def test_run_monitor_timed(self):
        spec = WorkloadSpec(model="fischer", processes=1, length_seconds=0.5)
        comp = generate_workload(spec)
        phi = formula_for("phi4", 1, window_ms=500)
        result, elapsed = run_monitor_timed(
            phi, comp, segments=2, max_traces_per_segment=200
        )
        assert elapsed >= 0
        assert result.verdicts

    def test_measure_point(self):
        point = measure_point(
            label="t",
            formula_name="phi3",
            workload=WorkloadSpec(model="fischer", processes=2, length_seconds=0.5),
            segments=2,
            max_traces_per_segment=100,
        )
        assert point.runtime_seconds >= 0
        assert point.events > 0

    def test_sweep_preserves_order(self):
        def make(label):
            return SweepPoint(label, 0.0, frozenset({True}), 0, 0)

        points = sweep([("a", lambda: make("a")), ("b", lambda: make("b"))])
        assert [p.label for p in points] == ["a", "b"]


class TestBatch:
    def _batch(self):
        return [
            generate_workload(
                WorkloadSpec(model="fischer", processes=1, length_seconds=0.5, seed=seed)
            )
            for seed in range(3)
        ]

    def test_run_batch_timed(self):
        phi = formula_for("phi4", 1, window_ms=500)
        report = run_batch_timed(
            phi, self._batch(), workers=2, segments=2, max_traces_per_segment=200
        )
        assert len(report.items) == 3
        assert not report.errors
        assert report.wall_seconds > 0
        assert sum(report.verdict_totals.values()) > 0
        assert report.merged(phi).verdict_counts == report.verdict_totals

    def test_order_and_totals(self):
        spec = parse("a U[0,6) b")
        comps = self._batch()
        report = run_batch_timed(spec, comps, workers=2, saturate=False)
        assert [item.index for item in report.items] == list(range(len(comps)))
        assert not report.errors
        serial = [SmtMonitor(spec, saturate=False).run(c).verdict_counts for c in comps]
        assert [item.result.verdict_counts for item in report.items] == serial
        totals = report.verdict_totals
        for verdict in (True, False):
            assert totals.get(verdict, 0) == sum(c.get(verdict, 0) for c in serial)
        assert report.wall_seconds > 0
        assert 0.0 <= report.utilization <= 1.0

    def test_poisoned_item_is_captured(self):
        """One computation over the fast monitor's event cap must not kill
        the batch: its error is captured, every other item succeeds."""
        spec = parse("G[0,400) (a | !a)")
        good = DistributedComputation.from_event_lists(1, {"P1": [(0, "a"), (1, "a")]})
        poisoned = DistributedComputation(1)
        for i in range(301):
            poisoned.add_event("P1", i, "a")
        report = run_batch_timed(spec, [good, poisoned, good], monitor="fast", workers=2)
        assert len(report.items) == 3
        assert report.items[0].ok and report.items[2].ok
        assert not report.items[1].ok
        assert "MonitorError" in report.items[1].error
        assert report.errors == [(1, report.items[1].error)]

    def test_merged_result(self):
        spec = parse("F[0,8) b")
        report = run_batch_timed(spec, self._batch(), workers=1, saturate=False)
        merged = report.merged(spec)
        assert merged.verdict_counts == report.verdict_totals

    def test_auto_kind_batch(self):
        phi = parse("a U[0,6) b")
        report = run_batch_timed(phi, self._batch()[:2], monitor="auto", workers=2)
        assert not report.errors
        assert report.workers == 2

    def test_empty_batch(self):
        report = run_batch_timed(parse("F[0,5) a"), [])
        assert report.items == []
        assert report.verdict_totals == {}

    def test_single_worker_never_forks(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("workers=1 must not create a pool")

        monkeypatch.setattr(runner, "MonitorService", boom)
        phi = formula_for("phi4", 1, window_ms=500)
        report = run_batch_timed(
            phi, self._batch(), workers=1, segments=2, max_traces_per_segment=200
        )
        assert report.workers == 1
        assert not report.errors
        assert report.merged(phi).verdict_counts == report.verdict_totals

    def test_invalid_workers(self):
        with pytest.raises(MonitorError):
            run_batch_timed(parse("F[0,5) a"), self._batch(), workers=0)

    def test_batch_sweep_point(self):
        phi = formula_for("phi4", 1, window_ms=500)
        report = run_batch_timed(
            phi, self._batch(), workers=1, segments=2, max_traces_per_segment=200
        )
        point = batch_sweep_point("batch", report)
        assert point.label == "batch"
        assert point.runtime_seconds == report.wall_seconds
        assert point.events == 3
        assert point.extra["workers"] == 1
        assert point.extra["errors"] == 0


class TestBenchmarkModules:
    """Every figure benchmark must stay importable with working builders."""

    @staticmethod
    def _load(path: Path, name: str):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @classmethod
    def _bench_conftest(cls):
        return cls._load(BENCHMARKS_DIR / "conftest.py", "bench_conftest")

    @pytest.mark.parametrize(
        "path",
        sorted(BENCHMARKS_DIR.glob("bench_*.py")),
        ids=lambda p: p.stem,
    )
    def test_module_imports_and_declares_benchmarks(self, path, monkeypatch):
        # Benchmark modules do `from conftest import ...` meaning the
        # benchmarks/ conftest, not the tests/ one pytest has loaded.
        monkeypatch.setitem(sys.modules, "conftest", self._bench_conftest())
        module = self._load(path, f"benchsmoke_{path.stem}")
        bench_functions = [
            name for name in vars(module) if name.startswith("bench_") and callable(getattr(module, name))
        ]
        assert bench_functions, f"{path.name} declares no bench_* function"

    def test_cached_workload_builder(self):
        conftest = self._bench_conftest()
        comp = conftest.cached_workload("fischer", 1, 0.5, 10.0, 15)
        assert len(comp) > 0
        assert comp.epsilon == 15
        assert conftest.cached_workload("fischer", 1, 0.5, 10.0, 15) is comp  # lru cache

    def test_cached_protocol_builders(self):
        from repro.protocols.scenarios import SWAP2_CONFORMING

        conftest = self._bench_conftest()
        swap2 = conftest.cached_swap2_computation(tuple(SWAP2_CONFORMING), 5, 500)
        assert len(swap2) > 0
        swap3 = conftest.cached_swap3_computation((1,) * 12, 5, 500)
        assert len(swap3) > 0

    def test_bench_monitor_uses_factory(self):
        from repro.monitor import Monitor, SmtMonitor

        conftest = self._bench_conftest()
        monitor = conftest.bench_monitor(formula_for("phi4", 1, 500), segments=4)
        assert isinstance(monitor, SmtMonitor)
        assert isinstance(monitor, Monitor)
