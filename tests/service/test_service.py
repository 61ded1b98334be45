"""Tests for the MonitorService batch surface and pool lifecycle.

The acceptance bar: ``submit_many`` verdict multisets are bit-identical
to serial ``make_monitor(...).run(...)`` on the differential corpus, the
pool persists across calls, submission backpressure holds, and shutdown
is clean and idempotent.
"""

from __future__ import annotations

import pytest

from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError, ServiceError
from repro.monitor import make_monitor
from repro.mtl import parse
from repro.service import BatchReport, MonitorFuture, MonitorService, default_workers


def _corpus() -> list[tuple[DistributedComputation, object]]:
    """A small deterministic differential corpus (computation, formula)."""
    fig3 = DistributedComputation.from_event_lists(
        2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
    )
    skewed = DistributedComputation.from_event_lists(
        3,
        {
            "P1": [(0, "a"), (3, "a"), (6, ())],
            "P2": [(1, ()), (4, "b")],
            "P3": [(2, "a")],
        },
    )
    chainlike = DistributedComputation.from_event_lists(
        2, {"apr": [(0, "a"), (5, "a"), (9, "b")], "ban": [(2, "a"), (7, ())]}
    )
    specs = [
        parse("a U[0,6) b"),
        parse("F[0,8) b"),
        parse("G[0,4) (a | b)"),
        parse("(F[0,5) a) & (F[0,9) b)"),
    ]
    return [(comp, spec) for comp in (fig3, skewed, chainlike) for spec in specs]


class TestBatchSurface:
    def test_submit_many_bit_identical_to_serial(self):
        """Acceptance: service verdict multisets == serial make_monitor."""
        by_spec: dict[object, list[DistributedComputation]] = {}
        for comp, spec in _corpus():
            by_spec.setdefault(spec, []).append(comp)
        for spec, comps in by_spec.items():
            serial = [
                make_monitor(spec, "smt", saturate=False).run(comp).verdict_counts
                for comp in comps
            ]
            with MonitorService(
                workers=2, formula=spec, monitor="smt", saturate=False
            ) as service:
                futures = service.submit_many(comps)
                items = [future.result() for future in futures]
            assert [item.error for item in items] == [None] * len(comps)
            assert [item.result.verdict_counts for item in items] == serial

    def test_map_orders_items_and_counts_totals(self):
        spec = parse("a U[0,6) b")
        comps = [comp for comp, _ in _corpus()[:6]]
        with MonitorService(workers=2, formula=spec, saturate=False) as service:
            report = service.map(comps)
        assert isinstance(report, BatchReport)
        assert [item.index for item in report.items] == list(range(len(comps)))
        assert not report.errors
        serial = [
            make_monitor(spec, "smt", saturate=False).run(c).verdict_counts
            for c in comps
        ]
        assert [item.result.verdict_counts for item in report.items] == serial
        totals = report.verdict_totals
        for verdict in (True, False):
            assert totals.get(verdict, 0) == sum(c.get(verdict, 0) for c in serial)
        assert report.wall_seconds > 0
        assert 0.0 <= report.utilization <= 1.0

    def test_pool_persists_across_calls(self):
        """The whole point of the service: one spawn, many batches."""
        spec = parse("F[0,8) b")
        comps = [comp for comp, _ in _corpus()[:3]]
        with MonitorService(workers=2, formula=spec, saturate=False) as service:
            pids = service.worker_pids()
            assert len(pids) == 2 and len(set(pids)) == 2
            first = service.map(comps)
            second = service.map(comps)
            assert service.worker_pids() == pids
        assert first.verdict_totals == second.verdict_totals
        workers = {item.worker for item in first.items + second.items}
        assert workers <= set(pids)

    def test_poisoned_item_is_captured(self):
        """An item over the fast monitor's event cap must not kill the
        batch: its error is captured, every other item succeeds."""
        spec = parse("G[0,400) (a | !a)")
        good = DistributedComputation.from_event_lists(1, {"P1": [(0, "a"), (1, "a")]})
        poisoned = DistributedComputation(1)
        for i in range(301):
            poisoned.add_event("P1", i, "a")
        with MonitorService(workers=2, formula=spec, monitor="fast") as service:
            report = service.map([good, poisoned, good])
        assert len(report.items) == 3
        assert report.items[0].ok and report.items[2].ok
        assert not report.items[1].ok
        assert "MonitorError" in report.items[1].error
        assert report.errors == [(1, report.items[1].error)]

    def test_backpressure_bound_still_completes(self):
        """max_in_flight=1 serialises submission without deadlock."""
        spec = parse("F[0,8) b")
        comps = [comp for comp, _ in _corpus()[:5]]
        with MonitorService(
            workers=2, formula=spec, max_in_flight=1, saturate=False
        ) as service:
            report = service.map(comps)
        assert not report.errors
        assert [item.index for item in report.items] == list(range(len(comps)))

    def test_submit_returns_future_immediately(self):
        spec = parse("F[0,8) b")
        comp, _ = _corpus()[0]
        with MonitorService(workers=1, formula=spec, saturate=False) as service:
            future = service.submit(comp)
            assert isinstance(future, MonitorFuture)
            item = future.result(timeout=30)
            assert future.done()
            assert item.ok
            assert item.result.verdicts

    def test_per_call_overrides(self):
        """Engine kind and knobs override the service defaults per call."""
        spec = parse("a U[0,6) b")
        comp, _ = _corpus()[0]
        with MonitorService(workers=1, formula=spec, monitor="smt") as service:
            item = service.submit(comp, monitor="fast").result()
        assert item.ok

    def test_auto_kind(self):
        comps = [comp for comp, _ in _corpus()[:2]]
        with MonitorService(workers=2, formula=parse("a U[0,6) b")) as service:
            report = service.map(comps)
        assert not report.errors


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_after(self):
        spec = parse("F[0,5) a")
        service = MonitorService(workers=1, formula=spec)
        service.close()
        service.close()  # no-op
        assert service.closed
        with pytest.raises(ServiceError):
            service.submit(DistributedComputation(2))
        with pytest.raises(ServiceError):
            service.open_session(spec, epsilon=2)

    def test_context_manager_closes(self):
        with MonitorService(workers=1, formula=parse("F[0,5) a")) as service:
            assert not service.closed
        assert service.closed

    def test_default_workers_bounded(self):
        assert 1 <= default_workers() <= 8

    def test_invalid_construction(self):
        with pytest.raises(MonitorError):
            MonitorService(workers=0)
        with pytest.raises(MonitorError):
            MonitorService(workers=1, max_in_flight=0)

    def test_submit_requires_formula(self):
        with MonitorService(workers=1) as service:
            with pytest.raises(MonitorError, match="formula"):
                service.submit(DistributedComputation(2))

    def test_close_resolves_queued_work_first(self):
        """Work already queued completes before shutdown (FIFO drain)."""
        spec = parse("F[0,8) b")
        comps = [comp for comp, _ in _corpus()[:4]]
        service = MonitorService(workers=2, formula=spec, saturate=False)
        futures = service.submit_many(comps)
        service.close()
        items = [future.result(timeout=30) for future in futures]
        assert all(item.ok for item in items)

    def test_unpicklable_response_fails_only_its_request(self):
        """A custom engine returning an unpicklable result must fail that
        one request, not the worker (and every session on it)."""
        from repro.monitor import register_monitor
        from repro.monitor.factory import _REGISTRY

        class UnpicklableResult:
            def __init__(self):
                import threading

                self.lock = threading.Lock()  # locks do not pickle

        class BadEngine:
            def __init__(self, formula):
                self._formula = formula

            @property
            def formula(self):
                return self._formula

            def run(self, computation):
                return UnpicklableResult()

        spec = parse("F[0,8) b")
        comp, _ = _corpus()[0]
        register_monitor("unpicklable", lambda formula, *, epsilon=None, **kw: BadEngine(formula))
        try:
            with MonitorService(workers=1, formula=spec) as service:
                bad = service.submit(comp, monitor="unpicklable")
                with pytest.raises(ServiceError, match="not picklable"):
                    bad.result(timeout=30)
                # the worker survived: the next request succeeds
                good = service.submit(comp, monitor="smt", saturate=False).result(timeout=30)
                assert good.ok
        finally:
            _REGISTRY.pop("unpicklable", None)

    def test_unserializable_request_unwinds_bookkeeping(self):
        """A submit whose payload the codec refuses must raise *and*
        leave no leaked future or outstanding count (a leak would bias
        least-loaded placement against a healthy worker forever)."""
        spec = parse("F[0,8) b")
        comp, _ = _corpus()[0]
        with MonitorService(workers=1, formula=spec, saturate=False) as service:
            with pytest.raises(Exception):
                # a lambda in the engine kwargs cannot pickle
                service.submit(comp, poison=lambda: None)
            assert service.outstanding() == [0]
            assert not service._futures
            # backpressure slot was released and the pool still serves
            assert service.submit(comp).result(timeout=30).ok

    def test_dead_worker_fails_futures_instead_of_hanging(self):
        """A killed worker's outstanding requests fail with ServiceError
        (no infinite block) and the pool keeps serving from survivors."""
        import time

        spec = parse("F[0,8) b")
        comp, _ = _corpus()[0]
        with MonitorService(workers=2, formula=spec, saturate=False) as service:
            session = service.open_session(spec, epsilon=2)  # pinned: id 0 -> worker 0
            service._connections[session.worker_index].kill()
            deadline = time.monotonic() + 10
            with pytest.raises(ServiceError, match="died|closed"):
                while time.monotonic() < deadline:
                    session.poll()  # eventually routed/reaped as dead
                    time.sleep(0.05)
                raise AssertionError("dead worker never detected")
            # the surviving worker still serves batch work
            report = service.map([comp, comp])
            assert not report.errors
