"""Preemption: cancel-mid-segment differential suite.

The contract: preempting a running segment at an arbitrary checkpoint
raises a typed :class:`~repro.errors.PreemptedError` and leaves the
monitor in its pre-call state (the advance buffer rolls back), so
retrying the same call and finishing yields verdicts bit-identical to a
never-interrupted run.  That must hold across both residual engines
(columnar and object paths) and both transports (in-process workers and
TCP agents), and a worker whose running request is dropped must unwind
within one checkpoint interval instead of burning to completion.
"""

from __future__ import annotations

import functools
import random
import threading
import time

import pytest

from repro.distributed.computation import DistributedComputation
from repro.encoding.verdict_enumerator import DEFAULT_TRACE_BUDGET
from repro.errors import CancelledError, PreemptedError
from repro.monitor.online import OnlineMonitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.mtl import parse
from repro.progression.budget import Budget
from repro.service import MonitorService
from repro.transport.agent import spawn_agent

SPEC = parse("G[0,40) (a -> F[0,6) b)")
EPSILON = 4
BOUNDARY = 8
#: Trace budget of the calls an interrupt must land in: the stream's
#: first segment has far more traces than any budget, and under the
#: default one its advance is over in about the 0.3 s an interrupt waits.
HEAVY_TRACES = 5 * DEFAULT_TRACE_BUDGET

ENGINES = [
    pytest.param("1", id="columnar"),
    pytest.param("0", id="object"),
]


def _events(seed: int) -> list[tuple[str, int, frozenset[str]]]:
    """A concurrency-heavy stream (three processes, dense overlap)."""
    rng = random.Random(seed)
    events = []
    clocks = {"P1": 0, "P2": 0, "P3": 0}
    for _ in range(8):
        for process in ("P1", "P2", "P3"):
            clocks[process] += rng.randint(0, 2)
            props = frozenset(p for p in ("a", "b") if rng.random() < 0.4)
            events.append((process, clocks[process], props))
    return events


@functools.lru_cache(maxsize=None)
def _reference(seed: int, max_traces: int = DEFAULT_TRACE_BUDGET) -> "object":
    """The same stream, never interrupted."""
    monitor = OnlineMonitor(SPEC, EPSILON, max_traces_per_segment=max_traces)
    for process, t, props in _events(seed):
        monitor.observe(process, t, props)
    monitor.advance_to(BOUNDARY)
    return monitor.finish()


def _counting_cancel_budget(after_checkpoints: int) -> Budget:
    """A budget that cancels itself at its Nth checkpoint — deterministic
    preemption at an arbitrary engine-chosen program point."""
    budget = Budget(check_every=1)
    seen = [0]

    def hook() -> None:
        seen[0] += 1
        if seen[0] >= after_checkpoints:
            budget.cancel(f"scripted cancel at checkpoint {after_checkpoints}")

    budget.poll_hook = hook
    return budget


class TestEngineLevelDifferential:
    """Random-checkpoint preemption, columnar vs object engines."""

    @pytest.mark.parametrize("columnar", ENGINES)
    def test_preempt_retry_is_bit_identical(self, columnar, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", columnar)
        rng = random.Random(20260808)
        preempted = 0
        for seed in range(4):
            monitor = OnlineMonitor(SPEC, EPSILON)
            for process, t, props in _events(seed):
                monitor.observe(process, t, props)
            budget = _counting_cancel_budget(rng.randint(1, 60))
            try:
                monitor.advance_to(BOUNDARY, budget=budget)
            except PreemptedError:
                preempted += 1
                monitor.advance_to(BOUNDARY)  # post-restore retry
            result = monitor.finish()
            reference = _reference(seed)
            assert result.verdict_counts == reference.verdict_counts, f"seed {seed}"
            assert result.verdicts == reference.verdicts
        # The suite is vacuous if the scripted cancels never fire.
        assert preempted >= 2

    @pytest.mark.parametrize("columnar", ENGINES)
    def test_preempted_run_reports_the_flag(self, columnar, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR", columnar)
        computation = DistributedComputation.from_event_lists(
            3,
            {
                "P1": [(i, "a" if i % 2 else ()) for i in range(10)],
                "P2": [(i, "b" if i % 3 else ()) for i in range(10)],
                "P3": [(i, ()) for i in range(10)],
            },
        )
        engine = SmtMonitor(SPEC, saturate=False)
        with pytest.raises(PreemptedError, match="preempted after"):
            engine.run(computation, budget=_counting_cancel_budget(5))

    def test_preempted_is_distinct_from_truncated(self):
        # max_traces is the truncation facet: it never raises, it flags.
        computation = DistributedComputation.from_event_lists(
            2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
        )
        result = SmtMonitor(
            SPEC, saturate=False, max_traces_per_segment=3
        ).run(computation)
        assert result.truncated
        assert not result.preempted


def _interrupted_session_run(service: MonitorService, seed: int):
    """Feed a session, interrupt a running advance, retry, finish."""
    session = service.open_session(SPEC, epsilon=EPSILON, max_traces_per_segment=HEAVY_TRACES)
    for process, t, props in _events(seed):
        session.observe(process, t, props)
    outcome: dict = {}

    def advance() -> None:
        try:
            session.advance_to(BOUNDARY)
            outcome["preempted"] = False
        except PreemptedError:
            outcome["preempted"] = True

    thread = threading.Thread(target=advance)
    thread.start()
    time.sleep(0.3)
    session.interrupt()
    thread.join(timeout=60)
    assert not thread.is_alive(), "advance neither finished nor preempted"
    if outcome["preempted"]:
        session.advance_to(BOUNDARY)  # post-restore retry
    result = session.finish()
    return result, outcome["preempted"]


class TestTransportLevelDifferential:
    """The same contract through the service layer, both transports."""

    def test_local_interrupt_is_bit_identical(self):
        preempted_any = False
        with MonitorService(workers=1) as service:
            for seed in range(3):
                result, preempted = _interrupted_session_run(service, seed)
                preempted_any = preempted_any or preempted
                reference = _reference(seed, HEAVY_TRACES)
                assert result.verdict_counts == reference.verdict_counts
                assert result.verdicts == reference.verdicts
        assert preempted_any, "no interrupt ever landed mid-segment"

    def test_tcp_interrupt_is_bit_identical(self):
        popen, host, port = spawn_agent()
        try:
            preempted_any = False
            with MonitorService(endpoints=[f"tcp://{host}:{port}"]) as service:
                for seed in range(3):
                    result, preempted = _interrupted_session_run(service, seed)
                    preempted_any = preempted_any or preempted
                    reference = _reference(seed, HEAVY_TRACES)
                    assert result.verdict_counts == reference.verdict_counts
                    assert result.verdicts == reference.verdicts
            assert preempted_any, "no interrupt ever landed mid-segment"
        finally:
            popen.kill()
            popen.wait(timeout=10)
            popen.stdout.close()

    def test_interrupt_without_running_call_refuses(self):
        with MonitorService(workers=1) as service:
            session = service.open_session(SPEC, epsilon=EPSILON)
            assert session.interrupt() is False
            session.observe("P1", 1, frozenset({"a"}))
            assert session.interrupt() is False  # observes are async
            session.close()

    def test_session_survives_interrupt(self):
        """An interrupted session keeps its buffered events and stays
        usable — preemption is not a lifecycle event."""
        with MonitorService(workers=1) as service:
            session = service.open_session(
                SPEC, epsilon=EPSILON, max_traces_per_segment=HEAVY_TRACES
            )
            for process, t, props in _events(0):
                session.observe(process, t, props)
            done = threading.Event()

            def advance() -> None:
                try:
                    session.advance_to(BOUNDARY)
                except PreemptedError:
                    pass
                finally:
                    done.set()

            threading.Thread(target=advance).start()
            time.sleep(0.3)
            session.interrupt()
            assert done.wait(timeout=60)
            status = session.poll()
            assert status.pending == len(_events(0))
            assert session.recoveries == 0  # no restore-and-replay fired
            session.close()


class TestRunningDropUnwinds:
    def test_cancelled_monitor_op_frees_the_worker(self):
        """Dropping the *running* request must cancel its budget: the
        engine unwinds within a checkpoint interval and the worker is
        free for new work, instead of burning the full enumeration."""
        big = DistributedComputation.from_event_lists(
            3,
            {
                "P1": [(i, "a" if i % 2 else ()) for i in range(12)],
                "P2": [(i, "b" if i % 3 else ()) for i in range(12)],
                "P3": [(i, ()) for i in range(12)],
            },
        )
        small = DistributedComputation.from_event_lists(
            2, {"P1": [(1, "a")], "P2": [(2, "b")]}
        )
        with MonitorService(workers=1, formula=SPEC, epsilon=6) as service:
            future = service.submit(big)
            time.sleep(0.3)
            assert future.cancel() is True
            with pytest.raises(CancelledError):
                future.result(timeout=30)
            started = time.monotonic()
            item = service.submit(small).result(timeout=30)
            assert item.error is None
            assert time.monotonic() - started < 10.0
