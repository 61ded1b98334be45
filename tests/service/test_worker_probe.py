"""Status probes, the worker reply cache, and one frame per boundary.

A ``probe`` control frame asks a worker what became of a request id and
is answered from what the worker already knows, never by cancelling or
executing anything.  The five-row state table is pinned on the bare
:class:`RequestExecutor`, then through every host that serves it (the
local worker loop, the TCP agent's reader, the process-pool agent), then
priced end to end: a seeded fault differential that counts executions
per request id, and the coalesced ``session_advance (id, boundary,
events)`` frame the session layer now sends.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro.errors import MonitorError, PreemptedError
from repro.monitor.online import OnlineMonitor
from repro.mtl import parse
from repro.retry import RTO_FLOOR, RetryPolicy
from repro.service import MonitorService
from repro.service import worker as worker_module
from repro.service.worker import REPLY_CACHE_SIZE, Request, RequestExecutor
from repro.transport import (
    FaultSchedule,
    FaultyTransport,
    LocalTransport,
    TcpTransport,
)
from repro.transport.agent import WorkerAgent, spawn_agent
from repro.transport.frames import (
    CONTROL_ID,
    DROPPED_BEFORE_EXECUTION,
    STALE_REQUEST_PREFIX,
    decode_frame,
)

from tests.transport.test_conformance import Client

SPEC = parse("a U[0,30) b")
EPSILON = 2


def _probe(request_id: int) -> Request:
    return Request(CONTROL_ID, "probe", request_id)


class TestStateTable:
    """What :meth:`RequestExecutor.probe` answers, row by row."""

    def test_unseen_is_exactly_a_drop(self):
        executor = RequestExecutor()
        assert executor.ingest(_probe(7)) is False
        (ack,) = executor.pending_acks
        assert (ack.request_id, ack.error) == (7, DROPPED_BEFORE_EXECUTION)
        executor.pending_acks.clear()
        # The id is parked: a late copy of the frame never dispatches
        # (this hostile payload would have answered with a typed error).
        assert executor.execute(Request(7, "session_open", "garbage")) is None
        assert executor.sessions == {}

    def test_queued_request_is_left_alone(self):
        executor = RequestExecutor()
        queued = Request(3, "echo", "payload")
        assert executor.ingest(queued) is True
        executor.ingest(_probe(3))
        assert executor.pending_acks == [] and executor.dropped == set()
        assert executor.execute(queued).payload == "payload"

    def test_running_request_is_neither_preempted_nor_answered(self):
        executor = RequestExecutor()
        slow = Request(1, "sleep", 0.4)
        executor.ingest(slow)
        outcome = {}
        runner = threading.Thread(
            target=lambda: outcome.update(response=executor.execute(slow))
        )
        runner.start()
        time.sleep(0.1)
        assert executor._running is not None  # mid-execution right now
        executor.ingest(_probe(1))
        assert executor.pending_acks == []
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert outcome["response"].error is None  # ran to completion

    def test_executed_reply_is_sent_again_without_executing(self):
        executor = RequestExecutor()
        executor.run(Request(1, "session_open", (1, SPEC, EPSILON, {})))
        events = (("P1", 1, frozenset({"b"}), None),)
        frame = executor.run(Request(2, "session_advance", (1, 5, events)))
        consumed = executor.sessions[1].events_consumed
        executor.ingest(_probe(2))
        assert executor.take_acks() == [frame]  # the very bytes, not a re-run
        assert executor.sessions[1].events_consumed == consumed
        assert (executor.probes, executor.replies_resent) == (1, 1)

    def test_evicted_reply_is_answered_with_silence(self):
        executor = RequestExecutor()
        for request_id in range(REPLY_CACHE_SIZE + 1):
            executor.run(Request(request_id, "echo", request_id))
        assert len(executor.replies) == REPLY_CACHE_SIZE
        executor.ingest(_probe(0))  # aged out
        assert executor.pending_acks == []
        executor.ingest(_probe(1))  # oldest survivor
        assert decode_frame(executor.take_acks()[0]).payload == 1

    def test_oversize_reply_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(worker_module, "REPLY_CACHE_MAX_BYTES", 512)
        executor = RequestExecutor()
        executor.run(Request(1, "echo", "x" * 4096))
        executor.run(Request(2, "echo", "small"))
        assert list(executor.replies) == [2]

    def test_stale_refusal_does_not_overwrite_the_cached_reply(self):
        executor = RequestExecutor()
        frame = executor.run(Request(1, "echo", "first"))
        duplicate = executor.run(Request(1, "echo", "first"))
        assert decode_frame(duplicate).error.startswith(STALE_REQUEST_PREFIX)
        assert executor.replies[1] == frame

    def test_hostile_probe_payload_is_ignored(self):
        executor = RequestExecutor()
        for payload in ("not-an-id", True, None, 1.5):
            assert executor.ingest(Request(CONTROL_ID, "probe", payload)) is False
        assert executor.pending_acks == [] and executor.probes == 0


@pytest.fixture(params=["local", "tcp", "tcp-process"])
def conn(request):
    """One live connection per host that serves the executor."""
    client = Client()
    if request.param == "local":
        connection = LocalTransport().open(client.on_response, client.on_disconnect)
        yield connection, client
        connection.close(timeout=5.0)
        return
    popen, host, port = spawn_agent(processes=request.param == "tcp-process")
    try:
        connection = TcpTransport(host, port).open(
            client.on_response, client.on_disconnect
        )
        yield connection, client
        connection.close(timeout=5.0)
    finally:
        # SIGTERM, not SIGKILL: a graceful leave lets a process-pool
        # agent hand its executor child the shutdown sentinel instead of
        # orphaning it.
        popen.terminate()
        try:
            popen.wait(timeout=10)
        except Exception:  # noqa: BLE001 — never leave it running
            popen.kill()
            popen.wait(timeout=10)
        popen.stdout.close()


class TestHosts:
    """The same table over the wire, on every host."""

    def test_lost_response_is_repaired_from_the_cache(self, conn):
        connection, client = conn
        connection.send(Request(1, "echo", {"k": [1, 2]}))
        first = client.next_response()
        connection.send(_probe(1))
        again = client.next_response()
        assert (again.request_id, again.payload) == (1, first.payload)

    def test_lost_request_is_proven_and_its_late_copy_skipped(self, conn):
        connection, client = conn
        connection.send(_probe(5))
        ack = client.next_response()
        assert (ack.request_id, ack.error) == (5, DROPPED_BEFORE_EXECUTION)
        connection.send(Request(5, "echo", "late"))  # consumed silently
        connection.send(Request(6, "echo", "next"))
        assert client.next_response().payload == "next"

    def test_probe_never_preempts_running_or_queued_work(self, conn):
        connection, client = conn
        connection.send(Request(1, "sleep", 0.5))
        connection.send(Request(2, "echo", "queued"))
        time.sleep(0.15)
        connection.send(_probe(1))
        connection.send(_probe(2))
        answers = [client.next_response(), client.next_response()]
        time.sleep(0.2)
        while not client.responses.empty():
            answers.append(client.next_response())
        # Both ran to completion.  A single-threaded host only reads
        # the probes once the sleep has returned, and then sends its
        # cached reply again (a copy the client ignores); the echo is
        # never answered twice, dropped or refused.
        assert all(answer.error is None for answer in answers)
        ids = [answer.request_id for answer in answers]
        assert ids[0] == 1 and ids.count(2) == 1 and ids.count(1) <= 2
        assert answers[ids.index(2)].payload == "queued"


# -- at-most-once, counted -----------------------------------------------------------


class CountingExecutor(RequestExecutor):
    """Counts real executions per request id (stale refusals, skipped
    drops and re-sent replies execute nothing and are not counted)."""

    executions: Counter = Counter()
    lock = threading.Lock()

    def execute(self, request):
        response = super().execute(request)
        skipped = response is None or (response.error or "").startswith(
            (STALE_REQUEST_PREFIX, DROPPED_BEFORE_EXECUTION)
        )
        if not skipped:
            with self.lock:
                self.executions[(id(self), request.request_id)] += 1
        return response


@pytest.fixture
def counted_agents():
    """Two in-process thread-mode agents whose executors count."""
    CountingExecutor.executions = Counter()
    agents = [WorkerAgent(executor_factory=CountingExecutor) for _ in range(2)]
    for agent in agents:
        agent.start()
    yield agents
    for agent in agents:
        agent.close()


def _drive(targets: dict, ticks: int = 24, every: int = 4) -> dict:
    """One deterministic multi-segment stream per target."""
    for t in range(1, ticks + 1):
        for seed, target in targets.items():
            target.observe("P1", t, {"a"} if (t + seed) % 3 else {"a", "b"})
            if (t + seed) % 5 == 0:
                target.observe("P2", t, {"b"} if (t + seed) % 10 == 0 else set())
            if t % every == 0:
                target.advance_to(t)
    return {seed: target.finish().verdict_counts for seed, target in targets.items()}


FAULT_MIXES = {
    "drop": dict(drop=0.02, latency=0.001, jitter=0.002),
    "mixed": dict(drop=0.02, duplicate=0.05, reorder=0.1, reorder_window=0.05,
                  delay=0.03, delay_seconds=0.1, latency=0.001),
}


class TestFaultDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("mix", sorted(FAULT_MIXES))
    def test_at_most_once_and_bit_identical(self, counted_agents, mix, seed):
        # ~330 frames through the two faulty links: at 2 % drop a run
        # without a single loss is a one-in-a-thousand schedule.
        expected = _drive({s: OnlineMonitor(SPEC, EPSILON) for s in range(4)}, 60, 2)
        schedule = FaultSchedule(seed=f"probe-{mix}-{seed}", grace=6, **FAULT_MIXES[mix])
        endpoints = [
            FaultyTransport(TcpTransport("127.0.0.1", agent.port), schedule)
            for agent in counted_agents
        ]
        with MonitorService(saturate=False, endpoints=endpoints) as service:
            handles = {
                s: service.open_session(
                    SPEC,
                    EPSILON,
                    checkpoint={"every_events": 4},
                    call_policy=RetryPolicy(attempts=4, timeout=1.0, base_delay=0.05),
                )
                for s in range(4)
            }
            assert _drive(handles, 60, 2) == expected
            assert sum(endpoint.stats()["dropped"] for endpoint in endpoints) > 0
            if mix == "drop":
                # Loss alone is repaired by proof or from the reply
                # cache: nobody is declared gray, nothing is restored.
                assert not any(service.quarantined_endpoints())
                assert sum(h.recoveries for h in handles.values()) == 0
        assert CountingExecutor.executions
        assert max(CountingExecutor.executions.values()) == 1


class TestSlowCallIsNotALoss:
    def test_long_advance_returns_once_despite_probes(self, counted_agents):
        """An ``advance_to`` that legitimately runs many RTOs is probed
        (the worker says nothing: it is running) and returns its result
        with no re-execution and no preemption."""
        from tests.service.test_preemption import BOUNDARY, HEAVY_TRACES, _events, _reference
        from tests.service.test_preemption import EPSILON as HEAVY_EPSILON
        from tests.service.test_preemption import SPEC as HEAVY_SPEC

        agent = counted_agents[0]
        with MonitorService(endpoints=[f"tcp://127.0.0.1:{agent.port}"]) as service:
            session = service.open_session(
                HEAVY_SPEC,
                HEAVY_EPSILON,
                call_policy=RetryPolicy(attempts=2, timeout=120.0),
                max_traces_per_segment=HEAVY_TRACES,
            )
            for _ in range(5):
                session.poll()  # warm the estimator: RTO falls to its floor
            assert service._rtt[0].rto(120.0) < 2 * RTO_FLOOR
            for process, t, props in _events(0):
                session.observe(process, t, props)
            started = time.monotonic()
            session.advance_to(BOUNDARY)
            elapsed = time.monotonic() - started
            result = session.finish()
        assert elapsed > 10 * RTO_FLOOR, "workload too light to outlive the RTO"
        assert service.probes >= 3
        assert result.verdict_counts == _reference(0, HEAVY_TRACES).verdict_counts
        assert max(CountingExecutor.executions.values()) == 1


# -- one frame per boundary ----------------------------------------------------------


class TestCoalescedAdvance:
    def test_one_request_per_boundary(self):
        with MonitorService(workers=1, saturate=False) as service:
            session = service.open_session(SPEC, EPSILON)
            sent = []
            real = service._send_session

            def spy(worker_index, op, payload):
                sent.append(op)
                return real(worker_index, op, payload)

            service._send_session = spy
            for t in range(1, 9):
                session.observe("P1", t, {"a"})
                if t % 4 == 0:
                    session.advance_to(t)
            session.finish()
            assert sent == ["session_advance", "session_advance", "session_finish"]
            assert session.events_observed == 8

    def test_rejected_events_raise_after_the_verdicts_are_journaled(self):
        with MonitorService(workers=1, saturate=False) as service:
            session = service.open_session(
                SPEC, EPSILON, checkpoint={"every_events": 10_000}
            )
            session.observe("P1", 4, {"a"})
            session.advance_to(5)
            session.observe("P1", 2, {"a"})  # behind the frontier
            session.observe("P1", 7, {"b"})  # valid, batched after it
            before = session.journal_length
            with pytest.raises(MonitorError, match="1/2 observed event.s. rejected"):
                session.advance_to(10)
            # The advance itself happened and is journaled; the valid
            # event was applied; the stream stays usable.
            assert session.journal_length == before + 1
            assert session.poll().pending == 0
            reference = OnlineMonitor(SPEC, EPSILON)
            reference.observe("P1", 4, {"a"})
            reference.advance_to(5)
            reference.observe("P1", 7, {"b"})
            reference.advance_to(10)
            assert session.finish().verdict_counts == reference.finish().verdict_counts

    def test_retry_at_the_frontier_does_not_apply_the_events_twice(self):
        executor = RequestExecutor()
        executor.execute(Request(1, "session_open", (1, SPEC, EPSILON, {})))
        events = (("P1", 1, frozenset({"a"}), None), ("P1", 6, frozenset({"b"}), None))
        first = executor.execute(Request(2, "session_advance", (1, 5, events)))
        assert first.error is None
        monitor = executor.sessions[1]
        assert (monitor.events_consumed, monitor.pending) == (2, 1)
        # Same call under a fresh id (its response was lost): answered
        # from the frontier, events untouched, no rejection invented.
        retried = executor.execute(Request(3, "session_advance", (1, 5, events)))
        assert retried.payload == (first.payload[0], None)
        assert (monitor.events_consumed, monitor.pending) == (2, 1)

    def test_refused_advance_takes_its_events_back_out(self):
        executor = RequestExecutor()
        executor.execute(Request(1, "session_open", (1, SPEC, EPSILON, {})))
        executor.execute(Request(2, "session_advance", (1, 5, ())))
        events = (("P1", 6, frozenset({"b"}), None),)
        refused = executor.execute(Request(3, "session_advance", (1, 3, events)))
        assert "boundary must advance" in refused.error
        monitor = executor.sessions[1]
        assert (monitor.events_consumed, monitor.pending) == (0, 0)
        assert executor.execute(Request(4, "session_advance", (1, 8, events))).error is None
        assert executor.sessions[1].events_consumed == 1

    def test_preempted_advance_takes_its_events_back_out(self):
        from tests.service.test_preemption import BOUNDARY, _events
        from tests.service.test_preemption import EPSILON as HEAVY_EPSILON
        from tests.service.test_preemption import SPEC as HEAVY_SPEC

        executor = RequestExecutor()
        executor.execute(Request(1, "session_open", (1, HEAVY_SPEC, HEAVY_EPSILON, {})))
        events = tuple((p, t, props, None) for p, t, props in _events(0))
        executor.poll_hook = lambda: executor.drop(2)  # cancel it from inside
        preempted = executor.execute(Request(2, "session_advance", (1, BOUNDARY, events)))
        assert preempted.error.startswith(PreemptedError.__name__)
        assert executor.sessions[1].pending == 0
        executor.poll_hook = None
        retried = executor.execute(Request(3, "session_advance", (1, BOUNDARY, events)))
        reference = OnlineMonitor(HEAVY_SPEC, HEAVY_EPSILON)
        for process, t, props in _events(0):
            reference.observe(process, t, props)
        assert retried.payload == (reference.advance_to(BOUNDARY), None)

    def test_repeat_of_an_acknowledged_boundary_keeps_new_events(self):
        with MonitorService(workers=1, saturate=False) as service:
            session = service.open_session(SPEC, EPSILON)
            session.observe("P1", 1, {"a"})
            session.advance_to(5)
            session.observe("P1", 6, {"b"})
            session.advance_to(5)  # answered from the frontier
            assert session.poll().pending == 1

    def test_snapshot_restore_continue(self):
        expected = _drive({0: OnlineMonitor(SPEC, EPSILON)})
        with MonitorService(workers=2, saturate=False) as service:
            session = service.open_session(SPEC, EPSILON)

            class Hopping:
                """Migrates after every advance: each boundary's events
                land on one endpoint, the next boundary's on the other."""

                observe, finish = session.observe, session.finish

                @staticmethod
                def advance_to(boundary):
                    session.advance_to(boundary)
                    session.migrate(1 - session.worker_index)

            assert _drive({0: Hopping}) == expected
            assert session.migrations == 6
