"""Gray-failure tolerance: the exactly-once chain under ambiguous faults.

Three layers make an ambiguous timeout safe to retry, and each is pinned
here in isolation before the chaos matrix prices them together:

1. the worker-side idempotency fence (:class:`RequestExecutor`) refuses
   duplicated/reordered frames without executing and proves drops;
2. the client-side fence classifier (:meth:`Session._fence_slow_call`)
   retries only on that proof, returns merely-slow results, and
   declares unprovable endpoints gray;
3. the service reacts to gray endpoints reversibly — FIFO gap reaping,
   quarantine out of placement, probe-based readmission.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.errors import CancelledError, ServiceError
from repro.monitor.online import OnlineMonitor
from repro.mtl import parse
from repro.retry import RetryPolicy
from repro.service import MonitorFuture, MonitorService
from repro.service.service import QUARANTINE_PROBE_TIMEOUT, QUARANTINE_PROBES
from repro.service.worker import Request, RequestExecutor
from repro.transport import FaultSchedule, FaultyTransport, LocalTransport
from repro.transport.agent import spawn_agent
from repro.transport.frames import (
    CONTROL_ID,
    DROPPED_BEFORE_EXECUTION,
    STALE_REQUEST_PREFIX,
)

SPEC = parse("a U[0,10) b")
EPSILON = 1


class TestIdempotencyFence:
    """Worker-side half of exactly-once: stale ids never execute twice."""

    def test_duplicate_frame_refused_without_executing(self):
        executor = RequestExecutor()
        first = executor.execute(Request(1, "ping", None))
        assert first.error is None
        again = executor.execute(Request(1, "ping", None))
        assert again.error is not None
        assert again.error.startswith(STALE_REQUEST_PREFIX)

    def test_reordered_frame_refused(self):
        executor = RequestExecutor()
        executor.execute(Request(5, "ping", None))
        late = executor.execute(Request(3, "ping", None))
        assert late.error is not None and late.error.startswith(STALE_REQUEST_PREFIX)

    def test_drop_before_arrival_mints_immediate_ack(self):
        # On a lossy link the dropped request's frame may never arrive;
        # the ack must not wait for it.
        executor = RequestExecutor()
        executor.drop(7)
        assert [r.request_id for r in executor.pending_acks] == [7]
        assert executor.pending_acks[0].error == DROPPED_BEFORE_EXECUTION

    def test_late_frame_after_drop_ack_is_consumed_silently(self):
        # The drop already answered id 7: executing the late copy would
        # put a second response for one id on the wire.
        executor = RequestExecutor()
        executor.drop(7)
        executor.pending_acks.clear()
        assert executor.execute(Request(7, "session_open", "garbage")) is None
        # And it never dispatched: a real execution of that hostile
        # payload would have answered with a typed error.
        assert executor.sessions == {}

    def test_parked_ids_are_pruned_once_overtaken(self):
        # A later execution raises the high-water mark past a parked id:
        # the late copy now hits the stale fence instead.  Its second
        # response is harmless — the drop ack already resolved (and
        # removed) the client future, so the stale answer finds nothing.
        executor = RequestExecutor()
        executor.drop(7)
        executor.execute(Request(8, "ping", None))
        late = executor.execute(Request(7, "ping", None))
        assert late is not None and late.error.startswith(STALE_REQUEST_PREFIX)
        assert executor.dropped == set()

    def test_drop_for_already_executed_request_is_discarded(self):
        executor = RequestExecutor()
        executor.execute(Request(1, "ping", None))
        executor.drop(1)
        assert executor.dropped == set()
        assert executor.pending_acks == []

    def test_reserved_ids_cannot_be_smuggled_as_requests(self):
        # AUTH/REGISTRY frames that leak past their handshake phase sit
        # below the high-water mark (-1) by construction.
        executor = RequestExecutor()
        smuggled = executor.execute(Request(-3, "ping", None))
        assert smuggled.error is not None
        assert smuggled.error.startswith(STALE_REQUEST_PREFIX)

    def test_hostile_drop_payload_is_ignored(self):
        executor = RequestExecutor()
        assert executor.ingest(Request(CONTROL_ID, "drop", "not-an-id")) is False
        assert executor.dropped == set()
        assert executor.ingest(Request(CONTROL_ID, "drop", True)) is False
        assert executor.dropped == set()  # bool is not an id either

    def test_retried_advance_to_current_frontier_is_answered_not_reexecuted(self):
        # A lost *response* makes the client retry the advance under a
        # fresh request id, which the connection-level fence cannot
        # catch.  The session layer answers an advance to exactly the
        # current frontier with the verdicts already decided — the same
        # cumulative set the first execution returned — instead of
        # surfacing the in-process "boundary must advance" error.
        executor = RequestExecutor()
        executor.execute(Request(1, "session_open", (1, SPEC, EPSILON, {})))
        executor.execute(
            Request(2, "session_observe", (1, [("p", 1, frozenset({"b"}), None)]))
        )
        first = executor.execute(Request(3, "session_advance", (1, 5)))
        assert first.error is None
        retried = executor.execute(Request(4, "session_advance", (1, 5)))
        assert retried.error is None
        assert retried.payload == first.payload
        # A genuinely stale boundary is still an error, and the stream
        # keeps advancing normally past the duplicate.
        stale = executor.execute(Request(5, "session_advance", (1, 3)))
        assert stale.error is not None and "boundary must advance" in stale.error
        onwards = executor.execute(Request(6, "session_advance", (1, 8)))
        assert onwards.error is None


class TestRecoveryOrphanFence:
    """A recovery restore whose ack is lost may still have executed:
    the possible orphan copy must be fenced before the endpoint is
    reused, or the next restore collides with 'session already open'."""

    def test_lost_restore_ack_fences_the_target(self):
        with MonitorService(workers=2, saturate=False) as service:
            handle = service.open_session(
                SPEC,
                EPSILON,
                checkpoint={"every_events": 1000, "standby": False},
                call_policy=RetryPolicy(attempts=1, timeout=0.3, base_delay=0.0),
            )
            handle.observe("p", 1, {"a"})
            origin = handle._worker
            target = 1 - origin
            real = service._send_session
            # Pin placement to the failover target so the quarantine
            # branch (and its background migration sweep) stays out of
            # the picture — this test is about the restore fence only.
            service._pick_worker = lambda: target

            def lossy(index, op, payload):
                if index == target and op == "session_open":
                    return MonitorFuture()  # executed, ack lost in transit
                return real(index, op, payload)

            service._send_session = lossy
            try:
                with pytest.raises(ServiceError):
                    handle._recover(ServiceError("injected gray failure"))
            finally:
                service._send_session = real
            # The failed restore left a possible orphan on the target:
            # it is fenced (unconfirmed discard) and the session did not
            # move off its origin.
            assert target in handle._stale_copies
            assert handle._worker == origin
            # The next recovery confirms the discard, reopens cleanly,
            # and the stream lands on the target with the fence cleared.
            handle._recover(ServiceError("injected gray failure, round 2"))
            assert handle._worker == target
            assert target not in handle._stale_copies


class TestFenceClassification:
    """Client-side half: what each fence answer proves about executions."""

    @pytest.fixture()
    def session(self):
        with MonitorService(workers=1, saturate=False) as service:
            handle = service.open_session(
                SPEC,
                EPSILON,
                call_policy=RetryPolicy(attempts=2, timeout=0.2, base_delay=0.0),
            )
            yield handle

    def test_dropped_before_execution_means_retry(self, session):
        future = MonitorFuture()
        future.resolve(None, DROPPED_BEFORE_EXECUTION)
        assert session._fence_slow_call(future, "session_advance") == ("retry", None)

    def test_preempted_mid_execution_means_retry(self, session):
        future = MonitorFuture()
        future.resolve(None, "PreemptedError: request 9 dropped by client")
        assert session._fence_slow_call(future, "session_advance") == ("retry", None)

    def test_slow_payload_is_the_result(self, session):
        future = MonitorFuture()
        future.resolve({"verdict": True}, None)
        outcome, value = session._fence_slow_call(future, "session_advance")
        assert outcome == "done" and value == {"verdict": True}

    def test_real_failure_reraises(self, session):
        future = MonitorFuture()
        future.resolve(None, "MonitorError: boundary moved backwards")
        with pytest.raises(Exception, match="boundary moved backwards"):
            session._fence_slow_call(future, "session_advance")

    def test_silence_is_gray(self, session):
        started = time.monotonic()
        outcome, _ = session._fence_slow_call(MonitorFuture(), "session_advance")
        assert outcome == "gray"
        # It waited one full per-attempt timeout for the ack first.
        assert time.monotonic() - started >= 0.2


class TestSlowButAliveExactlyOnce:
    """Acceptance: a stalled-but-alive link never double-executes."""

    def test_stalled_sync_calls_return_their_slow_result(self):
        # Every post-grace frame stalls 0.6s per lane while the
        # per-attempt timeout is 0.9s: each synchronising call times
        # out, fences, and then receives the *original* response during
        # the fence wait — outcome "done", zero resends.  (Grace covers
        # the session_open round trip only: the events ride inside the
        # advance frame, which is therefore the first stalled one.)
        schedule = FaultSchedule(
            seed="slow-alive", delay=1.0, delay_seconds=0.6, grace=1
        )
        reference = OnlineMonitor(SPEC, epsilon=EPSILON)
        reference.observe("P1", 1, {"a"})
        reference.observe("P1", 2, {"b"})
        expected_advance = reference.advance_to(2)
        expected = reference.finish()
        with MonitorService(
            saturate=False, endpoints=[FaultyTransport(LocalTransport(), schedule)]
        ) as service:
            handle = service.open_session(
                SPEC,
                EPSILON,
                call_policy=RetryPolicy(attempts=3, timeout=0.9, base_delay=0.05),
            )
            handle.observe("P1", 1, {"a"})
            handle.observe("P1", 2, {"b"})
            started = time.monotonic()
            verdicts = handle.advance_to(2)
            elapsed = time.monotonic() - started
            result = handle.finish()
            assert verdicts == expected_advance
            assert result.verdict_counts == expected.verdict_counts
            # The call really did outlive its per-attempt bound (the
            # fence path ran) rather than completing fast and clean.
            assert elapsed >= 0.9
            assert handle.recoveries == 0 and handle.migrations == 0
            assert not any(service.quarantined_endpoints())

    def test_never_healing_partition_goes_gray_and_quarantines(self):
        # One-way c2s partition from frame 2 onwards: the sync call and
        # its fence both vanish, nothing is provable, so the endpoint is
        # declared gray.  With a second live endpoint the service
        # quarantines it instead of failing the pool.
        schedule = FaultSchedule(
            seed="one-way", partition="c2s", partition_start=1, partition_span=None
        )
        with MonitorService(
            saturate=False,
            endpoints=[FaultyTransport(LocalTransport(), schedule), LocalTransport()],
        ) as service:
            handle = service.open_session(
                SPEC,
                EPSILON,
                placement="least_loaded",
                call_policy=RetryPolicy(attempts=2, timeout=0.3, base_delay=0.0),
            )
            if handle.worker_index != 0:
                # least_loaded broke the tie the other way; re-pin.
                handle.migrate(0)
            with pytest.raises(ServiceError, match="gray"):
                handle.advance_to(1)
            assert service.quarantined_endpoints()[0] is True
            # Books settled despite the lost acks: nothing outstanding
            # leaks on the partitioned endpoint.
            deadline = time.monotonic() + 5.0
            while any(service.outstanding()) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(service.outstanding())
            # The healthy endpoint still serves new sessions.
            clean = service.open_session(SPEC, EPSILON)
            assert clean.worker_index == 1
            clean.observe("P1", 1, {"b"})
            clean.finish()


class TestOvertakenReaper:
    """A response for id R settles every pending id < R on that worker."""

    def test_overtaken_request_resolves_before_the_overtaking_response(self):
        with MonitorService(workers=1, saturate=False) as service:
            on_response = service._make_on_response(0)
            lost, answered = MonitorFuture(), MonitorFuture()
            with service._lock:
                for future in (lost, answered):
                    rid = next(service._request_ids)
                    future.request_id = rid
                    service._futures[rid] = future
                    service._pending[0][rid] = None
            order: list[str] = []
            lost.add_done_callback(lambda: order.append("lost"))
            answered.add_done_callback(lambda: order.append("answered"))
            from repro.service.worker import Response

            on_response(Response(answered.request_id, "pong", None))
            assert lost.error == MonitorService.OVERTAKEN
            assert answered.result(1.0) == "pong"
            # Gap evidence resolves first so a session's FIFO check
            # already sees the loss when its sync call returns.
            assert order == ["lost", "answered"]
            assert service.outstanding() == [0]

    def test_minted_drop_ack_does_not_reap_queued_neighbours(self):
        # A drop ack is emitted the moment the drop frame is ingested,
        # jumping ahead of earlier requests still queued behind the
        # running one — out of FIFO order, so it proves nothing about
        # them and must not settle their books.
        with MonitorService(workers=1, saturate=False) as service:
            on_response = service._make_on_response(0)
            queued, dropped = MonitorFuture(), MonitorFuture()
            with service._lock:
                for future in (queued, dropped):
                    rid = next(service._request_ids)
                    future.request_id = rid
                    service._futures[rid] = future
                    service._pending[0][rid] = None
            from repro.service.worker import Response

            on_response(Response(dropped.request_id, None, DROPPED_BEFORE_EXECUTION))
            assert not queued.done()  # still queued worker-side, untouched
            assert service.outstanding() == [1]
            with pytest.raises(CancelledError):
                dropped.result(1.0)
            # Settle the books so close() does not wait on the leftover.
            service._abandon_requests([queued])

    def test_confirm_inflight_rejects_unresolved_earlier_batches(self):
        with MonitorService(workers=1, saturate=False) as service:
            handle = service.open_session(SPEC, EPSILON)
            handle._inflight.append(MonitorFuture())  # a batch that never resolved
            with pytest.raises(ServiceError, match="still.*unresolved|unresolved"):
                handle._confirm_inflight("session_advance")

    def test_confirm_inflight_rejects_transit_refused_batches(self):
        with MonitorService(workers=1, saturate=False) as service:
            handle = service.open_session(SPEC, EPSILON)
            refused = MonitorFuture()
            refused.resolve(None, MonitorService.OVERTAKEN)
            handle._inflight.append(refused)
            with pytest.raises(ServiceError, match="refused in transit"):
                handle._confirm_inflight("session_advance")

    def test_confirm_inflight_ignores_monitor_level_rejections(self):
        # The in-process monitor would have refused the same event — not
        # gap evidence, surfaced by the normal _check_inflight pass.
        with MonitorService(workers=1, saturate=False) as service:
            handle = service.open_session(SPEC, EPSILON)
            rejected = MonitorFuture()
            rejected.resolve(None, "MonitorError: event before the frontier")
            handle._inflight.append(rejected)
            handle._confirm_inflight("session_advance")  # no gap claimed
            handle._inflight.clear()


class TestHeartbeatCadence:
    """Sub-second liveness plumbed end-to-end through string endpoints."""

    def test_frozen_agent_detected_at_configured_cadence(self):
        # SIGSTOP freezes the agent with its socket open: no EOF, only
        # silence.  At the default 1 s / 5 s cadence detection takes
        # ≥ 5 s; with the plumbed-through ms-scale knobs it must land
        # well under that.
        popen, host, port = spawn_agent(token="")
        try:
            with MonitorService(
                saturate=False,
                endpoints=[f"tcp://{host}:{port}"],
                token="",
                heartbeat_interval=0.05,
                liveness_timeout=0.3,
            ) as service:
                handle = service.open_session(SPEC, EPSILON)
                handle.observe("P1", 1, {"a"})
                popen.send_signal(signal.SIGSTOP)
                started = time.monotonic()
                deadline = started + 10.0
                while not service.dead_endpoints()[0] and time.monotonic() < deadline:
                    time.sleep(0.02)
                elapsed = time.monotonic() - started
                assert service.dead_endpoints() == [True]
                assert elapsed < 3.0, (
                    f"silence took {elapsed:.1f}s to detect — the ms-scale "
                    f"cadence did not reach the endpoint"
                )
        finally:
            popen.send_signal(signal.SIGCONT)
            popen.kill()
            popen.wait(timeout=10)


class TestQuarantine:
    """Reversible placement exclusion for alive-but-wrong endpoints."""

    def test_quarantine_excludes_from_placement(self):
        with MonitorService(workers=2, saturate=False) as service:
            assert service.quarantine_endpoint(1, reason="test gray") is True
            assert service.quarantined_endpoints() == [False, True]
            for _ in range(8):
                assert service._pick_worker() == 0
            assert all(
                service.open_session(SPEC, EPSILON).worker_index == 0
                for _ in range(4)
            )

    def test_last_live_endpoint_refuses_quarantine(self):
        with MonitorService(workers=2, saturate=False) as service:
            assert service.quarantine_endpoint(0) is True
            assert service.quarantine_endpoint(1) is False
            assert service.quarantined_endpoints() == [True, False]

    def test_sessions_migrate_off_quarantined_endpoint(self):
        with MonitorService(workers=2, saturate=False) as service:
            handles = [service.open_session(SPEC, EPSILON) for _ in range(4)]
            victim = handles[0].worker_index
            pinned = [h for h in handles if h.worker_index == victim]
            assert service.quarantine_endpoint(victim) is True
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if all(h.worker_index != victim for h in handles):
                    break
                time.sleep(0.05)
            assert all(h.worker_index != victim for h in handles)
            assert all(h.migrations >= 1 for h in pinned)
            for handle in handles:
                handle.observe("P1", 1, {"a"})
                handle.finish()

    def test_probes_readmit_after_consecutive_fast_answers(self):
        with MonitorService(workers=2, saturate=False) as service:
            assert service.quarantine_endpoint(1) is True
            # Drive the liveness tick by hand: each probe is a real ping
            # round-trip; QUARANTINE_PROBES consecutive answers readmit.
            deadline = time.monotonic() + 10.0
            while service.quarantined_endpoints()[1] and time.monotonic() < deadline:
                service._probe_quarantined()
                time.sleep(0.05)
            assert service.quarantined_endpoints() == [False, False]

    def test_slow_probe_resets_the_readmission_streak(self):
        with MonitorService(workers=2, saturate=False) as service:
            assert service.quarantine_endpoint(1) is True
            # Two fast answers...
            for _ in range(40):
                service._probe_quarantined()
                if service._probe_streak.get(1, 0) >= QUARANTINE_PROBES - 1:
                    break
                time.sleep(0.05)
            assert service._probe_streak.get(1, 0) == QUARANTINE_PROBES - 1
            # ...then one probe that outlives the probe timeout:
            # hysteresis restarts the streak from zero.
            stalled = MonitorFuture()
            service._probe_futures[1] = (
                stalled,
                time.monotonic() - QUARANTINE_PROBE_TIMEOUT - 1.0,
            )
            service._probe_quarantined()
            assert service._probe_streak.get(1, 0) == 0
            assert service.quarantined_endpoints()[1] is True
