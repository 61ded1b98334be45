"""RetryPolicy: the one backoff/timeout shape every peer-facing layer shares."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import CancelledError, PreemptedError, ServiceError
from repro.progression.budget import Budget
from repro.retry import (
    REDIAL_POLICY,
    REGISTRY_CALL_POLICY,
    RTO_FLOOR,
    RTO_INITIAL,
    SESSION_CALL_POLICY,
    RetryPolicy,
    RttEstimator,
)


class TestShape:
    def test_delays_are_capped_exponential(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.5, multiplier=2.0)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_single_attempt_has_no_delays(self):
        assert list(RetryPolicy(attempts=1).delays()) == []

    def test_unbounded_policy_streams_delays(self):
        delays = REDIAL_POLICY.delays()
        first = [next(delays) for _ in range(10)]
        assert first[0] == pytest.approx(REDIAL_POLICY.base_delay)
        assert max(first) == REDIAL_POLICY.max_delay
        assert first == sorted(first)  # monotone up to the cap

    def test_with_timeout_returns_a_new_frozen_policy(self):
        tighter = SESSION_CALL_POLICY.with_timeout(0.5)
        assert tighter.timeout == 0.5
        assert SESSION_CALL_POLICY.timeout == 30.0
        with pytest.raises(Exception):
            tighter.timeout = 1.0  # frozen dataclass

    @pytest.mark.parametrize(
        "kwargs",
        [dict(attempts=0), dict(base_delay=-1), dict(multiplier=0.5)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_shared_policies_are_single_attempt_calls(self):
        # Pinned: call-site policies delegate retrying to their own
        # loops (recovery, redial); accidental double-retry under faults
        # would break the exactly-once analysis.
        assert SESSION_CALL_POLICY.attempts == 1
        assert REGISTRY_CALL_POLICY.attempts == 1
        assert REDIAL_POLICY.attempts is None


FAST = RetryPolicy(attempts=3, base_delay=0.0, max_delay=0.0)


class TestRun:
    def test_returns_first_success(self):
        calls = []
        assert FAST.run(lambda: calls.append(1) or "ok") == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        outcomes = iter([ServiceError("one"), ServiceError("two"), "ok"])

        def attempt():
            value = next(outcomes)
            if isinstance(value, Exception):
                raise value
            return value

        retried = []
        result = FAST.run(attempt, on_retry=lambda n, exc: retried.append((n, str(exc))))
        assert result == "ok"
        assert retried == [(1, "one"), (2, "two")]

    def test_exhaustion_reraises_the_last_error(self):
        attempts = []

        def always_fails():
            attempts.append(1)
            raise ServiceError(f"failure {len(attempts)}")

        with pytest.raises(ServiceError, match="failure 3"):
            FAST.run(always_fails)
        assert len(attempts) == 3

    def test_no_retry_on_wins_over_retry_on(self):
        # CancelledError subclasses ServiceError; no_retry_on is checked
        # first so a proven cancellation is not blindly retried.
        attempts = []

        def cancelled():
            attempts.append(1)
            raise CancelledError("proven dead")

        with pytest.raises(CancelledError):
            FAST.run(cancelled, no_retry_on=(CancelledError,))
        assert len(attempts) == 1

    def test_unlisted_exceptions_propagate_immediately(self):
        with pytest.raises(KeyError):
            FAST.run(lambda: (_ for _ in ()).throw(KeyError("boom")))

    def test_deadline_stops_early(self):
        policy = RetryPolicy(attempts=50, base_delay=0.2, max_delay=0.2, deadline=0.3)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise ServiceError("slow system")

        with pytest.raises(ServiceError, match="slow system"):
            policy.run(always_fails)
        assert len(attempts) <= 3  # ~0.3s of 0.2s gaps, not 50 attempts

    def test_stop_event_aborts_between_attempts(self):
        stop = threading.Event()
        policy = RetryPolicy(attempts=None, base_delay=0.05, max_delay=0.05)
        attempts = []

        def fail_then_signal():
            attempts.append(1)
            if len(attempts) == 3:
                stop.set()
            raise ServiceError("still down")

        with pytest.raises(ServiceError, match="still down"):
            policy.run(fail_then_signal, stop=stop)
        assert len(attempts) == 3

    def test_preset_stop_raises_without_calling(self):
        stop = threading.Event()
        stop.set()
        with pytest.raises(ServiceError, match="before the first attempt"):
            FAST.run(lambda: "never", stop=stop)

    def test_cancelled_budget_aborts_like_preemption(self):
        budget = Budget()
        budget.cancel("shutting down")
        with pytest.raises(PreemptedError):
            FAST.run(lambda: "never", budget=budget)


class TestRttEstimator:
    """RFC 6298: SRTT/RTTVAR smoothing and the timeout derived from them."""

    def test_first_sample_seeds_srtt_and_half_the_variance(self):
        estimator = RttEstimator()
        assert estimator.rto() == RTO_INITIAL
        estimator.sample(0.2)
        assert estimator.srtt == pytest.approx(0.2)
        assert estimator.rttvar == pytest.approx(0.1)
        assert estimator.rto() == pytest.approx(0.2 + 4 * 0.1)

    def test_converges_on_a_steady_link(self):
        estimator = RttEstimator()
        estimator.sample(1.0)  # a bad first guess must wash out
        for _ in range(80):
            estimator.sample(0.2)
        assert estimator.srtt == pytest.approx(0.2, abs=1e-3)
        assert estimator.rttvar < 1e-3
        # Variance gone: the margin is the floor, not zero.
        assert estimator.rto() == pytest.approx(0.2 + RTO_FLOOR, abs=2e-3)

    def test_jitter_widens_the_timeout(self):
        steady, jittery = RttEstimator(), RttEstimator()
        for i in range(80):
            steady.sample(0.2)
            jittery.sample(0.1 if i % 2 else 0.3)
        assert jittery.srtt == pytest.approx(0.2, abs=0.02)
        assert jittery.rto() > steady.rto() + 0.2

    def test_rto_is_clamped_to_floor_and_ceiling(self):
        estimator = RttEstimator()
        assert estimator.rto(0.3) == 0.3  # unsampled: the policy timeout caps it
        for _ in range(50):
            estimator.sample(0.0001)
        assert estimator.rto(2.0) >= RTO_FLOOR
        estimator.sample(30.0)
        assert estimator.rto(2.0) == 2.0


class TestPace:
    """The waiting side: RTO-sized slices with a probe between them."""

    @staticmethod
    def _wait_resolving_at(moment: float):
        """A ``wait(timeout)`` that turns true ``moment`` seconds from now."""
        resolved_at = time.monotonic() + moment

        def wait(timeout):
            time.sleep(max(0.0, min(timeout, resolved_at - time.monotonic())))
            return time.monotonic() >= resolved_at

        return wait

    def test_unprobed_answer_is_sampled(self):
        estimator = RttEstimator()
        sent_at = time.monotonic()
        probes = []
        resolved, sent = estimator.pace(
            self._wait_resolving_at(0.02), lambda: probes.append(1), 1.0, sent_at
        )
        assert (resolved, sent, probes) == (True, 0, [])
        assert estimator.srtt == pytest.approx(0.02, abs=0.02)

    def test_karns_rule_a_probed_request_yields_no_sample(self):
        estimator = RttEstimator()
        estimator.sample(0.001)  # RTO sits at the floor
        before = (estimator.srtt, estimator.rttvar)
        probes = []
        resolved, sent = estimator.pace(
            self._wait_resolving_at(2.5 * RTO_FLOOR),
            lambda: probes.append(time.monotonic()),
            2.0,
            time.monotonic(),
        )
        assert resolved and sent == len(probes) == 1
        assert (estimator.srtt, estimator.rttvar) == before

    def test_answer_that_predates_the_wait_yields_no_sample(self):
        estimator = RttEstimator()
        resolved, sent = estimator.pace(lambda timeout: True, lambda: None, 1.0, 0.0)
        assert (resolved, sent) == (True, 0)
        assert estimator.srtt is None

    def test_slices_double_until_the_limit_gives_up(self):
        estimator = RttEstimator()
        estimator.sample(0.001)
        started = time.monotonic()
        probes = []
        resolved, sent = estimator.pace(
            lambda timeout: time.sleep(timeout) or False,
            lambda: probes.append(time.monotonic() - started),
            8 * RTO_FLOOR,
        )
        assert not resolved
        # Probes after ~1, ~3 and ~7 RTOs; the next slice would pass the limit.
        assert sent == len(probes) == 3
        assert probes[0] == pytest.approx(RTO_FLOOR, abs=0.03)
        assert probes[2] == pytest.approx(7 * RTO_FLOOR, abs=0.06)
        assert time.monotonic() - started == pytest.approx(8 * RTO_FLOOR, abs=0.06)

    def test_slow_link_sends_no_probes_once_warmed_up(self):
        # 0.1 s each way: the first waited-for answer arrives inside the
        # initial 1 s timeout, so it is sampled, and from then on no
        # round trip may look like a loss.
        from repro.mtl import parse
        from repro.service import MonitorService
        from repro.transport import FaultSchedule, FaultyTransport, LocalTransport

        schedule = FaultSchedule(seed="slow-link", latency=0.1)
        with MonitorService(
            saturate=False, endpoints=[FaultyTransport(LocalTransport(), schedule)]
        ) as service:
            session = service.open_session(
                parse("a U[0,50) b"), 1, call_policy=RetryPolicy(attempts=3, timeout=2.0)
            )
            for step in range(1, 4):  # warm-up
                session.observe("P1", step, {"a"})
                session.advance_to(step)
            estimator = service._rtt[session.worker_index]
            for step in range(4, 10):
                session.observe("P1", step, {"a"})
                session.advance_to(step)
            assert service.probes == 0
            assert 0.2 < estimator.rto(2.0) < 0.6  # a loss now costs ~1 RTT
            session.close()
