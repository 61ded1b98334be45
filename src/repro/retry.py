"""One retry/backoff policy for every layer that talks to a peer.

Before this module, every caller that could time out or retry carried
its own hand-rolled constants: ``session.py`` had ``MIGRATE_TIMEOUT``
and ``RECOVERY_TIMEOUT``, ``cluster/client.py`` had ``CALL_TIMEOUT``,
and ``service.py`` open-coded a capped-exponential redial loop for the
registry.  Under fault injection those ad-hoc paths each fail slightly
differently, which is exactly what a chaos test cannot tolerate.

:class:`RetryPolicy` is the single shape they all share now:

* ``attempts`` tries total (``None`` = unbounded, for redial loops),
* capped exponential backoff between tries (``base_delay`` ·
  ``multiplier``ⁿ, capped at ``max_delay``),
* an optional per-attempt ``timeout`` (what callers pass to
  ``MonitorFuture.result`` / pending-call waits),
* an optional overall ``deadline`` in seconds from the first attempt,
* cooperative cancellation through a :class:`threading.Event` *stop*
  and/or a :class:`~repro.progression.budget.Budget` — a cancelled
  budget aborts the retry loop between attempts exactly like it aborts
  an engine computation, with :class:`~repro.errors.PreemptedError`.

The policy is frozen data: callers share instances freely and tests
assert on ``delays()`` without running anything.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from repro.errors import ServiceError
from repro.progression.budget import Budget


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deadline and cancellation."""

    #: Total attempts (>= 1); ``None`` retries forever (redial loops).
    attempts: int | None = 3
    base_delay: float = 0.1
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Per-attempt timeout, handed to the attempted call (seconds);
    #: ``None`` means the attempt may block indefinitely.
    timeout: float | None = None
    #: Overall wall-clock budget from the first attempt (seconds);
    #: ``None`` means only ``attempts`` bounds the loop.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(f"attempts must be >= 1 or None, got {self.attempts!r}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier!r}")

    def with_timeout(self, timeout: float | None) -> "RetryPolicy":
        return replace(self, timeout=timeout)

    def delays(self) -> Iterator[float]:
        """Backoff sleeps between attempts: ``attempts - 1`` values
        (endless when ``attempts`` is ``None``)."""
        delay = self.base_delay
        produced = 0
        while self.attempts is None or produced < self.attempts - 1:
            yield min(delay, self.max_delay)
            delay = min(delay * self.multiplier, self.max_delay)
            produced += 1

    def run(
        self,
        fn: Callable[[], Any],
        *,
        retry_on: tuple[type[BaseException], ...] = (ServiceError,),
        no_retry_on: tuple[type[BaseException], ...] = (),
        stop: threading.Event | None = None,
        budget: Budget | None = None,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> Any:
        """Call ``fn`` until it succeeds or the policy is exhausted.

        Exceptions matching ``no_retry_on`` (checked first) or not
        matching ``retry_on`` propagate immediately.  When the loop
        gives up it re-raises the *last* failure, so callers see the
        real error, not a synthetic wrapper.  ``on_retry(attempt, exc)``
        fires before each backoff sleep — attempt numbering starts at 1.

        A set ``stop`` event aborts between attempts by re-raising the
        last failure (or a :class:`ServiceError` if ``fn`` never ran);
        a cancelled ``budget`` aborts through ``budget.checkpoint()``.
        """
        start = time.monotonic()
        last: BaseException | None = None
        attempt = 0
        for delay in self._pacing():
            attempt += 1
            if budget is not None:
                budget.checkpoint()
            if stop is not None and stop.is_set():
                break
            try:
                return fn()
            except no_retry_on:
                raise
            except retry_on as exc:
                last = exc
            if delay is None:  # that was the final attempt
                break
            if self.deadline is not None:
                elapsed = time.monotonic() - start
                if elapsed + delay >= self.deadline:
                    break
            if on_retry is not None:
                on_retry(attempt, last)
            if stop is not None:
                if stop.wait(delay):
                    break
            elif delay:
                time.sleep(delay)
        if last is None:
            raise ServiceError("retry loop stopped before the first attempt")
        raise last

    def _pacing(self) -> Iterator[float | None]:
        """``delays()`` plus a trailing ``None`` marking the last try."""
        for delay in self.delays():
            yield delay
        yield None


#: RFC 6298 smoothing gains and variance multiplier.
RTT_ALPHA = 1 / 8
RTT_BETA = 1 / 4
RTT_K = 4
#: Smallest margin the timeout keeps above the smoothed RTT (RFC 6298's
#: clock-granularity term ``G``), hence also the smallest timeout: a
#: scheduling hiccup shorter than this never looks like a lost frame.
RTO_FLOOR = 0.05
#: Timeout before the first sample (RFC 6298 §2.1).
RTO_INITIAL = 1.0


class RttEstimator:
    """Retransmission timeout from smoothed round-trip samples (RFC 6298).

    One per endpoint.  :meth:`pace` is the waiting side: it spends a
    caller's give-up bound in RTO-sized slices, asking the peer about
    the request between slices instead of sleeping the bound out.
    """

    def __init__(self) -> None:
        self.srtt: float | None = None
        self.rttvar = 0.0
        self._lock = threading.Lock()

    def sample(self, rtt: float) -> None:
        with self._lock:
            if self.srtt is None:
                self.srtt, self.rttvar = rtt, rtt / 2
            else:
                self.rttvar += RTT_BETA * (abs(self.srtt - rtt) - self.rttvar)
                self.srtt += RTT_ALPHA * (rtt - self.srtt)

    def rto(self, ceiling: float | None = None) -> float:
        """The current timeout, clamped to ``[RTO_FLOOR, ceiling]``."""
        if self.srtt is None:
            rto = RTO_INITIAL
        else:
            rto = self.srtt + max(RTO_FLOOR, RTT_K * self.rttvar)
        return rto if ceiling is None else min(rto, ceiling)

    def pace(
        self,
        wait: Callable[[float], bool],
        probe: Callable[[], None],
        limit: float,
        sent_at: float | None = None,
    ) -> tuple[bool, int]:
        """Wait up to ``limit`` seconds for ``wait(seconds)`` to return
        True: wait RTO, ``probe()``, wait 2·RTO, ``probe()``, ...

        Returns ``(resolved, probes sent)``.  A request that resolves
        while it is being waited for, unprobed, yields a sample of
        ``now - sent_at``.  A probed one yields none (Karn's rule: its
        answer may be to the request or to a probe), nor does one that
        had resolved before the wait began — how long it took is not
        known, and what it waited behind was nobody's timeout to pace.
        """
        if wait(0):
            return True, 0
        deadline = time.monotonic() + limit
        rto = self.rto(limit)
        probes = 0
        while True:
            remaining = deadline - time.monotonic()
            if wait(max(0.0, min(rto, remaining))):
                if not probes and sent_at is not None:
                    self.sample(time.monotonic() - sent_at)
                return True, probes
            if remaining <= rto:
                return False, probes
            probe()
            probes += 1
            rto *= 2


#: Session migrate/recover calls: a generous per-attempt ceiling, no
#: automatic re-try at this layer (recovery has its own loop).
SESSION_CALL_POLICY = RetryPolicy(attempts=1, timeout=30.0)

#: Cluster registry request/response calls.
REGISTRY_CALL_POLICY = RetryPolicy(attempts=1, timeout=10.0)

#: Redial loops (service → registry, agent → registry): retry forever
#: with capped backoff until told to stop.
REDIAL_POLICY = RetryPolicy(attempts=None, base_delay=0.1, max_delay=2.0)
