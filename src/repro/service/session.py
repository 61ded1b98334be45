"""Client-side handle for one live monitoring stream on the service.

A :class:`Session` mirrors the :class:`~repro.monitor.online.OnlineMonitor`
surface (``observe`` / ``advance_to`` / ``poll`` / ``finish``) but the
monitor state lives inside the worker process the session is sharded to —
so hundreds of live feeds progress in parallel across the pool while each
individual stream stays strictly ordered (per-worker inboxes are FIFO).

``observe`` is asynchronous: events buffer client-side and ride to the
worker *inside* the next ``advance_to`` (or ``finish``) request — one
frame per boundary — so a hot feed costs one queue round-trip per segment
advance rather than one per event.  Validation errors (an event behind the
frontier, a non-advancing boundary) therefore surface at the *next
synchronising call* (``advance_to``/``poll``/``finish``), not at
``observe`` itself — the one semantic difference from the in-process
``OnlineMonitor``.

Sessions are **migratable**: :meth:`migrate` moves the worker-side
monitor state to another pool endpoint mid-stream (see
:mod:`repro.service.rebalance` for the policies that decide when).  All
session calls serialize on one internal lock, so a migration triggered
by a background rebalancer interleaves safely with the thread feeding
the stream, and per-stream ordering holds across the hop: everything
sent before the hop completes on the origin endpoint before the snapshot
is taken, and everything after goes to the target.

Sessions are also **durable** when opened with a checkpoint policy
(``MonitorService(checkpoint=...)`` or ``open_session(checkpoint=...)``):
the worker-side monitor state is checkpointed back to the client
periodically (the same serialize-but-keep ``session_snapshot`` frame
migration uses), every call is recorded in a client-side
:class:`~repro.service.durability.ReplayJournal`, and when the hosting
worker dies the session transparently restores the last checkpoint onto
a live endpoint and replays the journal instead of surfacing a
:class:`~repro.errors.ServiceError`.  With ``standby=True`` (or
``"hot"`` for rebalancer-marked streams) each checkpoint is also pushed
to a second endpoint, so failover skips the snapshot transfer entirely —
recovery is promote + journal replay.  Replicas are trusted only once
the store is acknowledged, and each blob carries its checkpoint
sequence number so a promote can never rehydrate a replica that went
stale relative to the truncated journal.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import (
    CancelledError,
    MonitorError,
    PreemptedError,
    ReproError,
    ServiceError,
)
from repro.monitor.verdicts import MonitorResult
from repro.mtl.ast import Formula
from repro.retry import SESSION_CALL_POLICY, RetryPolicy
from repro.service.durability import CheckpointConfig, ReplayJournal
from repro.service.futures import MonitorFuture, raise_remote
from repro.transport.frames import (
    DROP_STANDBY,
    DROPPED_BEFORE_EXECUTION,
    PROMOTE_SESSION,
    RESTORE_SESSION,
    SNAPSHOT_SESSION,
    STANDBY_SESSION,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.service import MonitorService

#: Client-side observe buffer auto-flushes beyond this many events.
OBSERVE_FLUSH_THRESHOLD = 256

#: Bound on each blocking round-trip inside a migration (snapshot,
#: restore): a hop must fail loudly rather than park the stream forever
#: behind a wedged endpoint.  Aliases the shared session call policy so
#: every session-layer round-trip answers to one knob.
MIGRATE_TIMEOUT = SESSION_CALL_POLICY.timeout

#: Bound on each blocking round-trip inside a recovery (promote,
#: restore, replayed batch): recovery happens on the caller's thread, so
#: a wedged replacement endpoint must fail the call, not hang it.
RECOVERY_TIMEOUT = SESSION_CALL_POLICY.timeout


@dataclass(frozen=True)
class SessionStatus:
    """Snapshot of one session's progress (built worker-side by ``poll``)."""

    verdicts: frozenset[bool]
    pending: int
    undecided_residuals: int
    finished: bool


class Session:
    """One multiplexed online-monitoring stream (build via
    :meth:`~repro.service.MonitorService.open_session`)."""

    def __init__(
        self,
        service: "MonitorService",
        session_id: int,
        worker_index: int,
        formula: Formula,
        epsilon: int,
        monitor_kwargs: Mapping[str, object] | None = None,
        checkpoint: CheckpointConfig | None = None,
        call_policy: RetryPolicy | None = None,
    ) -> None:
        self._service = service
        self._id = session_id
        self._worker = worker_index
        self._formula = formula
        self._epsilon = epsilon
        self._monitor_kwargs = dict(monitor_kwargs or {})
        self._buffer: list[tuple[str, int, frozenset[str], dict[str, float] | None]] = []
        self._inflight: deque[MonitorFuture] = deque()
        self._finished = False
        self._result: MonitorResult | None = None
        # One lock serializes every session call (feeding thread,
        # rebalancer thread): reentrant because the synchronising calls
        # flush internally.
        self._lock = threading.RLock()
        #: The synchronising round-trip currently blocking a caller, if
        #: any — :meth:`interrupt` reads it from *other* threads, so it
        #: is published before the blocking wait and cleared after,
        #: never under the session lock from the interrupter's side.
        self._sync_future: MonitorFuture | None = None
        self._events_observed = 0
        self._migrations = 0
        # Endpoints that may still hold a stale copy of this session: a
        # migration's best-effort origin discard that was not confirmed
        # (send failed or ack timed out).  Maps worker index to the
        # discard's future (None when the discard never left the
        # client).  Any later hop back to such an endpoint must fence on
        # the discard first — see :meth:`_fence_stale_copy`.
        self._stale_copies: dict[int, MonitorFuture | None] = {}
        #: Per-call retry policy for the synchronising round-trips
        #: (``advance_to``/``poll``/``finish``).  ``None`` (the default)
        #: keeps the historical behaviour: block until the worker
        #: answers, however long that takes.  A policy with a
        #: ``timeout`` paces the wait with status probes (a lost frame
        #: is proven, or its cached reply sent again, within a round
        #: trip — see :meth:`_call`) and arms the gray-failure fence: a
        #: round-trip whose probes went unanswered for the whole
        #: per-attempt bound sends the worker a drop frame and
        #: classifies the typed answer — proven-not-executed and
        #: executed-then-unwound both retry safely, silence quarantines
        #: the endpoint (see :meth:`_fence_slow_call`).
        self._call_policy = call_policy
        #: The sync future :meth:`interrupt` last sent a drop frame for:
        #: a drop ack on it answers the caller, not a status probe.
        self._interrupted: MonitorFuture | None = None
        #: Last boundary whose advance the worker acknowledged.
        self._advanced_to: int | None = None
        # -- durability state (all None/zero when not checkpointing) --
        self._checkpoint = checkpoint
        self._journal: ReplayJournal | None = (
            ReplayJournal() if checkpoint is not None else None
        )
        self._events_since_checkpoint = 0
        self._last_checkpoint_time = time.monotonic()
        #: In-flight snapshot request: ``(future, journal mark)``.
        self._pending_checkpoint: tuple[MonitorFuture, int] | None = None
        #: In-flight standby store: ``(future, target)``.  The replica is
        #: recorded in ``_standby_worker`` only once the worker acks it —
        #: see :meth:`_poll_pending_standby`.
        self._pending_standby: tuple[MonitorFuture, int] | None = None
        self._standby_worker: int | None = None
        self._hot = False
        self._recoveries = 0

    @property
    def session_id(self) -> int:
        return self._id

    @property
    def worker_index(self) -> int:
        """The pool worker this session is currently pinned to (may change
        when the session is migrated)."""
        return self._worker

    @property
    def endpoint(self) -> str:
        """Transport endpoint of the worker hosting this stream
        (``local[i]`` or ``tcp://host:port``)."""
        return self._service.endpoint(self._worker)

    @property
    def formula(self) -> Formula:
        return self._formula

    @property
    def epsilon(self) -> int:
        return self._epsilon

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def events_observed(self) -> int:
        """Total events successfully flushed to the worker so far (the
        rebalancer's per-stream heat signal).  Buffered events that die
        in a failed flush — or are discarded by :meth:`close` — never
        count, so the signal reflects load the pool actually carried."""
        return self._events_observed

    @property
    def migrations(self) -> int:
        """How many times this stream has hopped endpoints."""
        return self._migrations

    @property
    def durable(self) -> bool:
        """True when this session checkpoints (worker death recovers)."""
        return self._journal is not None

    @property
    def checkpoints(self) -> int:
        """Checkpoints applied so far (0 for non-durable sessions)."""
        return self._journal.checkpoints_applied if self._journal is not None else 0

    @property
    def journal_length(self) -> int:
        """Ops recorded since the last applied checkpoint (replay cost)."""
        return len(self._journal) if self._journal is not None else 0

    @property
    def recoveries(self) -> int:
        """How many times this stream was restored after a worker death."""
        return self._recoveries

    @property
    def standby_worker(self) -> int | None:
        """Endpoint holding this stream's warm-standby replica, if any."""
        return self._standby_worker

    @property
    def hot(self) -> bool:
        """True while the rebalancer considers this stream hot (drives
        ``standby="hot"`` replication)."""
        return self._hot

    def mark_hot(self) -> None:
        """Flag this stream hot (rebalancer heat signal)."""
        self._hot = True

    def mark_cold(self) -> None:
        self._hot = False

    # -- feeding -----------------------------------------------------------------

    def observe(
        self,
        process: str,
        local_time: int,
        props: object = (),
        deltas: Mapping[str, float] | None = None,
    ) -> None:
        """Buffer one event for the stream (asynchronous, non-blocking)."""
        with self._lock:
            self._ensure_live()
            if isinstance(props, str):
                props = (props,)
            event = (
                process,
                local_time,
                frozenset(props),
                dict(deltas) if deltas else None,
            )
            self._buffer.append(event)
            if self._journal is not None:
                self._journal.record_event(event)
            if len(self._buffer) >= OBSERVE_FLUSH_THRESHOLD:
                self._durable_call(self._flush)
                self._maybe_checkpoint()

    def _flush(self) -> None:
        """Ship buffered events to the worker (fire-and-forget, tracked).

        A send that fails (dead endpoint, closed service) keeps the
        buffer intact and raises :class:`~repro.errors.ServiceError`
        naming the event count — buffered events must never be dropped
        silently just because the worker died before a flush.  (Durable
        sessions recover instead: the journal already records the
        buffered events, so restore-and-replay re-feeds them.)
        """
        if not self._buffer:
            return
        future = self._send_buffered(
            self._worker, "session_observe", (self._id, tuple(self._buffer))
        )
        self._mark_flushed()
        self._inflight.append(future)

    def _send_buffered(self, worker: int, op: str, payload: object) -> MonitorFuture:
        """Send a request that carries the buffer; a failed send names
        the buffered events it strands."""
        try:
            return self._service._send_session(worker, op, payload)
        except ServiceError as exc:
            if not self._buffer:
                raise
            raise ServiceError(
                f"{len(self._buffer)} buffered observe event(s) for session "
                f"{self._id} could not be flushed to {self._endpoint_text(worker)}: {exc}"
            ) from exc

    def _mark_flushed(self) -> None:
        """The buffered events have left for the worker.

        Counted only now, so the rebalancer's heat signal tracks carried
        load, not buffered intent that a failed send (or close) may
        discard.
        """
        flushed = len(self._buffer)
        self._events_observed += flushed
        self._events_since_checkpoint += flushed
        self._buffer = []

    def _check_inflight(self, wait: bool = False) -> None:
        """Surface the first failed observe batch; drop completed ones.

        A failed batch is removed *before* its error raises, so the
        session stays usable afterwards (mirroring the in-process
        ``OnlineMonitor``, where a rejected ``observe`` does not poison
        the stream).
        """
        # A waiting check is bounded by the call policy's per-attempt
        # timeout when one is set: a dropped observe frame (or its lost
        # response) must surface as a ServiceError — evidence of frame
        # loss that durable sessions repair by restore-and-replay —
        # rather than park the caller forever.
        policy = self._call_policy
        timeout = policy.timeout if policy is not None else None
        while self._inflight:
            future = self._inflight[0]
            if not wait and not future.done():
                break
            self._inflight.popleft()
            self._settle(future, timeout)  # raises the remote error if the batch failed

    # -- advancing / inspecting ----------------------------------------------------

    def advance_to(self, boundary: int) -> frozenset[bool]:
        """Declare all times below ``boundary`` final; return decided verdicts."""
        with self._lock:
            self._ensure_live()
            verdicts, rejected = self._durable_call(lambda: self._advance_once(boundary))
            self._durable_call(lambda: self._check_inflight(wait=True))
            if rejected is not None:
                # Raised only now: the advance itself happened (frontier
                # moved, journaled), exactly as when the rejection came
                # back on an observe batch of its own.
                raise MonitorError(rejected)
            self._maybe_checkpoint()
            return verdicts

    def _advance_once(self, boundary: int) -> tuple[frozenset[bool], str | None]:
        """One frame per boundary: the buffered events ride inside the
        advance request; the worker buffers them, advances, and answers
        ``(verdicts, rejection note)``.  A worker-side failure (refused
        boundary, preemption) takes the events back out, so the buffer
        is kept for the retry; the worker answers a retried advance that
        finds the frontier already at ``boundary`` without applying the
        events again.
        """
        repeat = boundary == self._advanced_to
        if repeat:
            # Not a retry but a repeat of an acknowledged boundary,
            # which the worker would take for one: events observed since
            # then go ahead on a frame of their own.
            self._flush()
        self._check_inflight()
        verdicts, rejected = self._roundtrip(
            "session_advance", (self._id, boundary, tuple(self._buffer))
        )
        self._mark_flushed()
        self._confirm_inflight("session_advance")
        if self._journal is not None and not repeat:
            # Journaled only after the worker acknowledged: an advance
            # that died mid-flight is *retried* after replay, not
            # replayed as if it had happened.  A repeat moved nothing on
            # the worker and is left out: replay carries each observe
            # run inside the advance that follows it, and an advance
            # that finds the frontier already there drops what it
            # carries.
            self._journal.record_advance(boundary)
        self._advanced_to = boundary
        return verdicts, rejected

    def poll(self) -> SessionStatus:
        """Current verdicts / buffered-event / residual counts (cheap round-trip)."""
        with self._lock:
            if self._finished:
                return SessionStatus(
                    verdicts=self._result.verdicts if self._result else frozenset(),
                    pending=0,
                    undecided_residuals=0,
                    finished=True,
                )
            status = self._durable_call(self._poll_once)
            # Responses are FIFO per worker, so any flushed observe batch has
            # resolved by now — surface its rejection here, not one call late.
            self._durable_call(lambda: self._check_inflight(wait=True))
            self._maybe_checkpoint()
            return status

    def _poll_once(self) -> SessionStatus:
        self._flush()
        self._check_inflight()
        status = self._roundtrip("session_poll", (self._id,))
        self._confirm_inflight("session_poll")
        return status

    def finish(self) -> MonitorResult:
        """Consume everything buffered, close residuals, return the verdicts.

        Idempotent: repeated calls return the same result object.  A
        session discarded with :meth:`close` has no verdicts to return.
        """
        with self._lock:
            if self._finished:
                if self._result is None:
                    raise MonitorError(
                        f"session {self._id} was closed without computing verdicts"
                    )
                return self._result
            self._result = self._durable_call(self._finish_once)
            self._finished = True
            self._teardown_durability()
            self._service._forget_session(self._id)
            return self._result

    def _finish_once(self) -> MonitorResult:
        self._check_inflight()
        result = self._roundtrip("session_finish", (self._id, tuple(self._buffer)))
        self._mark_flushed()
        self._confirm_inflight("session_finish")
        return result

    def close(self) -> None:
        """Discard the stream without computing verdicts.

        Best-effort cancels every in-flight observe batch first (a drop
        frame lets the worker skip batches it has not executed yet), so
        a closed session's queued work does not keep burning the pool —
        and its rejections cannot surface anywhere afterwards.
        """
        with self._lock:
            if self._finished:
                return
            self._buffer.clear()
            for future in self._inflight:
                future.cancel()
            self._inflight.clear()
            try:
                self._roundtrip("session_close", (self._id,))
            finally:
                self._finished = True
                self._teardown_durability()
                self._service._forget_session(self._id)

    def _teardown_durability(self) -> None:
        """Release durability resources when the stream seals.

        The journal object itself stays (its counters remain
        introspectable after :meth:`finish`); only its replay state and
        any standby replica are released.
        """
        self._retire_standby()
        self._pending_checkpoint = None
        if self._journal is not None:
            self._journal.clear()

    # -- checkpointing --------------------------------------------------------------

    def checkpoint_now(self, wait: bool = True) -> bool:
        """Force a checkpoint regardless of cadence (ops/test hook).

        Returns True when a checkpoint was applied (or the journal was
        already empty, i.e. the last applied checkpoint is current).
        """
        with self._lock:
            if self._journal is None or self._finished:
                return False
            self._durable_call(self._flush)
            self._maybe_checkpoint(force=True)
            if wait:
                self._apply_pending_checkpoint(wait=True)
                return len(self._journal) == 0
            return self._pending_checkpoint is not None

    def _maybe_checkpoint(self, force: bool = False) -> None:
        """Request a snapshot when the cadence says so (non-blocking).

        Only ever called with an empty client buffer (right after a
        flush or a synchronising round-trip): the journal mark recorded
        here must count *flushed* work only, since the snapshot request
        queues behind exactly that on the worker's FIFO connection.
        """
        if self._journal is None or self._finished:
            return
        self._apply_pending_checkpoint()
        if self._pending_checkpoint is not None or self._buffer:
            return
        config = self._checkpoint
        due = force
        if (
            not due
            and config.every_events is not None
            and self._events_since_checkpoint >= config.every_events
        ):
            due = True
        if (
            not due
            and config.every_seconds is not None
            and time.monotonic() - self._last_checkpoint_time >= config.every_seconds
        ):
            due = True
        if not due:
            return
        if self._journal.mark() == 0:
            # Nothing new since the applied checkpoint: snapshot + empty
            # journal already reconstructs the current state exactly.
            self._events_since_checkpoint = 0
            self._last_checkpoint_time = time.monotonic()
            return
        try:
            future = self._service._send_session(
                self._worker, SNAPSHOT_SESSION, (self._id,)
            )
        except ServiceError:
            # Cadence counters deliberately untouched: the checkpoint is
            # still due, so the next sync point retries immediately
            # instead of letting the replay window grow a full interval.
            return  # dead worker: the next synchronising call recovers
        self._events_since_checkpoint = 0
        self._last_checkpoint_time = time.monotonic()
        self._pending_checkpoint = (future, self._journal.mark())

    def _apply_pending_checkpoint(self, wait: bool = False) -> None:
        """Adopt a resolved snapshot request; truncate the journal.

        Polled from session calls (never from response-dispatcher
        callbacks: those must not take the session lock).  A failed
        snapshot is simply dropped — the journal still covers everything
        since the last *applied* checkpoint, so recovery stays correct,
        just with a longer replay.  The same poll settles any in-flight
        standby store (commit on ack, retire on failure).
        """
        self._poll_pending_standby()
        if self._pending_checkpoint is not None:
            future, mark = self._pending_checkpoint
            if wait or future.done():
                self._pending_checkpoint = None
                try:
                    snapshot = self._settle(future, self._recovery_timeout())
                except ReproError:
                    pass
                else:
                    self._journal.apply_checkpoint(snapshot, mark)
                    self._push_standby(snapshot)
        if wait:
            self._poll_pending_standby(wait=True)

    def _push_standby(self, snapshot: dict) -> None:
        """Ship the just-applied checkpoint to a warm-standby endpoint.

        Every applied checkpoint either refreshes the replica or retires
        it: the journal was just truncated to this checkpoint, so a
        replica that silently stops being refreshed (stream went cold,
        no live peer, send failure) would promote into lost history.
        "No refresh" therefore always means "no replica" — and the
        worker-side sequence guard backstops any window this
        bookkeeping cannot see.
        """
        config = self._checkpoint
        if config.standby is False or (config.standby == "hot" and not self._hot):
            self._retire_standby()
            return
        dead = self._service.dead_endpoints()

        def usable(index: int | None) -> bool:
            # An endpoint with an unconfirmed discard of this session
            # may still hold a stale *live* copy that would reject (or
            # worse, shadow) the store — never replicate onto one.
            return (
                index is not None
                and index != self._worker
                and not dead[index]
                and index not in self._stale_copies
            )

        pending_target = (
            self._pending_standby[1] if self._pending_standby is not None else None
        )
        if usable(pending_target):
            target = pending_target
        elif usable(self._standby_worker):
            target = self._standby_worker
        else:
            depth = self._service.outstanding()
            candidates = [
                index for index in range(self._service.workers) if usable(index)
            ]
            if not candidates:
                self._retire_standby()
                return  # nowhere to replicate: the pool is down to one endpoint
            target = min(candidates, key=lambda index: depth[index])
        if pending_target is not None and pending_target != target:
            self._pending_standby = None
            self._drop_standby(pending_target)
        if self._standby_worker is not None and self._standby_worker != target:
            worker_index, self._standby_worker = self._standby_worker, None
            self._drop_standby(worker_index)
        try:
            future = self._service._send_session(
                target,
                STANDBY_SESSION,
                (self._id, self._journal.checkpoints_applied, snapshot),
            )
        except ServiceError:
            self._retire_standby()
            return
        self._pending_standby = (future, target)

    def _poll_pending_standby(self, wait: bool = False) -> None:
        """Commit an acked standby store; retire the replica on a failure.

        ``_standby_worker`` repoints only once the worker acknowledged
        holding the blob — a store that failed (rejected by a stale live
        copy, endpoint died, send lost) leaves whatever replica exists
        one checkpoint behind the truncated journal, so it is dropped
        rather than left around to be promoted stale later.
        """
        if self._pending_standby is None:
            return
        future, target = self._pending_standby
        if not wait and not future.done():
            return
        self._pending_standby = None
        try:
            self._settle(future, self._recovery_timeout())
        except ReproError:
            self._retire_standby()
            return
        if self._standby_worker is not None and self._standby_worker != target:
            self._drop_standby(self._standby_worker)
        self._standby_worker = target

    def _retire_standby(self) -> None:
        """Drop the replica everywhere it may live (acked or in flight).

        Called whenever replication stops tracking the journal's
        truncation point; recovery then takes the cold restore path
        instead of gambling on a frozen blob.
        """
        targets = set()
        if self._pending_standby is not None:
            targets.add(self._pending_standby[1])
            self._pending_standby = None
        if self._standby_worker is not None:
            targets.add(self._standby_worker)
            self._standby_worker = None
        for target in targets:
            self._drop_standby(target)

    def _drop_standby(self, worker_index: int) -> None:
        """Best-effort discard of a standby replica on one endpoint."""
        try:
            self._service._send_session(worker_index, DROP_STANDBY, (self._id,))
        except Exception:  # noqa: BLE001 — cleanup must not mask the outcome
            pass

    # -- recovery -------------------------------------------------------------------

    def _recovery_timeout(self) -> float:
        """Bound on each blocking round-trip inside recovery/checkpoint
        settling: the session's call-policy timeout when one is armed
        (chaos runs need recovery to fail fast and re-pick), the
        generous :data:`RECOVERY_TIMEOUT` default otherwise."""
        policy = self._call_policy
        if policy is not None and policy.timeout is not None:
            return policy.timeout
        return RECOVERY_TIMEOUT

    def _durable_call(self, fn: Callable):
        """Run one session step; on transport death, restore-and-replay
        onto a live endpoint and retry the step.

        Non-durable sessions get the plain call (errors surface).  The
        retry loop is bounded by the config's ``max_recovery_attempts``;
        a recovery that fails (its own target died mid-restore) counts
        as an attempt and the loop tries again — the failed target is
        reaped, so the next pick lands elsewhere.
        """
        if self._journal is None:
            return fn()
        attempts = 0
        while True:
            try:
                return fn()
            except CancelledError:
                # A deliberate client-side drop (interrupt(), a cancelled
                # observe batch) — not a worker death.  Recovering would
                # replay the very call the caller just preempted.
                raise
            except ServiceError as exc:
                if self._service.closed or self._finished:
                    raise
                attempts += 1
                if attempts > self._checkpoint.max_recovery_attempts:
                    raise
                try:
                    self._recover(exc)
                except ServiceError:
                    continue  # recovery target died too: loop picks another

    def _recover(self, cause: ServiceError) -> None:
        """Restore the stream onto a live endpoint and replay the journal.

        Runs on the caller's thread, under the session lock.  By the
        time a session call observes a worker-death ServiceError the
        service has already marked the endpoint dead, so live-endpoint
        picks can never return the corpse.
        """
        # Adopt a checkpoint that resolved before the death (its
        # snapshot is strictly newer than the one we hold), and settle
        # any in-flight standby store so the warm path below sees the
        # freshest committed replica.
        self._apply_pending_checkpoint()
        self._poll_pending_standby(wait=True)
        limit = self._recovery_timeout()
        origin = self._worker
        restored = False
        dead = self._service.dead_endpoints()
        standby = self._standby_worker
        if standby is not None and standby != self._worker and not dead[standby]:
            # Warm path: the replica endpoint already holds the last
            # checkpoint — promote it and skip the snapshot transfer.
            # The promote names the checkpoint sequence it expects; the
            # worker rejects a blob that does not match, so a replica
            # that went stale behind the truncated journal can never be
            # rehydrated with history silently missing.
            try:
                sequence = self._journal.checkpoints_applied
                self._call(standby, PROMOTE_SESSION, (self._id, sequence), limit)
                self._worker = standby
                self._standby_worker = None
                restored = True
            except ReproError:
                # The promote may have *executed* with its ack lost on a
                # lossy link, leaving a live primary copy on the replica
                # endpoint: fence it so a later placement discards the
                # possible orphan before reusing the endpoint.
                self._stale_copies.setdefault(standby, None)
                self._standby_worker = None  # replica unusable: cold path
        if not restored:
            target = self._service._pick_worker()  # raises when none live
            if target == self._worker:
                # The origin still passes liveness yet failed a session
                # call: a *gray* endpoint (partitioned one way, crawling,
                # dropping frames) rather than a corpse.  Restoring on
                # top of the live copy would collide, so quarantine the
                # origin out of placement and pick again; when it is the
                # last live endpoint there is nowhere to fail over to
                # and the original failure surfaces.  Nothing has been
                # cleared yet: the buffer and in-flight batches are
                # intact for the retried call to deliver.
                if not self._service.quarantine_endpoint(
                    self._worker,
                    reason=f"session {self._id} recovery after: {cause}",
                ):
                    raise cause
                target = self._service._pick_worker()
                if target == self._worker:
                    raise cause
            try:
                self._fence_stale_copy(target, limit)
                if self._journal.snapshot is not None:
                    restore = (self._id, self._journal.snapshot)
                    self._call(target, RESTORE_SESSION, restore, limit)
                else:
                    # Died before the first checkpoint: the journal covers
                    # the stream from the very beginning, so recovery is a
                    # fresh open plus a full replay.
                    opening = (
                        self._id,
                        self._formula,
                        self._epsilon,
                        dict(self._monitor_kwargs),
                    )
                    self._call(target, "session_open", opening, limit)
            except ServiceError:
                # The restore/open may have *executed* with its ack lost:
                # remember the possible orphan copy so the next placement
                # onto this endpoint discards it first, then let the
                # durable loop retry the recovery.
                self._stale_copies.setdefault(target, None)
                raise
            except MonitorError as exc:
                # An unconfirmable fence, or a collision with an orphan
                # copy a previous lost-ack restore left behind.  Both are
                # retryable at this level: fence the endpoint and re-raise
                # as ServiceError so the durable loop re-picks instead of
                # surfacing a fatal monitor error.
                self._stale_copies.setdefault(target, None)
                raise ServiceError(
                    f"session {self._id} could not be restored onto "
                    f"endpoint {target}: {exc}"
                ) from exc
            self._worker = target
        if self._worker != origin and not self._service.dead_endpoints()[origin]:
            # A gray origin survived the failover and may still hold a
            # live copy of this stream: queue a best-effort discard
            # behind whatever is wedged on its connection, and fence any
            # later placement back onto it (``_stale_copies`` tracks the
            # unconfirmed discard exactly like a migration's would).
            self._discard_copy(origin)
        # Only now that a rebuilt copy verifiably exists is the
        # superseded work dropped: the journal records it all, and
        # replay re-feeds it onto the restored state.  Clearing any
        # earlier would let a recovery that secures no target (e.g. the
        # raise above) silently strand buffered events in the journal.
        # Each abandoned batch is cancelled (best-effort worker-side
        # drop, so a frame still in flight is parked, not executed
        # against the superseded copy) and its outstanding bookkeeping
        # settled explicitly — a lossy link may never deliver the ack
        # the books would otherwise wait on.
        for future in self._inflight:
            future.cancel()
        self._service._abandon_requests(list(self._inflight))
        self._inflight.clear()
        self._buffer.clear()
        self._recoveries += 1
        self._replay()

    def _replay(self) -> None:
        """Re-apply the journal, in order, onto the rebuilt monitor.

        Framed like the live feed: each run of observes rides inside the
        advance that follows it.  Journaled boundaries strictly increase
        from the snapshot's frontier (:meth:`_advance_once` leaves out a
        repeat), so each advance moves the frontier and applies what it
        carries.  A journaled event the monitor rejects was rejected
        identically when first fed (and surfaced then), so rejection
        notes are dropped; valid events still apply.
        """
        limit = self._recovery_timeout()
        events: tuple = ()
        for kind, payload in self._journal.replay_ops():
            if kind == "observe":
                events = tuple(payload)
                continue
            self._call(
                self._worker, "session_advance", (self._id, payload, events), limit
            )
            events = ()
        if events:
            try:
                self._call(self._worker, "session_observe", (self._id, events), limit)
            except ServiceError:
                raise
            except MonitorError:
                pass

    # -- migration ----------------------------------------------------------------

    def migrate(self, target_index: int, timeout: float = MIGRATE_TIMEOUT) -> None:
        """Move this stream's monitor state to another pool endpoint.

        The hop preserves strict per-stream ordering and is atomic from
        the caller's perspective:

        1. the client observe buffer is drained to the origin endpoint
           (so the snapshot sees every event observed so far);
        2. the origin serializes the monitor (``session_snapshot``) —
           FIFO per connection, so the snapshot executes after every
           flushed batch;
        3. the target rehydrates it (``session_restore``);
        4. only then is the stale origin copy discarded and the session
           repointed — every later call goes to the target.

        A failed hop (dead target, refused restore) raises and leaves
        the stream exactly where it was, still usable on the origin.
        Safe to call from a background thread (the rebalancer) while
        another thread feeds the stream.
        """
        with self._lock:
            self._ensure_live()
            origin = self._worker
            if target_index == origin:
                return
            if not 0 <= target_index < self._service.workers:
                raise MonitorError(
                    f"cannot migrate session {self._id}: no endpoint {target_index} "
                    f"in a pool of {self._service.workers}"
                )
            # Fence: an earlier hop *away from* the target whose discard
            # was never confirmed may have left a stale copy there — a
            # fast A→B→A re-migration must not race it.
            self._fence_stale_copy(target_index, timeout)
            self._flush()
            snapshot = self._call(origin, SNAPSHOT_SESSION, (self._id,), timeout)
            # FIFO: every flushed observe batch resolved before the
            # snapshot did — surface a rejection now, before the hop.
            self._check_inflight(wait=True)
            try:
                self._call(target_index, RESTORE_SESSION, (self._id, snapshot), timeout)
            except BaseException:
                # The restore may still be queued on the target (a
                # timeout lost the race, not the request): queue a
                # discard behind it — FIFO, so whichever way the race
                # went the target ends up without a duplicate copy.
                self._discard_copy(target_index)
                raise
            # The hop landed: repoint, then discard the stale origin
            # copy.  Waiting for the ack keeps the outstanding counters
            # settled when migrate returns; a dying origin takes its
            # copy with it, so failure here is fine — the unconfirmed
            # discard is remembered and fenced on any later hop back.
            self._worker = target_index
            self._migrations += 1
            if (
                self._pending_standby is not None
                and self._pending_standby[1] == target_index
            ):
                # An in-flight store raced the hop to the same endpoint:
                # whichever landed first, no usable blob remains there
                # (the restore pops a stored one; a store after the
                # restore is rejected as a live-copy conflict).
                self._pending_standby = None
            if self._standby_worker == target_index:
                # The primary now lives where the replica was; the
                # worker dropped the shadowed blob on restore.
                self._standby_worker = None
            self._discard_copy(origin, wait=timeout)

    def _discard_copy(self, worker_index: int, wait: float | None = None) -> None:
        """Best-effort ``session_close`` for a stale copy on one endpoint.

        Every discard is tracked in ``_stale_copies`` until its ack
        confirms the copy is gone; an unconfirmed endpoint is fenced
        before this session may ever be restored onto it again.
        """
        try:
            future = self._service._send_session(
                worker_index, "session_close", (self._id,)
            )
        except Exception:  # noqa: BLE001 — cleanup must not mask the outcome
            # The discard never left the client: remember the endpoint
            # as unconfirmed so a later hop back re-issues it first.
            self._stale_copies[worker_index] = None
            return
        self._stale_copies[worker_index] = future
        if wait is not None:
            try:
                self._settle(future, wait)
            except Exception:  # noqa: BLE001 — stays unconfirmed, fenced later
                return
            del self._stale_copies[worker_index]

    def _fence_stale_copy(self, worker_index: int, timeout: float) -> None:
        """Confirm no stale copy of this session survives on an endpoint.

        No-op for endpoints with no unconfirmed discard.  A dead
        endpoint took its copy with it, which confirms the discard for
        free.  Otherwise the fence waits for the outstanding discard ack
        (re-issuing the discard if the original send never happened) and
        raises :class:`~repro.errors.MonitorError` when the copy's fate
        cannot be confirmed — migrating into a possible duplicate would
        race two live copies of one stream.
        """
        if worker_index not in self._stale_copies:
            return
        if self._service.dead_endpoints()[worker_index]:
            del self._stale_copies[worker_index]
            return
        future = self._stale_copies[worker_index]
        try:
            if future is None:
                future = self._service._send_session(
                    worker_index, "session_close", (self._id,)
                )
                self._stale_copies[worker_index] = future
            self._settle(future, timeout)
        except Exception as exc:  # noqa: BLE001 — any failure leaves it unconfirmed
            if self._service.dead_endpoints()[worker_index]:
                del self._stale_copies[worker_index]
                return
            raise MonitorError(
                f"cannot place session {self._id} on endpoint {worker_index}: "
                f"a stale copy there has an unconfirmed discard ({exc})"
            ) from exc
        del self._stale_copies[worker_index]

    # -- preemption ---------------------------------------------------------------

    def interrupt(self) -> bool:
        """Preempt the session call another thread is blocked in right now.

        Sends the drop frame for the in-flight synchronising round-trip
        (``advance_to``/``poll``/``finish``) *without* resolving its
        future client-side: the worker cancels the running request's
        budget, the engine unwinds within one checkpoint interval, and
        the blocked caller gets the worker's **typed** answer — a
        :class:`~repro.errors.PreemptedError` when the drop caught the
        request mid-execution (worker-side state rolled back, the call
        is retryable), or a :class:`~repro.errors.CancelledError` when
        it had not started yet.  Returns True when an interrupt was
        dispatched, False when no synchronising call was in flight.

        Deliberately takes **no** session lock: the blocked caller holds
        it, so locking here would deadlock the interrupter.
        """
        future = self._sync_future
        if future is None or future.done():
            return False
        hook = future.cancel_hook
        if hook is None:
            return False
        # Before the frame leaves: the blocked caller must take the
        # worker's drop ack for the answer to this interrupt, never for
        # proof that a frame was lost (which it would re-send).
        self._interrupted = future
        try:
            hook()
        except Exception:  # noqa: BLE001 — interrupt stays best-effort
            return False
        return True

    # -- plumbing -----------------------------------------------------------------

    def _roundtrip(self, op: str, payload: object):
        """A synchronising round-trip to the hosting worker: published
        for :meth:`interrupt`, bounded and fenced by the call policy."""
        policy = self._call_policy
        limit = policy.timeout if policy is not None else None
        return self._call(self._worker, op, payload, limit, fenced=True)

    def _settle(self, future: MonitorFuture, limit: float | None):
        """Paced wait for a request sent earlier; its payload or error."""
        if self._service._await(future, limit) is None:
            raise ServiceError(f"request did not complete within {limit}s")
        return future.result(0)

    def _call(
        self,
        worker: int,
        op: str,
        payload: object,
        limit: float | None,
        fenced: bool = False,
    ):
        """Send one request and return its answer (or raise its error).

        The wait is :meth:`MonitorService._await
        <repro.service.MonitorService>` (RTT-paced, a status probe
        between slices).  A worker's proof that it never saw the frame
        re-sends the request at once — but a drop ack is that proof only
        when this wait probed and nobody cancelled or interrupted the
        call; otherwise it answers the cancel and is raised.

        When ``limit`` runs out unanswered a plain call fails; a
        ``fenced`` one (the synchronising round-trips) is published for
        :meth:`interrupt`, runs the hard cancel fence
        (:meth:`_fence_slow_call`) and retries, returns or declares the
        endpoint gray on its outcome.  Sends are bounded by the call
        policy's ``attempts``; only fence retries back off.
        """
        policy = self._call_policy if self._call_policy is not None else SESSION_CALL_POLICY
        delays = policy.delays()
        attempt = 0
        while True:
            attempt += 1
            send = self._send_buffered if fenced else self._service._send_session
            future = send(worker, op, payload)
            if fenced:
                self._sync_future = future
            try:
                probes = self._service._await(future, limit)
            finally:
                if fenced:
                    self._sync_future = None
            timed_out = probes is None
            if not timed_out:
                try:
                    return future.result(0)
                except CancelledError:
                    if (
                        not probes
                        or future.error != DROPPED_BEFORE_EXECUTION
                        or future.cancelled
                        or self._interrupted is future
                    ):
                        raise
            elif not fenced:
                raise ServiceError(
                    f"session call {op!r} to {self._endpoint_text(worker)} did "
                    f"not complete within {limit}s"
                )
            else:
                # Probes went unanswered for the whole per-attempt bound
                # — an ambiguous timeout.  Retrying blindly could execute
                # the op twice, so fence first.
                outcome, value = self._fence_slow_call(future, op)
                if outcome == "done":
                    return value
                if outcome == "gray":
                    self._declare_gray(worker, future, op)
            delay = next(delays, None)
            if delay is None:
                raise ServiceError(
                    f"session call {op!r} to {self._endpoint_text(worker)} "
                    f"{'timed out' if timed_out else 'was lost in transit'} on "
                    f"all {attempt} attempt(s)"
                )
            if timed_out and delay:
                time.sleep(delay)

    def _declare_gray(self, worker: int, future: MonitorFuture, op: str) -> None:
        """Gray endpoint: alive enough to hold the connection open, too
        broken to answer probes or the fence.  Settle the silent
        request's books (its ack may never come), quarantine the
        endpoint out of placement (reversible — probes readmit a healed
        link) and surface a ServiceError: durable sessions
        restore-and-replay onto a live endpoint, plain sessions fail
        loudly."""
        timeout = self._call_policy.timeout
        self._service._abandon_requests([future])
        self._service.quarantine_endpoint(
            worker,
            reason=f"session call {op!r} fence unanswered after {timeout}s",
        )
        raise ServiceError(
            f"session call {op!r} to {self._endpoint_text(worker)} timed out "
            f"and the cancellation fence went unanswered: endpoint is "
            f"gray (quarantined), the call may or may not have executed"
        )

    def _fence_slow_call(self, future: MonitorFuture, op: str):
        """Classify a synchronising round-trip whose probes went
        unanswered for the whole per-attempt timeout.

        Sends the worker a drop frame for the in-flight request (the
        same control path :meth:`interrupt` uses) and waits one more
        per-attempt timeout for the *typed* answer.  FIFO per connection
        makes the classification sound:

        * ``CancelledError`` — the worker acked the drop before ever
          executing the request (:data:`~repro.transport.frames.
          DROPPED_BEFORE_EXECUTION`), or the request id was already
          superseded.  Proof of zero executions: safe to resend.
        * ``PreemptedError`` — the drop caught the request mid-execution
          and the engine unwound without mutating monitor state.  Also
          safe to resend.
        * a payload — the response was merely slow; the call executed
          exactly once and this *is* its result.
        * any other resolved error — a real failure; re-raised.
        * still silent — nothing provable: the endpoint is gray and the
          caller must not retry (``("gray", None)``).
        """
        hook = future.cancel_hook
        if hook is not None:
            try:
                hook()
            except Exception:  # noqa: BLE001 — fence stays best-effort
                pass
        try:
            payload = future.result(self._call_policy.timeout)
        except CancelledError:
            return ("retry", None)  # proven: dropped before execution
        except PreemptedError:
            return ("retry", None)  # proven: executed-then-unwound
        except ServiceError:
            if future.done():
                raise  # a real failure answered the fence
            return ("gray", None)
        return ("done", payload)

    def _confirm_inflight(self, op: str) -> None:
        """FIFO gap check: run after a synchronising round-trip resolves,
        *before* its result is journaled or returned.

        Requests on one connection execute and answer in order, so the
        sync response resolving proves every earlier observe batch was
        answered first.  An earlier future still unresolved is therefore
        positive evidence of frame loss (the batch or its response died
        in transit) — the sync call may have executed *without* those
        events, so its verdicts cannot be trusted.  Raised as a
        :class:`~repro.errors.ServiceError`: durable sessions repair by
        restore-and-replay (the journal holds every lost event), plain
        sessions fail loudly instead of silently mis-monitoring.
        """
        lost = sum(1 for future in self._inflight if not future.done())
        if lost:
            raise ServiceError(
                f"{lost} observe batch(es) for session {self._id} were still "
                f"unresolved when {op!r} answered — frames were lost on "
                f"{self._endpoint_text()}, so this call's result is untrusted"
            )
        # A batch the *transport layer* refused is the same evidence in a
        # different uniform: a reordered frame the worker's request-id
        # fence rejected as stale, or one dropped before execution.  The
        # sync call then ran without those events.  (Monitor-level
        # validation rejections are NOT gap evidence — the in-process
        # monitor would have refused the same events — and keep
        # surfacing from the post-call ``_check_inflight`` pass.)
        for future in self._inflight:
            error = future.error
            if error is not None and error.startswith(
                ("ServiceError", "CancelledError")
            ):
                raise ServiceError(
                    f"an observe batch for session {self._id} was refused in "
                    f"transit ({error}) before {op!r} answered — this call's "
                    f"result is untrusted"
                )

    def _endpoint_text(self, worker: int | None = None) -> str:
        worker = self._worker if worker is None else worker
        try:
            return self._service.endpoint(worker)
        except Exception:  # noqa: BLE001 — diagnostics must not mask the error
            return f"worker {worker}"

    def _ensure_live(self) -> None:
        if self._finished:
            raise MonitorError(f"session {self._id} already finished")
