"""The service pool's worker side: request execution, transport-agnostic.

:class:`RequestExecutor` is the server half of the service protocol —
it owns one connection's worker state (the registry of live
:class:`~repro.monitor.online.OnlineMonitor` sessions plus the set of
dropped request ids) and turns one :class:`~repro.transport.frames.Request`
into one :class:`~repro.transport.frames.Response`.  Both transport
backends host it: :func:`service_worker_loop` runs it in a
``multiprocessing`` child for the local backend, and
:class:`~repro.transport.agent.WorkerAgent` runs one per accepted socket
for the TCP backend — so the two paths are behaviourally identical by
construction.

Formula state crossing this boundary — session snapshots and standby
blobs — is always *materialized*: the hot
loop's columnar residual representation (intern-arena ids, see
:mod:`repro.progression.columnar`) is process-local, so snapshot frames
carry canonical ``Formula`` objects and re-intern on arrival.  A
snapshot taken from a columnar-path monitor restores bit-identically on
a worker running either path.

Every request produces exactly one response; worker-side exceptions are
captured as ``"TypeName: message"`` strings and re-raised client-side by
:func:`~repro.service.futures.raise_remote`.  The executor itself never
dies on a request failure.  ``drop`` control frames are best-effort
cancellation: a dropped request that has not executed yet is skipped and
acknowledged with a ``CancelledError`` response (so client bookkeeping
still balances); one that already ran simply completes.  ``probe``
control frames ask what became of a request and never cancel anything:
see :meth:`RequestExecutor.probe`.
"""

from __future__ import annotations

import os
import queue
import time
from collections import deque
from typing import Any

from repro.errors import MonitorError
from repro.monitor.online import OnlineMonitor
from repro.progression.budget import Budget
from repro.service.session import SessionStatus
from repro.service.tasks import MonitorTask, run_monitor_task
from repro.transport.frames import (
    CONTROL_ID,
    DEFAULT_CODEC,
    DROP_STANDBY,
    DROPPED_BEFORE_EXECUTION,
    PROMOTE_SESSION,
    RESTORE_SESSION,
    SNAPSHOT_SESSION,
    STALE_REQUEST_PREFIX,
    STANDBY_SESSION,
    Codec,
    Request,
    Response,
    decode_frame,
    encode_response_with_fallback,
)

__all__ = ["Request", "RequestExecutor", "Response", "service_worker_loop"]

#: Encoded replies kept per connection, newest last, for re-sending to a
#: client whose probe says the first copy never arrived.
REPLY_CACHE_SIZE = 32
#: A reply frame larger than this is not kept (a probe for it is then
#: answered like one for a reply that aged out: with silence).
REPLY_CACHE_MAX_BYTES = 1 << 20


class RequestExecutor:
    """One connection's worker state and request dispatch.

    ``sessions`` maps session id to its live monitor; ``dropped`` holds
    ids cancelled by the client before execution.  Not thread-safe by
    itself — hosts must serialize :meth:`execute` calls (``drop`` may be
    called concurrently: set mutation is atomic and best-effort anyway).
    """

    def __init__(self) -> None:
        self.sessions: dict[int, OnlineMonitor] = {}
        #: Warm-standby snapshots held for sessions that live on *other*
        #: endpoints: ``(checkpoint sequence, raw snapshot payload)``,
        #: never rehydrated until a ``session_promote`` turns one into
        #: the live monitor — and only when the promote's expected
        #: sequence matches, so a stale blob is rejected, not restored.
        self.standby: dict[int, tuple[int, dict]] = {}
        self.dropped: set[int] = set()
        self.max_executed = -1
        self.pid = os.getpid()
        #: Drop acknowledgements minted by :meth:`drop` for requests
        #: whose frame has not arrived (yet, or ever — a lossy link may
        #: have eaten it).  The host flushes these to the client like any
        #: response; without them a drop racing a *lost* request would
        #: never be acknowledged and work stealing would hang on a frame
        #: the network already discarded.
        #: A probe for an executed request appends its cached reply here
        #: too, already encoded — hosts drain both with :meth:`take_acks`.
        self.pending_acks: list[Response | bytes] = []
        #: Ids already answered by an immediate drop-ack: if their frame
        #: shows up later it is consumed without a second response.
        self._acked: set[int] = set()
        #: Zero-arg callable a single-threaded host installs so the
        #: *running* request's budget checkpoints can drain the inbox
        #: (how a local-backend worker learns about a mid-execution
        #: drop).  Threaded hosts (the TCP agent's reader) leave it None
        #: and call :meth:`drop` concurrently instead.
        self.poll_hook = None
        #: ``(request id, budget)`` of the currently executing request.
        self._running: tuple[int, Budget] | None = None
        #: Ids ingested and not yet handed to :meth:`execute`.
        self._queued: set[int] = set()
        #: The reply cache: request id -> encoded response frame.
        self.replies: dict[int, bytes] = {}
        self.probes = 0
        self.replies_resent = 0

    def drop(self, request_id: int) -> None:
        """Mark a request id cancelled (skipped, or preempted if running).

        A drop for the *currently executing* request cancels its budget:
        the engine unwinds cooperatively within one checkpoint interval
        and the client gets a typed preempted response — not an
        abandoned worker.  Request ids on one connection arrive in
        increasing order (the service's counter is monotone and sends
        are FIFO), so a drop for an id at or below the high-water mark
        that is not running lost its race — the request already
        executed — and is discarded here rather than parked in
        ``dropped`` forever.
        """
        running = self._running
        if running is not None and running[0] == request_id:
            running[1].cancel(f"request {request_id} dropped by client")
            return
        if request_id > self.max_executed:
            self.dropped.add(request_id)
            # Ack immediately instead of waiting for the frame: on a
            # lossy link the request may never arrive, and an unacked
            # drop would stall work stealing forever.  The id stays
            # parked, so a late arrival is still skipped — silently,
            # because this ack already answered it (``_acked``).
            self._acked.add(request_id)
            self.pending_acks.append(
                Response(request_id, None, DROPPED_BEFORE_EXECUTION, self.pid)
            )

    def probe(self, request_id: int) -> None:
        """Answer a client asking what became of a request, from what
        this worker already knows — without ever cancelling work:

        * *queued or running*: nothing; the answer is on its way, however
          long the engine takes.
        * *unseen* (above the high-water mark): exactly :meth:`drop` —
          the id is parked and a :data:`DROPPED_BEFORE_EXECUTION` ack
          minted, proof the client may re-send at once.
        * *executed*: the cached reply frame is sent again (executing
          nothing).  A reply that aged out of the cache, or was too
          large for it, cannot be repaired this way: nothing is sent and
          the client falls back on its give-up timeout.
        """
        self.probes += 1
        running = self._running
        if (running is not None and running[0] == request_id) or request_id in self._queued:
            return
        if request_id > self.max_executed:
            self.drop(request_id)
            return
        frame = self.replies.get(request_id)
        if frame is not None:
            self.replies_resent += 1
            self.pending_acks.append(frame)

    def take_acks(self, codec: Codec = DEFAULT_CODEC) -> list[bytes]:
        """Drain ``pending_acks`` as encoded frames, in order."""
        acks, self.pending_acks = self.pending_acks, []
        return [
            ack if isinstance(ack, bytes) else encode_response_with_fallback(ack, codec)
            for ack in acks
        ]

    def ingest(self, request: Request) -> bool:
        """Handle a control frame in-band; True when ``request`` still
        needs :meth:`execute` (i.e. it was not a control frame)."""
        if request.request_id == CONTROL_ID:
            # Shape-check before acting: a control frame is unauthenticated
            # input like any other, and a hostile payload must not take
            # the reader thread down with a TypeError.
            if type(request.payload) is int:
                if request.op == "drop":
                    self.drop(request.payload)
                elif request.op == "probe":
                    self.probe(request.payload)
            return False
        self._queued.add(request.request_id)
        return True

    def run(self, request: Request, codec: Codec = DEFAULT_CODEC) -> bytes | None:
        """:meth:`execute` one request and frame its response, keeping
        the frame for :meth:`probe`.  The *frame* is kept, not the
        response: a snapshot payload aliases live monitor state, and a
        reply sent again later must say what the first copy said.  Stale
        refusals are not kept — they would overwrite the reply of the
        execution they refused to repeat."""
        fresh = request.request_id > self.max_executed
        response = self.execute(request)
        if response is None:
            return None
        frame = encode_response_with_fallback(response, codec)
        if fresh and len(frame) <= REPLY_CACHE_MAX_BYTES:
            self.replies[request.request_id] = frame
            if len(self.replies) > REPLY_CACHE_SIZE:
                del self.replies[next(iter(self.replies))]
        return frame

    def execute(self, request: Request) -> Response | None:
        """Run one request, capturing any failure as response data.

        Returns ``None`` when the request needs no response — its id was
        already answered by an immediate drop-ack and answering again
        would put two responses for one id on the wire.

        **Idempotency fence:** request ids on one connection strictly
        increase (monotone counter + FIFO sends), so a request at or
        below ``max_executed`` can only be a frame the network
        duplicated or reordered.  It is refused with a typed
        :data:`STALE_REQUEST_PREFIX` error *without executing* — this is
        what makes a client retry after an ambiguous timeout safe:
        whichever copy arrives second is provably inert.

        Every request runs under a fresh :class:`Budget` whose cancel
        flag a concurrent (or polled) ``drop`` can set — publishing
        ``_running`` *before* updating ``max_executed`` closes the race
        where a drop arriving between the two would be discarded as
        already-executed while the request is in fact still running.
        """
        if request.request_id <= self.max_executed:
            self._queued.discard(request.request_id)
            self.dropped.discard(request.request_id)
            if request.request_id in self._acked:
                self._acked.discard(request.request_id)
                return None
            return Response(
                request.request_id,
                None,
                f"{STALE_REQUEST_PREFIX} {request.request_id} "
                f"(high-water mark {self.max_executed}): duplicate or "
                f"reordered frame refused without executing",
                self.pid,
                op=request.op,
            )
        budget = Budget(poll_hook=self.poll_hook)
        self._running = (request.request_id, budget)
        try:
            self.max_executed = max(self.max_executed, request.request_id)
            # Only now that ``_running`` names it: a probe racing this
            # hand-over must find the request queued or running, never
            # neither (it would take it for unseen and drop it).
            self._queued.discard(request.request_id)
            if request.request_id in self.dropped:
                self.dropped.discard(request.request_id)
                if request.request_id in self._acked:
                    self._acked.discard(request.request_id)
                    return None
                return Response(
                    request.request_id,
                    None,
                    DROPPED_BEFORE_EXECUTION,
                    self.pid,
                    op=request.op,
                )
            if self._acked or self.dropped:
                # Remaining parked ids below the new high-water mark can
                # only reach us through the fence above, which consumes
                # them without dispatch; stop tracking them here so a
                # lost frame's id does not linger forever.
                self._acked = {r for r in self._acked if r > self.max_executed}
                self.dropped = {r for r in self.dropped if r > self.max_executed}
            try:
                payload = _dispatch(
                    request.op,
                    request.payload,
                    self.sessions,
                    self.standby,
                    budget=budget,
                )
                return Response(request.request_id, payload, None, self.pid, op=request.op)
            except Exception as exc:  # noqa: BLE001 — the executor must survive any request
                return Response(
                    request.request_id,
                    None,
                    f"{type(exc).__name__}: {exc}",
                    self.pid,
                    op=request.op,
                )
        finally:
            self._running = None


def service_worker_loop(inbox, response_writer, codec: Codec = DEFAULT_CODEC) -> None:
    """Local-backend worker body: frames off a queue until the sentinel.

    The inbox carries encoded frames (``None`` is the shutdown
    sentinel); responses go back over this worker's *private* pipe as
    frames too — one writer per pipe means no lock is shared between
    workers, so a worker dying mid-write (OOM-kill, crash) can never
    wedge the others' responses; the parent just sees EOF on this pipe.

    Between executions the loop drains everything already queued, so
    ``drop`` control frames overtake the requests queued behind the one
    currently running — that is what makes client-side ``cancel()``
    effective for a backlog, despite the FIFO inbox.
    """
    executor = RequestExecutor()
    pending: deque[Request] = deque()
    running = True

    def ingest(item) -> bool:
        if item is None:
            return False
        request = decode_frame(item, codec)
        if executor.ingest(request):
            pending.append(request)
        else:
            # A drop or probe for a frame that never arrived mints its
            # ack right here (a probe may also re-send a cached reply) —
            # ship it now, there may be nothing else to trigger it.
            for frame in executor.take_acks(codec):
                _send_frame(response_writer, frame)
        return True

    def poll_inbox() -> None:
        # Budget checkpoints call this mid-execution: the single-threaded
        # loop would otherwise only see a drop for the *running* request
        # after it finished, making client-side cancel useless for the
        # one request it most wants to stop.
        nonlocal running
        while running:
            try:
                item = inbox.get_nowait()
            except queue.Empty:
                return
            running = ingest(item)

    executor.poll_hook = poll_inbox

    while running or pending:
        if running and not pending:
            running = ingest(inbox.get())
        while running:  # opportunistic drain: pick up drops/sentinel early
            try:
                item = inbox.get_nowait()
            except queue.Empty:
                break
            running = ingest(item)
        if not pending:
            continue
        frame = executor.run(pending.popleft(), codec)
        if frame is None:
            continue  # already answered by an immediate drop-ack
        if not _send_frame(response_writer, frame):
            break  # parent closed/broke the pipe: exit the loop
    response_writer.close()


def _send_frame(response_writer, frame: bytes) -> bool:
    """Ship one encoded response; False only when the pipe is gone."""
    try:
        response_writer.send_bytes(frame)
    except Exception:  # noqa: BLE001 — pipe itself is gone
        return False
    return True


def _session(sessions: dict[int, OnlineMonitor], session_id: int) -> OnlineMonitor:
    try:
        return sessions[session_id]
    except KeyError:
        raise MonitorError(f"unknown session {session_id}") from None


def _observe_all(monitor: OnlineMonitor, events) -> tuple[str | None, int]:
    """Buffer ``events`` one by one; returns ``(rejection note, accepted)``.

    Events validate independently, like repeated in-process ``observe``
    calls: a rejected event must not drop the valid events batched after
    it.  All rejections surface in one note.
    """
    rejected: list[str] = []
    for process, local_time, props, deltas in events:
        try:
            monitor.observe(process, local_time, props, deltas)
        except MonitorError as exc:
            rejected.append(str(exc))
    if not rejected:
        return None, len(events)
    suffix = "" if len(rejected) == 1 else f" (+{len(rejected) - 1} more)"
    return (
        f"{len(rejected)}/{len(events)} observed event(s) rejected: "
        f"{rejected[0]}{suffix}",
        len(events) - len(rejected),
    )


def _feed_then(sessions: dict[int, OnlineMonitor], session_id: int, events, step):
    """Buffer ``events`` on the session's monitor, then run ``step()``;
    returns ``(step result, rejection note)``.

    A step that fails — preempted, or refused by the monitor — takes the
    events back out (the monitor left them at the tail of its buffer),
    so a failed call leaves the stream exactly as it found it and a
    retry may carry the same events again.
    """
    monitor = sessions[session_id]
    note, accepted = _observe_all(monitor, events)
    try:
        return step(), note
    except MonitorError:
        if accepted:
            snapshot = monitor.snapshot()
            del snapshot["buffer"][-accepted:]
            snapshot["events_consumed"] -= accepted
            sessions[session_id] = OnlineMonitor.restore(snapshot)
        raise


def _dispatch(
    op: str,
    payload: Any,
    sessions: dict[int, OnlineMonitor],
    standby: dict[int, dict] | None = None,
    budget: Budget | None = None,
) -> Any:
    if standby is None:
        standby = {}
    if op == "monitor":
        task: MonitorTask = payload
        return run_monitor_task(task, budget)
    if op == "session_open":
        session_id, formula, epsilon, kwargs = payload
        if session_id in sessions:
            raise MonitorError(f"session {session_id} already open")
        sessions[session_id] = OnlineMonitor(formula, epsilon, **kwargs)
        return session_id
    if op == "session_observe":
        session_id, events = payload
        note, _ = _observe_all(_session(sessions, session_id), events)
        if note is not None:
            raise MonitorError(note)
        return len(events)
    if op == "session_advance":
        # One frame per boundary: ``(session_id, boundary, events)``
        # buffers the client's events first and answers ``(verdicts,
        # rejection note or None)``.  Nothing in ``src/`` sends the
        # 2-field ``(session_id, boundary)`` form (answered with bare
        # verdicts) any more; it is kept for the frozen ledger replay
        # and the older tests, as is ``session_finish (session_id,)``.
        session_id, boundary, *carried = payload
        monitor = _session(sessions, session_id)
        if boundary == monitor.frontier and boundary > 0:
            # Memoized exactly-once reply: the frontier already moved
            # here, so this is a *retried* advance whose first response
            # was lost in transit (the retry carries a fresh request id,
            # so the connection-level fence cannot catch it).  Re-answer
            # with the verdicts decided so far — the same cumulative set
            # ``advance_to`` returned — instead of re-executing or
            # surfacing the in-process boundary error.  Events it
            # carries were buffered by that first execution; if that
            # execution rejected some, its note went with the first
            # reply (best-effort: here it is not repeated).
            verdicts, note = monitor.current_verdicts, None
        else:
            verdicts, note = _feed_then(
                sessions, session_id, carried[0] if carried else (),
                lambda: monitor.advance_to(boundary, budget=budget),
            )
        return (verdicts, note) if carried else verdicts
    if op == "session_poll":
        (session_id,) = payload
        monitor = _session(sessions, session_id)
        return SessionStatus(
            verdicts=monitor.current_verdicts,
            pending=monitor.pending,
            undecided_residuals=monitor.undecided_residuals,
            finished=monitor.finished,
        )
    if op == "session_finish":
        # ``(session_id, events)`` (or the ledger's ``(session_id,)``).
        # Rejections in the carried events are not reported: a finished
        # stream has no later call to surface them on.
        session_id, *carried = payload
        monitor = _session(sessions, session_id)
        result, _ = _feed_then(
            sessions, session_id, carried[0] if carried else (),
            lambda: monitor.finish(budget=budget),
        )
        del sessions[session_id]
        return result
    if op == "session_close":
        (session_id,) = payload
        return sessions.pop(session_id, None) is not None
    if op == SNAPSHOT_SESSION:
        # Serialize-but-keep: the origin copy stays live until the client
        # confirms the restore landed, so a failed hop (dead target,
        # refused restore) leaves the stream usable where it was.  The
        # client discards the origin copy (``session_close``) only after
        # the target acknowledged.
        (session_id,) = payload
        return _session(sessions, session_id).snapshot()
    if op == RESTORE_SESSION:
        session_id, snapshot = payload
        if session_id in sessions:
            raise MonitorError(f"session {session_id} already open")
        sessions[session_id] = OnlineMonitor.restore(snapshot)
        # A restored primary supersedes any standby copy still held here
        # (e.g. recovery fell back to a client-side restore onto the
        # standby endpoint): keeping the stale blob would shadow later
        # replicas of the same stream.
        standby.pop(session_id, None)
        return session_id
    if op == STANDBY_SESSION:
        session_id, sequence, snapshot = payload
        if session_id in sessions:
            raise MonitorError(
                f"session {session_id} is live on this endpoint; "
                f"it cannot also hold the standby"
            )
        standby[session_id] = (sequence, snapshot)  # replaces any older replica
        return session_id
    if op == PROMOTE_SESSION:
        session_id, expected_sequence = payload
        if session_id in sessions:
            raise MonitorError(f"session {session_id} already open")
        try:
            sequence, snapshot = standby.pop(session_id)
        except KeyError:
            raise MonitorError(f"no standby for session {session_id}") from None
        if sequence != expected_sequence:
            # The blob predates the client's last applied checkpoint (a
            # refresh was lost or never sent): rehydrating it would
            # silently shed every event between the two, since the
            # replay journal only covers the newer one.  Popped either
            # way — a stale blob has no future use.
            raise MonitorError(
                f"standby for session {session_id} is stale: holds "
                f"checkpoint {sequence}, promote expects {expected_sequence}"
            )
        sessions[session_id] = OnlineMonitor.restore(snapshot)
        return session_id
    if op == DROP_STANDBY:
        (session_id,) = payload
        return standby.pop(session_id, None) is not None
    if op == "ping":
        return (os.getpid(), len(sessions))
    if op == "echo":
        return payload
    if op == "sleep":  # test/ops support: occupy the executor
        time.sleep(min(float(payload), 60.0))
        return payload
    if op == "crash":  # test/ops support: simulate peer death mid-request
        os._exit(int(payload) if payload else 17)
    raise MonitorError(f"unknown service op {op!r}")
