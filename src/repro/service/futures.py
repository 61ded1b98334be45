"""Client-side handles for requests in flight on the service pool."""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro import errors
from repro.errors import ServiceError


def raise_remote(error: str) -> None:
    """Re-raise a worker-side error string as its original exception class.

    Workers serialise failures as ``"TypeName: message"``.  Known
    :class:`~repro.errors.ReproError` subclasses re-raise as themselves so
    callers keep the same ``except MonitorError`` behaviour they would have
    against an in-process engine; everything else (and malformed strings)
    becomes :class:`~repro.errors.ServiceError`.
    """
    name, _, message = error.partition(": ")
    exc_type = getattr(errors, name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, errors.ReproError):
        raise exc_type(message or error)
    raise ServiceError(error)


class MonitorFuture:
    """Result of one asynchronous service request.

    Resolved by the service's dispatcher thread when the owning worker
    responds.  ``result()`` blocks; ``done()`` polls.  Transport failures
    and worker-side exceptions both surface from ``result()`` (see
    :func:`raise_remote` for the mapping).
    """

    __slots__ = (
        "_event",
        "_payload",
        "_error",
        "_callbacks",
        "_lock",
        "_cancelled",
        "cancel_hook",
        "task_index",
        "request_id",
        "sent_at",
    )

    #: The error string a client-side cancellation resolves with.
    CANCEL_MESSAGE = "CancelledError: cancelled by caller"

    def __init__(self) -> None:
        self._event = threading.Event()
        self._payload: Any = None
        self._error: str | None = None
        self._callbacks: list[Callable[[], None]] = []
        self._lock = threading.Lock()
        self._cancelled = False
        #: Set by the service: best-effort propagation of a cancel to the
        #: worker (a ``drop`` control frame).
        self.cancel_hook: Callable[[], None] | None = None
        #: Set by batch submits: the ``BatchItem.index`` this request
        #: carries, so ``gather`` can label a future that never reached
        #: the worker (cancelled, transport failure) consistently with
        #: the items that did.
        self.task_index: int | None = None
        #: The wire request id the service allocated for this future —
        #: lets an abandoning caller (session recovery on a lossy link)
        #: settle the outstanding books without waiting for an ack that
        #: may never arrive.
        self.request_id: int | None = None
        #: ``time.monotonic()`` when the service put the request on the
        #: wire — what a paced wait measures its round trip from.
        self.sent_at: float | None = None

    def done(self) -> bool:
        """True once the worker has responded (successfully or not)."""
        return self._event.is_set()

    @property
    def error(self) -> str | None:
        """The captured error string, or None (only meaningful once done)."""
        return self._error

    @property
    def cancelled(self) -> bool:
        """True when :meth:`cancel` won the race against the response."""
        return self._cancelled

    def cancel(self) -> bool:
        """Cancel the request client-side (best-effort worker-side).

        A future that has not resolved yet resolves immediately with
        :class:`~repro.errors.CancelledError`; the worker is asked (via
        the service's drop frame) to skip the request if it has not
        executed it.  Returns True when the cancel won — an
        already-resolved future cannot be cancelled (False), and
        repeated cancels keep returning the first outcome.
        """
        with self._lock:
            if self._event.is_set():
                return self._cancelled
            hook = self.cancel_hook
        self.resolve(None, self.CANCEL_MESSAGE)
        won = self._error == self.CANCEL_MESSAGE
        if won:
            self._cancelled = True
            if hook is not None:
                try:
                    hook()
                except Exception:  # noqa: BLE001 — cancel must stay best-effort
                    pass
        return won

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved or ``timeout`` passed; True when resolved."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """Block until resolved; return the payload or raise the error."""
        if not self._event.wait(timeout):
            raise ServiceError(f"request did not complete within {timeout}s")
        if self._error is not None:
            raise_remote(self._error)
        return self._payload

    def forward_to(self, other: "MonitorFuture") -> None:
        """Mirror this future's outcome into ``other`` once resolved.

        Used by work stealing: the caller keeps blocking on the original
        future while its request is transparently re-executed elsewhere —
        the replacement request's future forwards here.
        """
        self.add_done_callback(lambda: other.resolve(self._payload, self._error))

    # -- dispatcher side -----------------------------------------------------------

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when resolved (immediately if already done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback()

    def resolve(self, payload: Any, error: str | None = None) -> None:
        """Set the outcome exactly once and fire callbacks."""
        with self._lock:
            if self._event.is_set():
                return
            self._payload = payload
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for callback in callbacks:
            callback()
