"""The session-oriented monitoring service over a persistent worker pool.

Public surface::

    with MonitorService(workers=4) as svc:
        future = svc.submit(computation, formula=spec)   # async batch
        report = svc.map(computations, formula=spec)     # ordered BatchReport
        session = svc.open_session(spec, epsilon=2)      # live stream
        session.observe("P1", 3, {"a"}); session.advance_to(10)
        result = session.finish()

Workers live behind the pluggable transport layer
(:mod:`repro.transport`): the default pool spawns local processes, and
``MonitorService(endpoints=["tcp://host:7701", "local", ...])`` mixes
remote worker agents into the same pool.  Sessions are migratable while
live (``svc.migrate(session, endpoint)``), and
``MonitorService(rebalance="threshold")`` starts a
:class:`~repro.service.rebalance.Rebalancer` that moves hot streams off
overloaded endpoints automatically.

Sessions are durable on request: ``MonitorService(checkpoint=...)`` (or
``open_session(checkpoint=...)``) makes a stream checkpoint its
worker-side state periodically and keep a client-side replay journal, so
a worker death recovers the stream transparently — see
:class:`~repro.service.durability.CheckpointConfig`.  Queued batch work
on a dead or persistently overloaded endpoint is *stolen* (re-executed
exactly once on a live endpoint) instead of failed.
"""

from repro.service.durability import CheckpointConfig, ReplayJournal, resolve_checkpoint
from repro.service.futures import MonitorFuture
from repro.service.rebalance import Migration, PoolView, Rebalancer
from repro.service.reports import BatchReport
from repro.service.service import MonitorService, default_workers
from repro.service.session import Session, SessionStatus
from repro.service.tasks import BatchItem, MonitorTask

__all__ = [
    "BatchItem",
    "BatchReport",
    "CheckpointConfig",
    "Migration",
    "MonitorFuture",
    "MonitorService",
    "MonitorTask",
    "PoolView",
    "Rebalancer",
    "ReplayJournal",
    "Session",
    "SessionStatus",
    "default_workers",
    "resolve_checkpoint",
]
