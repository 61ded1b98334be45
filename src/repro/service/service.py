"""The long-lived monitoring service: one pool, two surfaces.

The paper's motivating deployment is *continuous* monitoring of live
blockchain feeds.  The one-shot entry points (fork a pool per call,
monitor, tear the pool down) pay the fork tax on every batch and cannot
hold streaming state at all.  :class:`MonitorService` is the server core
that fixes both:

* **Pool lifecycle over pluggable transports** — each worker endpoint is
  a :class:`~repro.transport.Transport` (the default ``workers=N``
  spawns N local processes; ``endpoints=[...]`` mixes local workers and
  remote :class:`~repro.transport.agent.WorkerAgent` hosts in one pool).
  The service itself speaks only the transport interface: requests go
  out through :meth:`~repro.transport.Connection.send`, responses come
  back on backend reader threads, and liveness (process health locally,
  heartbeat recency over TCP) is the backend's verdict — the service
  just reaps endpoints whose connection reports dead and fails their
  futures with :class:`~repro.errors.ServiceError`.

* **Async batch API** — :meth:`submit` ships one computation and returns
  a future immediately; :meth:`submit_many` fans a sequence out;
  :meth:`map` blocks and aggregates a
  :class:`~repro.service.reports.BatchReport` (ordered items, per-item
  error capture, cancelled items marked).  Backpressure: at most
  ``max_in_flight`` batch items may be unresolved — further submits
  block until the pool catches up.  Futures support best-effort
  :meth:`~repro.service.futures.MonitorFuture.cancel`.

* **Session API** — :meth:`open_session` pins a live
  :class:`~repro.monitor.online.OnlineMonitor` stream to a worker
  (sharded by session id, by an explicit affinity ``key``, or by
  ``placement="least_loaded"`` from per-endpoint outstanding-request
  depth) and returns a :class:`~repro.service.session.Session` handle.
  Requests for one session stay strictly ordered on its endpoint.
  Placement is no longer frozen at open time: :meth:`migrate` moves a
  live stream to another endpoint mid-feed (worker-side
  snapshot/restore), and ``rebalance="threshold"|"periodic"`` starts a
  :class:`~repro.service.rebalance.Rebalancer` that does it
  automatically for skewed feed mixes.

Usage::

    with MonitorService(workers=4) as svc:                # local pool
        report = svc.map(computations, formula=spec)      # batch surface
        session = svc.open_session(spec, epsilon=2)       # streaming surface
        session.observe("apricot", 3, {"apr.escrow(alice)"})
        session.advance_to(10)
        result = session.finish()

    MonitorService(endpoints=["local", "tcp://10.0.0.7:7701"])  # mixed pool
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import zlib
from typing import Sequence

from repro.distributed.computation import DistributedComputation
from repro.errors import CancelledError, MonitorError, ReproError, ServiceError
from repro.mtl.ast import Formula
from repro.retry import REDIAL_POLICY, RetryPolicy, RttEstimator
from repro.service.durability import CheckpointConfig, resolve_checkpoint
from repro.service.futures import MonitorFuture
from repro.service.reports import BatchReport
from repro.service.session import Session
from repro.service.tasks import BatchItem, MonitorTask
from repro.transport import (
    CONTROL_ID,
    DROPPED_BEFORE_EXECUTION,
    Connection,
    LocalTransport,
    Request,
    Response,
    Transport,
    resolve_transport,
)

#: Batch ops whose requests may be *stolen* — re-executed on another
#: endpoint when the one they were queued on dies or stays overloaded.
#: Only pure computations qualify: session ops mutate worker-held stream
#: state, so replaying one elsewhere would corrupt the stream (sessions
#: have their own recovery — checkpoints and journal replay).
STEALABLE_OPS = ("monitor",)

#: Registry re-dial backoff: first retry delay and its cap, seconds.
#: Aliases into the shared :data:`repro.retry.REDIAL_POLICY` — the
#: service, the agent, and any future redialer back off identically.
REGISTRY_REDIAL_MIN = REDIAL_POLICY.base_delay
REGISTRY_REDIAL_MAX = REDIAL_POLICY.max_delay

#: How often the liveness thread polls each connection's own verdict.
LIVENESS_POLL_SECONDS = 0.25

#: Gray-failure quarantine hysteresis: a quarantined endpoint must
#: answer this many consecutive probe pings, each within the probe
#: timeout, before it is readmitted to placement.  One slow ping resets
#: the streak — flapping links stay quarantined.
QUARANTINE_PROBES = 3
QUARANTINE_PROBE_TIMEOUT = 2.0

#: Session placement policies accepted by :meth:`MonitorService.open_session`.
PLACEMENTS = ("hash", "least_loaded")


def default_workers() -> int:
    """Pool size when the caller does not pick one (bounded: oversubscribing
    a monitoring pool buys nothing)."""
    import os

    return max(1, min(8, os.cpu_count() or 1))


class MonitorService:
    """A persistent monitoring pool with batch and session surfaces.

    Parameters
    ----------
    workers:
        Pool size for the default all-local pool; ``None`` picks
        :func:`default_workers`.  Ignored (must match, if given) when
        ``endpoints`` is passed.
    formula:
        Default specification for :meth:`submit`/:meth:`map` (overridable
        per call).  Sessions always pass their formula explicitly.
    monitor:
        Default engine kind for batch items — any
        :func:`~repro.monitor.factory.make_monitor` kind including
        ``"auto"`` (workers re-select per item from its computation).
    max_in_flight:
        Backpressure bound on unresolved batch items; ``None`` derives
        ``workers * 4``.
    endpoints:
        Explicit worker endpoints: each entry is a
        :class:`~repro.transport.Transport`, ``"local"``, or a TCP
        address (``"tcp://host:port"``).  Backends mix freely.
    registry:
        A :class:`~repro.cluster.ClusterRegistry` address
        (``"tcp://host:port"``): subscribe to live membership and resize
        the pool as agents come and go — a **join** adds the agent as a
        new endpoint (and kicks the rebalancer: a placement event), a
        graceful **leave** drains the endpoint through
        :meth:`retire_endpoint` (sessions migrate off, queued batch work
        is stolen back, nothing is lost), and a missed-heartbeat
        **death** falls through to the usual recovery path (work
        stealing, durable-session restore).  Combines with ``workers``/
        ``endpoints``: those are the static floor of the pool (default:
        none — the pool starts empty and grows as members announce).
    token:
        Shared auth token for TCP endpoints and the registry connection
        (HMAC challenge/response at connection open — see
        :mod:`repro.transport.auth`).  ``None`` resolves
        ``REPRO_AGENT_TOKEN``; the empty string disables auth explicitly.
    heartbeat_interval:
        Heartbeat cadence for TCP endpoints given as *string* specs
        (including endpoints absorbed from registry joins), seconds.
        ``None`` keeps the transport default (1 s).  Endpoints passed as
        ready :class:`~repro.transport.Transport` objects keep their own
        cadence.  Fault-schedule tests run this at millisecond scale so
        silence is detected in tens of milliseconds, not seconds.
    liveness_timeout:
        Silence threshold before a string-spec TCP endpoint is declared
        dead, seconds.  ``None`` keeps the transport default (5 s).
    auto_calibrate:
        Run a budgeted engine-crossover probe at startup and apply the
        measured thresholds to the ``kind="auto"`` factory (see
        :mod:`repro.monitor.calibration`).  Runs *before* local workers
        spawn so they inherit the thresholds; remote agents keep their
        own (calibrate on their host via ``REPRO_FACTORY_CALIBRATION``).
    auto_calibrate_budget:
        Wall-clock budget per calibration probe, seconds.
    rebalance:
        Live-rebalancing policy: ``"threshold"``, ``"periodic"``, or any
        callable ``policy(view)`` (see :mod:`repro.service.rebalance`).
        ``None`` (default) keeps placement frozen at open time; manual
        :meth:`migrate` works either way.
    rebalance_interval:
        Cadence of rebalance cycles, seconds.
    rebalance_threshold:
        Outstanding-depth divergence that triggers the ``"threshold"``
        policy.
    rebalance_steal_threshold:
        Outstanding-depth divergence beyond which the rebalancer also
        *steals* queued batch work from a persistently overloaded
        endpoint (see :meth:`steal_queued`).  ``None`` (default)
        disables live stealing; dead-endpoint stealing is always on.
    checkpoint:
        Default durability policy for sessions: ``None`` (default) opens
        plain non-durable sessions; ``True`` checkpoints at the default
        cadence; a dict or :class:`~repro.service.durability.CheckpointConfig`
        picks the cadence/standby mode.  Overridable per
        :meth:`open_session` call.
    **monitor_kwargs:
        Default engine knobs for batch items (``segments=``, budgets, ...),
        merged with per-call overrides.
    """

    def __init__(
        self,
        workers: int | None = None,
        formula: Formula | None = None,
        monitor: str = "auto",
        max_in_flight: int | None = None,
        endpoints: Sequence[Transport | str] | None = None,
        registry: str | None = None,
        token: str | None = None,
        heartbeat_interval: float | None = None,
        liveness_timeout: float | None = None,
        auto_calibrate: bool = False,
        auto_calibrate_budget: float = 1.0,
        rebalance=None,
        rebalance_interval: float | None = None,
        rebalance_threshold: int | None = None,
        rebalance_steal_threshold: int | None = None,
        checkpoint: bool | dict | CheckpointConfig | None = None,
        **monitor_kwargs,
    ) -> None:
        # Rebalance/durability arguments are validated before any worker
        # spawns: a typo'd policy must not pay (then tear down) a pool start.
        self._checkpoint = resolve_checkpoint(checkpoint)
        if rebalance_steal_threshold is not None and rebalance_steal_threshold < 1:
            raise MonitorError(
                f"rebalance_steal_threshold must be >= 1, got "
                f"{rebalance_steal_threshold}"
            )
        rebalance_policy = None
        if rebalance is not None:
            from repro.service.rebalance import (
                OUTSTANDING_THRESHOLD,
                REBALANCE_INTERVAL,
                resolve_policy,
            )

            rebalance_policy = resolve_policy(
                rebalance,
                rebalance_threshold
                if rebalance_threshold is not None
                else OUTSTANDING_THRESHOLD,
            )
            if rebalance_interval is None:
                rebalance_interval = REBALANCE_INTERVAL
            if rebalance_interval <= 0:
                raise MonitorError(
                    f"rebalance interval must be > 0, got {rebalance_interval}"
                )
        elif (
            rebalance_interval is not None
            or rebalance_threshold is not None
            or rebalance_steal_threshold is not None
        ):
            raise MonitorError(
                "rebalance_interval/rebalance_threshold/rebalance_steal_threshold "
                "need a rebalance policy"
            )

        # TCP liveness cadence for endpoints given as *string* specs —
        # here, from add_endpoint, and from registry join events.  Ready
        # Transport objects keep whatever cadence they were built with.
        self._heartbeat_interval = heartbeat_interval
        self._liveness_timeout = liveness_timeout
        if endpoints is not None:
            transports = [
                resolve_transport(
                    spec,
                    token,
                    heartbeat_interval=heartbeat_interval,
                    liveness_timeout=liveness_timeout,
                )
                for spec in endpoints
            ]
            if not transports and registry is None:
                raise MonitorError("endpoints must name at least one worker")
            if workers is not None and workers != len(transports):
                raise MonitorError(
                    f"workers={workers} contradicts the {len(transports)} endpoints"
                )
        else:
            if workers is not None and workers < 1:
                raise MonitorError(f"workers must be >= 1, got {workers}")
            if workers is None and registry is not None:
                count = 0  # elastic-only pool: every endpoint comes from members
            else:
                count = workers if workers is not None else default_workers()
            transports = [LocalTransport() for _ in range(count)]
        self._workers = len(transports)
        self._token = token
        if max_in_flight is None:
            max_in_flight = max(4, self._workers * 4)
        if max_in_flight < 1:
            raise MonitorError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self._max_in_flight = max_in_flight
        self._formula = formula
        self._kind = monitor
        self._monitor_kwargs = dict(monitor_kwargs)

        self.calibration_report: dict | None = None
        self._calibration_path: str | None = None
        if auto_calibrate:
            # Before any local worker starts, so the pool inherits the
            # measured thresholds whatever the start method: forked
            # children copy the applied table directly, spawned children
            # re-import the factory and pick the report up through the
            # calibration env hook set below.
            import json
            import os
            import tempfile

            from repro.monitor.calibration import run_calibration
            from repro.monitor.factory import CALIBRATION_ENV_VAR, apply_calibration

            self.calibration_report = run_calibration(
                quick=True, repeats=1, budget=auto_calibrate_budget
            )
            apply_calibration(self.calibration_report["thresholds"])
            handle = tempfile.NamedTemporaryFile(
                "w", prefix="repro-calibration-", suffix=".json", delete=False
            )
            with handle:
                json.dump(self.calibration_report, handle)
            self._calibration_path = handle.name
            os.environ[CALIBRATION_ENV_VAR] = handle.name

        self._closed = False
        self._lock = threading.Lock()
        self._request_ids = itertools.count()
        self._session_ids = itertools.count()
        self._futures: dict[int, MonitorFuture] = {}
        # Outstanding request ids per endpoint.  Ids reach an endpoint in
        # increasing order (see ``_send``), so each dict is ordered by
        # id: the FIFO gap reaper reads its overtaken ids off the front,
        # and its length is the endpoint's placement depth.
        self._pending: list[dict[int, None]] = [{} for _ in range(self._workers)]
        # One RTT estimator per endpoint paces every session wait on it
        # (see ``_await``); ``_probes`` counts the status probes sent.
        self._rtt = [RttEstimator() for _ in range(self._workers)]
        self._probes = 0
        # Work-stealing state: ``_stealable`` keeps the (op, payload) of
        # every outstanding *pure* batch request so it can be re-sent to
        # another endpoint; ``_stealing`` marks request ids whose drop
        # frame is in flight to a live-but-overloaded endpoint — their
        # dropped-before-execution ack triggers the resubmit.
        self._stealable: dict[int, tuple[str, object]] = {}
        self._stealing: set[int] = set()
        self._steals = 0
        self._dead = [False] * self._workers
        self._retired = [False] * self._workers
        # Gray-failure quarantine: flagged endpoints are excluded from
        # all placement (like retiring ones) but their connection stays
        # open — sessions still need it to snapshot/migrate off, and the
        # liveness loop probes it for readmission.
        self._quarantined = [False] * self._workers
        self._quarantine_reasons: dict[int, str] = {}
        self._probe_futures: dict[int, tuple[MonitorFuture, float]] = {}
        self._probe_streak: dict[int, int] = {}
        self._sessions: dict[int, Session] = {}
        self._inflight = threading.BoundedSemaphore(max_in_flight)
        # Serializes pool-shape changes (add/retire): reservations and
        # connection installs must land in index order.  Never nests
        # inside self._lock (membership holds it *around* short _lock
        # sections and the blocking transport open).
        self._membership_lock = threading.Lock()
        self._registry = None
        self._registry_spec = registry
        self._registry_redial_lock = threading.Lock()
        self._membership_events: queue.Queue = queue.Queue()
        self._membership_thread: threading.Thread | None = None

        self._connections: list[Connection] = []
        self._send_locks = [threading.Lock() for _ in transports]
        try:
            for index, transport in enumerate(transports):
                self._connections.append(
                    transport.open(
                        self._make_on_response(index),
                        self._make_on_disconnect(index),
                    )
                )
        except BaseException:
            # Any spawn/connect failure (not just ServiceError — queue and
            # pipe creation raise raw OSError under fd pressure) must tear
            # down the workers already opened, or they leak unjoinable.
            for connection in self._connections:
                connection.close(timeout=1.0)
            self._cleanup_calibration_artifacts()
            raise
        self._liveness_stop = threading.Event()
        self._liveness = threading.Thread(
            target=self._liveness_loop, name="monitor-service-liveness", daemon=True
        )
        self._liveness.start()

        self.rebalancer = None
        if rebalance_policy is not None:
            from repro.service.rebalance import Rebalancer

            try:
                self.rebalancer = Rebalancer(
                    self,
                    policy=rebalance_policy,
                    interval=rebalance_interval,
                    steal_threshold=rebalance_steal_threshold,
                ).start()
            except BaseException:
                self.close(timeout=1.0)
                raise

        if registry is not None:
            from repro.cluster import RegistryClient

            try:
                self._membership_thread = threading.Thread(
                    target=self._membership_loop,
                    name="monitor-service-membership",
                    daemon=True,
                )
                self._membership_thread.start()
                self._registry = RegistryClient.connect(
                    registry,
                    token=token,
                    on_event=self._on_membership_event,
                    on_lost=self._on_registry_lost,
                )
                # watch() returns the snapshot the event stream continues
                # from, so members present before we subscribed and members
                # joining after are absorbed by the same path, exactly once.
                for member in self._registry.watch():
                    self._absorb_member(member)
            except BaseException:
                self.close(timeout=1.0)
                raise

    # -- introspection -------------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def max_in_flight(self) -> int:
        return self._max_in_flight

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def open_sessions(self) -> int:
        """Live sessions currently tracked by this client."""
        return len(self._sessions)

    @property
    def steals(self) -> int:
        """Batch requests transparently re-placed on another endpoint so
        far (dead-endpoint work stealing plus :meth:`steal_queued`)."""
        with self._lock:
            return self._steals

    def endpoints(self) -> list[str]:
        """Endpoint description of every pool worker, by index."""
        return [connection.endpoint for connection in self._connections]

    def endpoint(self, worker_index: int) -> str:
        return self._connections[worker_index].endpoint

    @property
    def probes(self) -> int:
        """Status probes sent so far by paced session waits (zero on a
        link that answers within its retransmission timeout)."""
        with self._lock:
            return self._probes

    def outstanding(self) -> list[int]:
        """Per-endpoint outstanding-request depth (the placement signal)."""
        with self._lock:
            return [len(ids) for ids in self._pending]

    def dead_endpoints(self) -> list[bool]:
        """Per-endpoint unusability flags (reaped endpoints stay dead).

        True also for endpoints that are *retiring* (draining toward a
        graceful leave) or *quarantined* (gray-failing: partitioned or
        slow, placement-excluded until probes readmit them) — everything
        that keys placement off this signal (standby replicas, rebalance
        targets) must treat those exactly like dead ones: never put
        anything new there.
        """
        with self._lock:
            installed = len(self._connections)
            return [
                dead or retired or quarantined or index >= installed
                for index, (dead, retired, quarantined) in enumerate(
                    zip(self._dead, self._retired, self._quarantined)
                )
            ]

    def quarantined_endpoints(self) -> list[bool]:
        """Per-endpoint quarantine flags (subset of :meth:`dead_endpoints`)."""
        with self._lock:
            return list(self._quarantined)

    def live_sessions(self) -> list[Session]:
        """The sessions currently tracked by this client (rebalancer input)."""
        with self._lock:
            return list(self._sessions.values())

    def worker_pids(self) -> list[int]:
        """PID of every pool worker (round-trips a ping through each endpoint)."""
        futures = [
            self._send(index, "ping", None)
            for index in range(len(self._connections))
        ]
        return [future.result()[0] for future in futures]

    # -- async batch surface --------------------------------------------------------

    def submit(
        self,
        computation: DistributedComputation,
        formula: Formula | None = None,
        index: int = 0,
        **overrides,
    ) -> MonitorFuture:
        """Ship one computation to the pool; resolves to a :class:`BatchItem`.

        Blocks only when ``max_in_flight`` batch items are already
        unresolved (backpressure).  Engine failures are captured *inside*
        the item (``BatchItem.error``), so ``result()`` raises only on
        transport-level trouble.  The returned future supports
        best-effort :meth:`~repro.service.futures.MonitorFuture.cancel`.
        """
        self._ensure_open()
        task = MonitorTask(
            index=index,
            kind=overrides.pop("monitor", self._kind),
            formula=self._resolve_formula(formula),
            kwargs={**self._monitor_kwargs, **overrides},
            computation=computation,
        )
        self._inflight.acquire()
        try:
            future = self._send(self._pick_worker(), "monitor", task)
        except BaseException:
            self._inflight.release()
            raise
        future.task_index = index
        future.add_done_callback(self._inflight.release)
        return future

    def submit_many(
        self,
        computations: Sequence[DistributedComputation],
        formula: Formula | None = None,
        **overrides,
    ) -> list[MonitorFuture]:
        """Submit a batch; futures keep input order (``BatchItem.index`` too)."""
        return [
            self.submit(computation, formula, index=index, **overrides)
            for index, computation in enumerate(computations)
        ]

    def map(
        self,
        computations: Sequence[DistributedComputation],
        formula: Formula | None = None,
        **overrides,
    ) -> BatchReport:
        """Monitor every computation and aggregate a :class:`BatchReport`.

        The blocking counterpart of :meth:`submit_many`: items come back
        in input order with per-item error capture (cancelled futures
        become cancelled items); wall-clock spans the whole batch
        including queueing.
        """
        started = time.perf_counter()
        futures = self.submit_many(computations, formula, **overrides)
        return self._gather(futures, started)

    def gather(self, futures: Sequence[MonitorFuture]) -> BatchReport:
        """Block on a batch of :meth:`submit` futures and aggregate them.

        The tail half of :meth:`map`, usable directly when futures were
        handed out first (e.g. so some could be
        :meth:`~repro.service.futures.MonitorFuture.cancel`\\ led):
        items come back ordered by ``BatchItem.index``, cancelled futures
        become cancelled items, and wall-clock spans this call.
        """
        return self._gather(list(futures), time.perf_counter())

    def _gather(self, futures: list[MonitorFuture], started: float) -> BatchReport:
        items: list[BatchItem] = []
        for position, future in enumerate(futures):
            try:
                items.append(future.result())
            except ReproError as exc:  # transport failure: keep the batch shape
                index = future.task_index if future.task_index is not None else position
                items.append(
                    BatchItem(
                        index=index,
                        result=None,
                        error=f"{type(exc).__name__}: {exc}",
                        seconds=0.0,
                        worker=0,
                        cancelled=isinstance(exc, CancelledError) or future.cancelled,
                    )
                )
        wall = time.perf_counter() - started
        items.sort(key=lambda item: item.index)
        return BatchReport(items=items, workers=self._workers, wall_seconds=wall)

    # -- session surface ------------------------------------------------------------

    def open_session(
        self,
        formula: Formula,
        epsilon: int,
        key: str | None = None,
        placement: str = "hash",
        checkpoint: bool | dict | CheckpointConfig | None = None,
        call_policy: RetryPolicy | None = None,
        **monitor_kwargs,
    ) -> Session:
        """Open one live monitoring stream, pinned to a pool worker.

        Placement policies:

        * ``"hash"`` (default) — shard by session id, or by
          ``zlib.crc32(key)`` when an affinity ``key`` is given (streams
          sharing a key land on the same worker).
        * ``"least_loaded"`` — pin to the live endpoint with the fewest
          outstanding requests at open time (skewed feed mixes stop
          piling onto one worker).  Incompatible with ``key``: an
          affinity key *is* a placement.

        ``monitor_kwargs`` go to the worker-side
        :class:`~repro.monitor.online.OnlineMonitor`
        (``max_traces_per_segment=``, ``backend=``, ...).

        ``checkpoint`` makes the session *durable* (periodic worker-side
        checkpoints plus a client-side replay journal, so a worker death
        recovers transparently instead of failing the stream — see
        :mod:`repro.service.durability`): ``None`` inherits the
        service-level default, ``False`` forces a plain session, ``True``
        / dict / :class:`~repro.service.durability.CheckpointConfig`
        picks a policy for this session alone.

        ``call_policy`` (a :class:`~repro.retry.RetryPolicy` with a
        ``timeout``) bounds every synchronising round-trip of the
        session and arms the gray-failure fence: a call that times out
        is cancelled worker-side and retried only when the worker
        *proves* it never executed (see
        :meth:`Session._fence_slow_call <repro.service.session.Session>`).
        ``None`` keeps the historical block-until-answered behaviour.
        """
        self._ensure_open()
        if checkpoint is None:
            config = self._checkpoint
        else:
            config = resolve_checkpoint(checkpoint)
        if placement not in PLACEMENTS:
            raise MonitorError(
                f"unknown placement {placement!r}; known: {', '.join(PLACEMENTS)}"
            )
        if key is not None and placement == "least_loaded":
            raise MonitorError("pass either an affinity key or placement='least_loaded'")
        session_id = next(self._session_ids)
        if placement == "least_loaded":
            worker_index = self._pick_worker()
        else:
            # Hash placement shards over the *live* endpoints in index
            # order: with a static, healthy pool this is exactly the old
            # ``id % workers``; with an elastic pool it skips dead and
            # retiring slots without re-sharding what already landed.
            with self._lock:
                candidates = [
                    i
                    for i in range(len(self._connections))
                    if not self._dead[i]
                    and not self._retired[i]
                    and not self._quarantined[i]
                ]
            if not candidates:
                raise ServiceError("all service workers have died")
            if key is not None:
                worker_index = candidates[zlib.crc32(key.encode()) % len(candidates)]
            else:
                worker_index = candidates[session_id % len(candidates)]
        self._send(
            worker_index,
            "session_open",
            (session_id, formula, epsilon, dict(monitor_kwargs)),
        ).result()
        session = Session(
            self,
            session_id,
            worker_index,
            formula,
            epsilon,
            monitor_kwargs=monitor_kwargs,
            checkpoint=config,
            call_policy=call_policy,
        )
        with self._lock:
            self._sessions[session_id] = session
        return session

    def migrate(self, session: Session, endpoint: int | str) -> None:
        """Move a live session to another pool endpoint, mid-stream.

        ``endpoint`` is a worker index or an endpoint description from
        :meth:`endpoints` (``"local[3]"``, ``"tcp://host:7701"``).  The
        hop is the worker-side snapshot/restore pair behind
        :meth:`Session.migrate <repro.service.session.Session.migrate>`:
        verdicts are unaffected, ordering is preserved, and a failed hop
        leaves the stream usable on its origin endpoint.  This is the
        manual counterpart of the automatic
        :class:`~repro.service.rebalance.Rebalancer` policies.
        """
        self._ensure_open()
        session.migrate(self._resolve_endpoint_index(endpoint))

    def _resolve_endpoint_index(self, endpoint: int | str) -> int:
        if isinstance(endpoint, int):
            if not 0 <= endpoint < len(self._connections):
                raise MonitorError(
                    f"no endpoint {endpoint} in a pool of {len(self._connections)}"
                )
            return endpoint
        descriptions = self.endpoints()
        matches = [i for i, desc in enumerate(descriptions) if desc == endpoint]
        if not matches:
            raise MonitorError(
                f"no endpoint {endpoint!r} in this pool; known: {descriptions}"
            )
        # An address can repeat across an agent's lifetimes (die, rejoin):
        # the old slot stays as a dead tombstone, so prefer a usable match.
        with self._lock:
            for index in matches:
                if (
                    not self._dead[index]
                    and not self._retired[index]
                    and not self._quarantined[index]
                ):
                    return index
        return matches[-1]

    # -- live membership ------------------------------------------------------------

    def add_endpoint(self, spec: Transport | str, token: str | None = None) -> int:
        """Grow the pool with one more endpoint, live; returns its index.

        The new endpoint joins placement immediately: ``least_loaded``
        picks it while it is the quietest, hash placement folds it into
        the live-candidate ring, and a running rebalancer is kicked so a
        skewed pool reflows onto it without waiting for the next interval
        tick.  Existing sessions and queued work are untouched.  This is
        what a registry **join** event calls; it is equally usable
        directly.  ``token`` defaults to the service-wide one.
        """
        self._ensure_open()
        transport = resolve_transport(
            spec,
            token if token is not None else self._token,
            heartbeat_interval=self._heartbeat_interval,
            liveness_timeout=self._liveness_timeout,
        )
        with self._membership_lock:
            with self._lock:
                if self._closed:
                    raise ServiceError("monitor service is closed")
                # Reserve the slot first: the connection's callbacks carry
                # this index, so the index-parallel state must exist before
                # the transport can possibly fire them.
                index = self._workers
                self._workers += 1
                self._pending.append({})
                self._rtt.append(RttEstimator())
                self._dead.append(False)
                self._retired.append(False)
                self._quarantined.append(False)
                self._send_locks.append(threading.Lock())
            installed = threading.Event()
            on_response = self._make_on_response(index)
            on_disconnect = self._make_on_disconnect(index)

            def guarded_response(response: Response) -> None:
                installed.wait()
                on_response(response)

            def guarded_disconnect() -> None:
                # A connection may lose its peer between open() returning
                # and the install below (heartbeat races are real): hold
                # the report until the slot is fully wired.
                installed.wait()
                on_disconnect()

            try:
                connection = transport.open(guarded_response, guarded_disconnect)
            except BaseException:
                with self._lock:
                    # Unwind the reservation: the membership lock is still
                    # held, so the slot is provably the last one and no
                    # request can have targeted it (placement only sees
                    # installed connections).
                    self._workers -= 1
                    self._pending.pop()
                    self._rtt.pop()
                    self._dead.pop()
                    self._retired.pop()
                    self._quarantined.pop()
                    self._send_locks.pop()
                raise
            with self._lock:
                if self._closed:
                    installed.set()
                    connection.close(timeout=0.0)
                    raise ServiceError("monitor service is closed")
                self._connections.append(connection)
            installed.set()
        if self.rebalancer is not None:
            self.rebalancer.kick()
        return index

    def retire_endpoint(self, endpoint: int | str, timeout: float = 30.0) -> None:
        """Drain one endpoint out of the pool, gracefully (a planned leave).

        The inverse of a worker death: nothing is lost.  The endpoint is
        first excluded from all placement (new sessions, batch sends,
        standby replicas, rebalance targets), then

        1. live sessions pinned to it **migrate off** via the usual
           snapshot/restore hop — verdicts unaffected;
        2. queued batch work is **stolen back** (each request re-placed
           exactly once, via the proven-unstarted drop protocol);
        3. requests already executing get up to ``timeout`` seconds to
           answer, then the connection closes and the slot becomes a dead
           tombstone (its index is never reused).

        This is what a registry **leave** event calls; idempotent, and
        refused while it would leave no live endpoint to drain into.
        """
        self._ensure_open()
        index = self._resolve_endpoint_index(endpoint)
        with self._lock:
            if self._dead[index] or self._retired[index]:
                return
            others = [
                i
                for i in range(len(self._connections))
                if i != index
                and not self._dead[i]
                and not self._retired[i]
                and not self._quarantined[i]
            ]
            if not others:
                raise ServiceError(
                    f"cannot retire endpoint {index} "
                    f"({self._connections[index].endpoint}): it is the last "
                    f"live endpoint in the pool"
                )
            self._retired[index] = True
        deadline = time.monotonic() + max(0.0, timeout)
        # Sessions first (their requests keep flowing while we drain, so
        # the sooner they hop the less there is to wait out).  Loop: an
        # open_session racing the flag flip above may still land one here.
        while time.monotonic() < deadline:
            stragglers = [
                session
                for session in self.live_sessions()
                if session.worker_index == index and not session.finished
            ]
            if not stragglers:
                break
            for session in stragglers:
                try:
                    session.migrate(self._pick_worker())
                except ReproError:
                    # Mid-advance, target vanished, ...: retry next sweep;
                    # a session we cannot move by the deadline rides the
                    # connection close into the death-recovery path.
                    time.sleep(0.05)
        self.steal_queued(index)
        with self._lock:
            remaining = len(self._pending[index])
        while remaining > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
            with self._lock:
                remaining = len(self._pending[index])
                if self._dead[index]:
                    break
        self._connections[index].close(max(0.1, deadline - time.monotonic()))
        # Seal the slot: marks it dead, zeroes the placement counter, and
        # settles anything that outlived the drain deadline (steal or fail
        # through the normal death bookkeeping).
        self._fail_worker_futures([index])
        if self.rebalancer is not None:
            self.rebalancer.kick()

    def quarantine_endpoint(self, endpoint: int | str, reason: str = "") -> bool:
        """Exclude a gray-failing endpoint from placement, reversibly.

        The graceful-degradation path for endpoints that are *alive but
        wrong* — partitioned one way, crawling, or repeatedly timing out
        — where killing the connection would be both premature (the link
        may heal) and lossy (sessions still need it to snapshot off).
        Unlike :meth:`retire_endpoint` this keeps the connection open
        and is **reversible**: the liveness loop probes the endpoint
        with pings and readmits it after :data:`QUARANTINE_PROBES`
        consecutive fast answers (hysteresis — one slow probe resets
        the streak).

        Sessions pinned to the endpoint are proactively migrated off on
        a background sweep (best-effort: a session mid-recovery moves
        itself), and queued batch work is stolen back.  Refused (returns
        False) when it would leave no live endpoint — degrading to a
        one-endpoint pool beats degrading to none.
        """
        self._ensure_open()
        index = self._resolve_endpoint_index(endpoint)
        with self._lock:
            if self._dead[index] or self._retired[index] or self._quarantined[index]:
                return self._quarantined[index]
            others = [
                i
                for i in range(len(self._connections))
                if i != index
                and not self._dead[i]
                and not self._retired[i]
                and not self._quarantined[i]
            ]
            if not others:
                return False
            self._quarantined[index] = True
            self._quarantine_reasons[index] = reason
            self._probe_streak[index] = 0
        try:
            self.steal_queued(index)
        except ReproError:
            pass
        threading.Thread(
            target=self._migrate_off_quarantined,
            args=(index,),
            name=f"monitor-service-quarantine-{index}",
            daemon=True,
        ).start()
        if self.rebalancer is not None:
            self.rebalancer.kick()
        return True

    def _migrate_off_quarantined(self, index: int) -> None:
        """Best-effort sweep moving live sessions off a quarantined slot.

        A session currently blocked or recovering moves itself (its
        recovery picks a healthy endpoint); this sweep covers the idle
        ones so they do not discover the gray link on their next call.
        """
        for session in self.live_sessions():
            if self._closed or not self._quarantined[index]:
                return
            if session.worker_index != index or session.finished:
                continue
            try:
                session.migrate(self._pick_worker())
            except ReproError:
                continue  # it will recover (or be re-swept) on its own

    def _readmit(self, index: int) -> None:
        with self._lock:
            if not self._quarantined[index] or self._dead[index]:
                return
            self._quarantined[index] = False
            self._quarantine_reasons.pop(index, None)
            self._probe_streak.pop(index, None)
            self._probe_futures.pop(index, None)
        if self.rebalancer is not None:
            self.rebalancer.kick()

    def _probe_quarantined(self) -> None:
        """One liveness tick of quarantine probing (readmission path)."""
        with self._lock:
            indices = [
                i
                for i, flagged in enumerate(self._quarantined)
                if flagged and not self._dead[i] and not self._retired[i]
            ]
        for index in indices:
            probe = self._probe_futures.get(index)
            if probe is not None:
                future, started = probe
                if future.done():
                    self._probe_futures.pop(index, None)
                    try:
                        future.result(timeout=0.0)
                    except ReproError:
                        self._probe_streak[index] = 0  # typed failure: not healthy
                        continue
                    streak = self._probe_streak.get(index, 0) + 1
                    self._probe_streak[index] = streak
                    if streak >= QUARANTINE_PROBES:
                        self._readmit(index)
                    continue
                if time.monotonic() - started > QUARANTINE_PROBE_TIMEOUT:
                    # Still gray: abandon this probe (its eventual answer
                    # resolves a future nobody reads) and restart the streak.
                    self._probe_futures.pop(index, None)
                    self._probe_streak[index] = 0
                continue
            try:
                future = self._send(index, "ping", None)
            except ReproError:
                self._probe_streak[index] = 0
                continue
            self._probe_futures[index] = (future, time.monotonic())

    def _find_live_index(self, address: str) -> int | None:
        with self._lock:
            for i, connection in enumerate(self._connections):
                if (
                    connection.endpoint == address
                    and not self._dead[i]
                    and not self._retired[i]
                ):
                    return i
        return None

    def _absorb_member(self, member: dict) -> None:
        """Add a registry member as an endpoint unless it already is one."""
        address = member.get("address")
        if not isinstance(address, str):
            return
        if self._find_live_index(address) is not None:
            return  # already serving (e.g. also named in ``endpoints=``)
        self.add_endpoint(address)

    def _on_membership_event(self, event: dict) -> None:
        """Registry push callback (registry reader thread): enqueue only.

        Events are applied by the membership thread so a slow reaction (a
        retire drains for seconds) never stalls the event stream or the
        registry heartbeats behind it.
        """
        if not self._closed:
            self._membership_events.put(event)

    def _membership_loop(self) -> None:
        while True:
            event = self._membership_events.get()
            if event is None:
                return
            try:
                self._apply_membership_event(event)
            except Exception:  # noqa: BLE001 — the loop must outlive one event
                # Late events race the pool's own signals (a leave for an
                # endpoint the heartbeat already reaped, a join landing
                # mid-close): the pool state they describe is simply gone.
                pass

    def _apply_membership_event(self, event: dict) -> None:
        from repro.cluster import EVENT_DEATH, EVENT_JOIN, EVENT_LEAVE

        kind = event.get("event")
        address = event.get("address")
        if self._closed or not isinstance(address, str):
            return
        if kind == EVENT_JOIN:
            self._absorb_member(event)
        elif kind == EVENT_LEAVE:
            index = self._find_live_index(address)
            if index is not None:
                self.retire_endpoint(index)
        elif kind == EVENT_DEATH:
            # The registry saw the agent's lease break — usually ahead of
            # our own heartbeat timeout.  Cut the connection now and run
            # the standard death recovery (steal queued batch work, fail
            # or restore sessions) instead of waiting out the silence.
            index = self._find_live_index(address)
            if index is not None:
                self._connections[index].close(timeout=0.0)
                self._fail_worker_futures([index])

    def _on_registry_lost(self) -> None:
        """Registry connection died: re-dial it instead of going static.

        Fired (at most once per client) from a registry client thread.
        Losing the registry must not degrade an elastic pool into a
        static one for the rest of its life — a daemon thread re-dials
        the stored address with capped exponential backoff and re-arms
        the watch, so membership events resume once the registry is back.
        Existing endpoints keep serving throughout; only *churn* is
        blind during the outage.
        """
        if self._closed:
            return
        threading.Thread(
            target=self._registry_redial_loop,
            name="monitor-service-registry-redial",
            daemon=True,
        ).start()

    def _registry_redial_loop(self) -> None:
        from repro.cluster import RegistryClient

        # One redialer at a time: a second loss callback (stale client
        # losing its heartbeat while the replacement is mid-dial) just
        # finds the lock held and leaves.
        if not self._registry_redial_lock.acquire(blocking=False):
            return
        try:

            def attempt() -> None:
                if self._closed:
                    return
                client = RegistryClient.connect(
                    self._registry_spec,
                    token=self._token,
                    on_event=self._on_membership_event,
                    on_lost=self._on_registry_lost,
                )
                if self._closed:
                    client.close()
                    return
                self._registry = client
                try:
                    # Re-absorb through the same watch-snapshot path as
                    # startup: members that joined during the outage are
                    # added, members already serving are skipped, and
                    # events after the snapshot flow to the membership
                    # thread again.
                    for member in client.watch():
                        self._absorb_member(member)
                except ReproError:
                    # Registry vanished again mid-watch.  Its on_lost may
                    # have fired while this thread holds the redial lock
                    # (so no replacement redialer could start): keep
                    # retrying here instead of returning.
                    client.close()
                    raise

            # Unbounded capped backoff (the shared redial policy);
            # ``_liveness_stop`` doubles as the close signal.
            REDIAL_POLICY.run(
                attempt, retry_on=(ReproError, OSError), stop=self._liveness_stop
            )
        except Exception:  # noqa: BLE001 — only exhausted by the stop event
            pass
        finally:
            self._registry_redial_lock.release()

    def _forget_session(self, session_id: int) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def _send_session(self, worker_index: int, op: str, payload) -> MonitorFuture:
        self._ensure_open()
        return self._send(worker_index, op, payload)

    # -- lifecycle ------------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Drain the pool and shut it down (idempotent).

        Each endpoint finishes everything already sent (requests on one
        connection execute FIFO) *bounded by* ``timeout`` seconds: a
        backlog that outlives the deadline is cut short and its
        unresolved futures fail with :class:`~repro.errors.ServiceError`.
        Callers who must not lose queued work should ``result()`` their
        futures before closing, or pass a ``timeout`` sized to the
        backlog.  Remote agents outlive the service — closing only
        releases their connections.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.rebalancer is not None:
            # Before the connections go: a mid-close migration would race
            # the drain deadlines for no benefit.
            self.rebalancer.stop()
        if self._registry is not None:
            # Stop membership churn first: a join event landing while the
            # pool tears down would race the connection drain below.
            self._registry.close()
        if self._membership_thread is not None:
            self._membership_events.put(None)
            self._membership_thread.join(timeout=1.0)
        self._liveness_stop.set()
        deadline = time.monotonic() + timeout
        for index, connection in enumerate(self._connections):
            if self._dead[index]:
                connection.close(timeout=0.0)
            else:
                connection.close(max(0.1, deadline - time.monotonic()))
        self._liveness.join(timeout=1.0)
        with self._lock:
            leftovers = list(self._futures.values())
            self._futures.clear()
            # Every tracked request is now resolved or failed; the
            # depths must agree (the placement-signal invariant).
            for ids in self._pending:
                ids.clear()
            self._stealable.clear()
            self._stealing.clear()
            self._sessions.clear()
        for future in leftovers:
            future.resolve(None, "ServiceError: service closed before completion")
        self._cleanup_calibration_artifacts()

    def _cleanup_calibration_artifacts(self) -> None:
        """Remove the auto-calibration temp report and env hook.

        The hook exists only so workers spawned by *this* service load
        the measured thresholds; leaving it behind would silently
        calibrate every later subprocess in the host application.  The
        env var is cleared only if it still points at our file (the
        caller may have set their own since).
        """
        if self._calibration_path is None:
            return
        import os

        from repro.monitor.factory import CALIBRATION_ENV_VAR

        if os.environ.get(CALIBRATION_ENV_VAR) == self._calibration_path:
            del os.environ[CALIBRATION_ENV_VAR]
        try:
            os.remove(self._calibration_path)
        except OSError:
            pass
        self._calibration_path = None

    def __enter__(self) -> "MonitorService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------------------

    def _resolve_formula(self, formula: Formula | None) -> Formula:
        formula = formula if formula is not None else self._formula
        if formula is None:
            raise MonitorError(
                "no formula: pass formula=... to the call or to MonitorService()"
            )
        return formula

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("monitor service is closed")

    def _pick_worker(self, avoid: int | None = None) -> int:
        """Least-outstanding live endpoint (ties break toward lower index).

        ``avoid`` steers stolen work away from the endpoint it was stolen
        from (re-queueing it behind the same backlog would defeat the
        steal) — honoured only while another live endpoint exists.
        """
        with self._lock:
            alive = [
                i
                for i in range(len(self._connections))
                if not self._dead[i]
                and not self._retired[i]
                and not self._quarantined[i]
            ]
            if not alive:
                raise ServiceError("all service workers have died")
            if avoid is not None and len(alive) > 1:
                alive = [i for i in alive if i != avoid]
            return min(alive, key=lambda i: len(self._pending[i]))

    def _send(self, worker_index: int, op: str, payload) -> MonitorFuture:
        future = MonitorFuture()
        # The per-endpoint lock spans id allocation *and* the send, so
        # request ids reach one connection in increasing order even under
        # concurrent submitters — the invariant the worker's drop
        # high-water mark relies on.  It never nests inside self._lock.
        with self._send_locks[worker_index]:
            with self._lock:
                if self._closed:
                    raise ServiceError("monitor service is closed")
                if self._dead[worker_index]:
                    raise ServiceError(
                        f"service worker {worker_index} "
                        f"({self._connections[worker_index].endpoint}) has died"
                    )
                request_id = next(self._request_ids)
                future.request_id = request_id
                future.sent_at = time.monotonic()
                self._futures[request_id] = future
                self._pending[worker_index][request_id] = None
                if op in STEALABLE_OPS:
                    # Kept until the response arrives, so the request can
                    # be re-sent elsewhere if this endpoint dies first.
                    self._stealable[request_id] = (op, payload)
            try:
                self._connections[worker_index].send(Request(request_id, op, payload))
            except BaseException:
                # Any send failure — transport trouble (ServiceError) or a
                # payload the codec refuses to serialize (TypeError, ...) —
                # must unwind the bookkeeping, or the leaked pending id
                # would bias placement against a healthy worker forever.
                with self._lock:
                    self._futures.pop(request_id, None)
                    self._stealable.pop(request_id, None)
                    self._pending[worker_index].pop(request_id, None)
                raise
        future.cancel_hook = lambda: self._send_control(worker_index, "drop", request_id)
        return future

    def _abandon_requests(self, futures) -> None:
        """Settle the books for requests nobody will wait on again.

        Session recovery on a lossy link abandons its in-flight batches:
        their frames (or their responses) may have been silently dropped,
        so waiting for acks to settle the outstanding counters could
        wait forever.  Forgetting the ids here decrements the counters
        immediately; a late response for a forgotten id is ignored by
        the dispatcher (the pop finds nothing), so books never settle
        twice.
        """
        with self._lock:
            for future in futures:
                request_id = future.request_id
                if request_id is None or self._futures.pop(request_id, None) is None:
                    continue
                self._stealable.pop(request_id, None)
                self._stealing.discard(request_id)
                for ids in self._pending:
                    ids.pop(request_id, None)

    def _await(self, future: MonitorFuture, limit: float | None) -> int | None:
        """The one blocking wait behind every session round trip.

        Waits up to ``limit`` seconds for ``future`` in slices paced by
        its endpoint's retransmission timeout, sending a ``probe``
        control frame for the request between slices (wait RTO, probe,
        wait 2·RTO, probe, ...): a worker that never saw the request
        proves it with a drop ack, one that executed it sends the cached
        reply again, one that still holds it says nothing — so a lost
        frame costs a round trip, and a slow engine call costs nothing.
        Returns the number of probes sent once the future resolved,
        ``None`` when ``limit`` ran out first.  ``limit=None`` blocks
        until the future resolves and probes nothing.
        """
        if limit is None:
            future.wait()
            return 0
        request_id = future.request_id
        with self._lock:
            worker_index = next(
                (i for i, ids in enumerate(self._pending) if request_id in ids), None
            )
        if worker_index is None:  # answered (or abandoned) already
            return 0 if future.wait(limit) else None

        def probe() -> None:
            with self._lock:
                self._probes += 1
            self._send_control(worker_index, "probe", request_id)

        resolved, probes = self._rtt[worker_index].pace(
            future.wait, probe, limit, future.sent_at
        )
        return probes if resolved else None

    def _send_control(self, worker_index: int, op: str, request_id: int) -> None:
        """Best-effort ``drop`` / ``probe`` control frame for one request.

        ``drop`` is what ``MonitorFuture.cancel`` sends: the worker skips
        the request if it has not executed yet and acknowledges with a
        ``CancelledError`` response either way, so the outstanding
        bookkeeping settles through the normal path.  ``probe`` is what
        :meth:`_await` sends (see :meth:`RequestExecutor.probe
        <repro.service.worker.RequestExecutor>`).
        """
        try:
            self._connections[worker_index].send(Request(CONTROL_ID, op, request_id))
        except Exception:  # noqa: BLE001 — any send failure, not just ServiceError
            # Peer gone or channel broken: reaping (or close) settles the
            # books.  A control frame must never raise out of cancel() or
            # a wait, or leave the books depending on its delivery.
            pass

    #: Error a request resolves with when a later response on the same
    #: connection proves it will never be answered (FIFO gap).
    OVERTAKEN = (
        "ServiceError: request overtaken on its connection — "
        "its frame (or its response) was lost in transit"
    )

    def _make_on_response(self, worker_index: int):
        def on_response(response: Response) -> None:
            resteal: tuple[str, object, MonitorFuture] | None = None
            reaped: list[MonitorFuture] = []
            with self._lock:
                pending = self._pending[worker_index]
                future = self._futures.pop(response.request_id, None)
                stealable = self._stealable.pop(response.request_id, None)
                pending.pop(response.request_id, None)
                # FIFO gap reaper: ids reach one connection in increasing
                # order and are answered in that order, so a response for
                # id R proves every pending id < R on this worker will
                # never be answered — its frame never arrived (the worker
                # fence now stale-rejects it if it ever does) or its
                # response died in transit.  Settle those books now: on a
                # lossy link the ack the counters would otherwise wait
                # for may simply not exist.  A late (reordered) response
                # for a reaped id finds its id already popped and is
                # ignored, so nothing settles twice.  A cached reply the
                # worker sends *again* (answering a probe) arrives out of
                # order but reaps soundly all the same: R executed, so
                # every earlier id on the connection was answered before
                # R's first copy left.  The one response that breaks the
                # premise is a minted drop ack: the worker emits it the
                # moment a drop (or a probe for an unseen id) is
                # ingested, jumping ahead of earlier requests still
                # queued behind the running one — it proves nothing
                # about them, so it must not reap.
                if response.error != DROPPED_BEFORE_EXECUTION:
                    # ``pending`` is ordered by id: overtaken ids sit at
                    # its front, so this reads them and stops.
                    for rid in list(itertools.takewhile(
                        lambda rid: rid < response.request_id, pending
                    )):
                        del pending[rid]
                        stale = self._futures.pop(rid, None)
                        self._stealable.pop(rid, None)
                        self._stealing.discard(rid)
                        if stale is not None:
                            reaped.append(stale)
                if response.request_id in self._stealing:
                    self._stealing.discard(response.request_id)
                    if (
                        response.error == DROPPED_BEFORE_EXECUTION
                        and stealable is not None
                        and future is not None
                        and not future.cancelled
                        and not self._closed
                    ):
                        # The drop won: the worker *proved* it never
                        # started this request, so re-executing it
                        # elsewhere cannot double-execute.  Any other
                        # response means the drop lost — the request
                        # completed where it was, resolve normally.
                        resteal = (stealable[0], stealable[1], future)
            # Overtaken requests resolve *before* the overtaking response:
            # a session's FIFO gap check runs when its synchronising call
            # returns and must already see the loss it proves.
            for stale in reaped:
                stale.resolve(None, self.OVERTAKEN)
            if resteal is not None:
                self._resteal(*resteal, avoid=worker_index)
                return
            if future is not None:
                future.resolve(response.payload, response.error)

        return on_response

    def steal_queued(self, from_index: int, limit: int | None = None) -> int:
        """Steal queued batch work off a live (overloaded) endpoint.

        Sends best-effort drop frames for the stealable (pure batch)
        requests outstanding on ``from_index``.  The worker acknowledges
        each drop either with :data:`~repro.transport.DROPPED_BEFORE_EXECUTION`
        — proof the request never started, which triggers a transparent
        resubmit to the least-loaded live endpoint — or with the real
        response, when the request executed before the drop arrived.
        Either way each request runs **exactly once**; callers blocked in
        ``result()`` never notice the hop.  Returns the number of steals
        initiated (not all of them will win their race).

        Called by the :class:`~repro.service.rebalance.Rebalancer` when
        ``rebalance_steal_threshold`` is set; safe to call directly.
        """
        self._ensure_open()
        with self._lock:
            if self._dead[from_index]:
                return 0
            candidates = sorted(
                request_id
                for request_id in self._stealable
                if request_id in self._pending[from_index]
                and request_id not in self._stealing
            )
            if limit is not None:
                candidates = candidates[:limit]
            self._stealing.update(candidates)
        for request_id in candidates:
            self._send_control(from_index, "drop", request_id)
        return len(candidates)

    def _resteal(
        self, op: str, payload, original: MonitorFuture, avoid: int | None = None
    ) -> None:
        """Re-send a proven-unstarted request; chain into the original future.

        Runs outside ``self._lock`` (it sends).  When no live endpoint is
        left — or the service closed meanwhile — the original future
        fails with :class:`~repro.errors.ServiceError` instead of hanging.
        """
        try:
            replacement = self._send(self._pick_worker(avoid=avoid), op, payload)
        except BaseException as exc:  # noqa: BLE001 — the caller must unblock
            original.resolve(
                None,
                f"ServiceError: stolen request could not be re-placed: "
                f"{type(exc).__name__}: {exc}",
            )
            return
        with self._lock:
            self._steals += 1
        # A later cancel() on the original must chase the replacement,
        # not the endpoint the request was stolen from.
        original.cancel_hook = replacement.cancel
        replacement.forward_to(original)

    def _make_on_disconnect(self, worker_index: int):
        def on_disconnect() -> None:
            if not self._closed:
                self._fail_worker_futures([worker_index])

        return on_disconnect

    def _liveness_loop(self) -> None:
        """Reap endpoints whose connection reports dead.

        Backends push the fast signal themselves (pipe EOF, socket EOF,
        heartbeat timeout → ``on_disconnect``); this poll is the
        belt-and-braces sweep behind it, asking each connection's own
        :meth:`~repro.transport.Connection.alive` verdict.
        """
        while not self._liveness_stop.wait(LIVENESS_POLL_SECONDS):
            if self._closed:
                return
            newly_dead = [
                index
                for index, connection in enumerate(self._connections)
                if not self._dead[index] and not connection.alive()
            ]
            if newly_dead and not self._closed:
                self._fail_worker_futures(newly_dead)
            if not self._closed:
                self._probe_quarantined()

    def _fail_worker_futures(self, worker_indices: list[int]) -> None:
        """Mark endpoints dead; steal or fail their outstanding requests.

        Without this, a worker lost to an OOM-kill, crash, or network
        partition would leave its callers blocked in ``result()``
        forever.  Pure batch requests (``_stealable``) that *provably
        never started* are transparently re-executed on live endpoints
        instead of failing; everything else fails with
        :class:`~repro.errors.ServiceError`, and the endpoint is excluded
        from further placement.

        The idempotency guard: each connection executes FIFO in request-id
        order, and a worker ships the response for id *k* before touching
        *k+1* — reader threads drain every delivered response before
        reporting the disconnect.  So of the ids still outstanding on a
        dead connection only the **lowest** may have begun executing;
        that one is *failed*, never stolen (re-running a request that may
        have produced side effects elsewhere would double-execute it).
        Strictly higher ids never started and are safe to steal.
        """
        orphans: list[tuple[int, MonitorFuture, bool]] = []
        steals: list[tuple[str, object, MonitorFuture]] = []
        with self._lock:
            for index in worker_indices:
                self._dead[index] = True
                # Death supersedes quarantine: stop probing a tombstone.
                self._quarantined[index] = False
                self._quarantine_reasons.pop(index, None)
                self._probe_streak.pop(index, None)
                self._probe_futures.pop(index, None)
            any_alive = not all(self._dead)
            for worker_index in worker_indices:
                # Ordered by id, and emptied here for good: a dead
                # endpoint can never answer again, so nothing may stay
                # pending on it to bias placement (or the rebalancer
                # feeding on it).
                request_ids = list(self._pending[worker_index])
                self._pending[worker_index].clear()
                maybe_started = request_ids[0] if request_ids else None
                for request_id in request_ids:
                    future = self._futures.pop(request_id, None)
                    stealable = self._stealable.pop(request_id, None)
                    self._stealing.discard(request_id)
                    if future is None:
                        continue
                    if (
                        stealable is not None
                        and any_alive
                        and request_id != maybe_started
                        and not future.cancelled
                    ):
                        steals.append((stealable[0], stealable[1], future))
                    else:
                        orphans.append(
                            (
                                worker_index,
                                future,
                                stealable is not None and request_id == maybe_started,
                            )
                        )
        for worker_index, future, guarded in orphans:
            detail = (
                " while it may have been executing (not re-run: it could "
                "double-execute)"
                if guarded
                else " before responding"
            )
            future.resolve(
                None,
                f"ServiceError: service worker {worker_index} "
                f"({self._connections[worker_index].endpoint}) died{detail}",
            )
        for op, payload, future in steals:
            self._resteal(op, payload, future)
