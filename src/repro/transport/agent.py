"""The worker agent: a TCP listener hosting service workers.

``python -m repro.transport.agent --port 7701`` (or the
``scripts/run_worker_agent.py`` wrapper) turns any host into a pool
endpoint: a :class:`~repro.service.MonitorService` built with
``endpoints=["tcp://host:7701", ...]`` then ships the same
Request/Response frames to it that local workers get over queues.

Each *accepted connection* is one logical worker: it gets its own
:class:`~repro.service.worker.RequestExecutor` (private session
registry, private drop set) and a pair of threads —

* a **reader** that ingests frames continuously: heartbeats are answered
  inline (so liveness stays fresh during long monitor tasks), ``drop``
  and ``probe`` control frames take effect immediately, and everything
  else queues for the executor in FIFO order;
* an **executor** that runs requests one at a time and writes responses
  back under a per-connection write lock.

Requests on one connection therefore execute strictly in send order —
the same ordering guarantee a local worker's FIFO inbox gives — while
cancellation and liveness stay responsive out-of-band.

**Two agent modes** decide where the executor runs:

* the default **thread mode** runs it on a thread in the agent process —
  one agent process is one CPU's worth of workers (executors share the
  GIL), so real parallelism means one agent per core;
* **process mode** (:class:`ProcessPoolAgent`, ``--processes``) forks one
  executor *child process* per accepted connection, running the exact
  local-backend worker loop (:func:`~repro.service.worker.service_worker_loop`)
  behind the socket — a single agent then lends a whole multi-core host,
  with per-connection isolation for free (a crashing request kills only
  its own connection's child).  The handler still answers heartbeats
  inline, so liveness stays fresh while a child grinds.

**Authentication**: with a shared token configured (``--token`` /
``REPRO_AGENT_TOKEN``), every accepted connection must pass the HMAC
challenge/response handshake (:mod:`repro.transport.auth`) before a
single frame is dispatched; failures are rejected with a typed
``AuthError`` response frame, never a bare close.

.. warning:: **Trust boundary.**  The wire protocol carries pickle
   payloads and includes operational ops (``crash``, ``sleep``), so any
   *authenticated* peer can execute arbitrary code in the agent (or its
   executor children) — the same trust model as ``multiprocessing``
   itself, stretched over a socket.  The shared token keeps
   unauthenticated peers out, but it does not encrypt the stream: still
   bind agents to loopback or a private network you control (a service
   mesh, an SSH tunnel, a VPN) rather than the open internet.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
from collections import deque
from typing import Callable

from repro.errors import ServiceError
from repro.transport.auth import resolve_token, server_handshake
from repro.transport.base import Listener
from repro.transport.frames import (
    DEFAULT_CODEC,
    HEARTBEAT_ID,
    Codec,
    Request,
    Response,
    encode_frame,
    read_frame,
)

#: Printed (with the bound address) once the agent accepts connections;
#: spawners wait for this line to learn an ephemeral port.
READY_PREFIX = "worker-agent listening on "


def _default_executor_factory() -> Callable:
    # Lazy import: keeps the transport layer importable on its own (the
    # service worker imports transport frames).
    from repro.service.worker import RequestExecutor

    return RequestExecutor


class WorkerAgent(Listener):
    """Hosts one worker per accepted connection on ``host:port``.

    ``port=0`` binds an ephemeral port (read :attr:`address` after
    :meth:`start`).  ``executor_factory`` builds the per-connection
    request executor; it defaults to the monitor service's.  ``token``
    gates connections behind the shared-token handshake (``None``
    resolves ``REPRO_AGENT_TOKEN``; empty string disables).
    ``processes=True`` forks one executor child per connection instead
    of running it on an agent thread (see :class:`ProcessPoolAgent`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Codec = DEFAULT_CODEC,
        executor_factory: Callable | None = None,
        token: str | None = None,
        processes: bool = False,
    ) -> None:
        self._host = host
        self._port = port
        self._codec = codec
        self._executor_factory = executor_factory or _default_executor_factory()
        self._token = resolve_token(token)
        self._processes = processes
        self._sock: socket.socket | None = None
        self._closed = False
        self._lock = threading.Lock()
        self._handlers: list = []
        self._accept_thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        if self._sock is None:
            raise ServiceError("worker agent is not listening yet")
        return f"{self._host}:{self._port}"

    @property
    def port(self) -> int:
        if self._sock is None:
            raise ServiceError("worker agent is not listening yet")
        return self._port

    @property
    def authenticated(self) -> bool:
        """True when a shared token gates this agent's connections."""
        return self._token is not None

    def active_connections(self) -> int:
        """Currently served peer connections (drain/ops signal)."""
        with self._lock:
            return sum(1 for handler in self._handlers if handler.running)

    def start(self) -> None:
        if self._sock is not None:
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self._host, self._port))
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"worker agent could not bind {self._host}:{self._port}: {exc}"
            ) from exc
        sock.listen()
        self._port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"worker-agent-{self._port}", daemon=True
        )
        self._accept_thread.start()

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for every live peer connection to finish (graceful leave).

        Used by the SIGTERM path after the registry leave is announced:
        services react to the leave by migrating sessions off and
        closing their connections, which this call observes as handlers
        winding down.  Returns True when the agent is idle, False when
        the deadline passed with peers still attached.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        while self.active_connections() > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)
        return True

    def close(self) -> None:
        """Stop accepting, drop live peers (connects are then refused)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handlers, self._handlers = self._handlers, []
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        for handler in handlers:
            handler.stop()
        if self._accept_thread is not None:
            self._accept_thread.join(1.0)

    def __enter__(self) -> "WorkerAgent":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, peer = self._sock.accept()
            except OSError:
                return  # listener closed
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._processes:
                handler = _ProcessConnectionHandler(
                    client, peer, self._codec, self._token
                )
            else:
                handler = _ConnectionHandler(
                    client, peer, self._codec, self._executor_factory(), self._token
                )
            with self._lock:
                if self._closed:
                    handler.stop()
                    return
                self._handlers = [h for h in self._handlers if h.running]
                self._handlers.append(handler)
            handler.start()


class ProcessPoolAgent(WorkerAgent):
    """A worker agent that forks one executor process per connection.

    One ``ProcessPoolAgent`` lends a whole multi-core host to the pool:
    a service that opens N connections to it gets N *processes*, not N
    GIL-sharing threads, so ``endpoints=["tcp://host:7701"] * cores``
    scales like one agent-per-core used to — with one listener to
    deploy, register, and authenticate.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Codec = DEFAULT_CODEC,
        token: str | None = None,
    ) -> None:
        super().__init__(host, port, codec=codec, token=token, processes=True)


class _ConnectionHandler:
    """One accepted peer: reader thread + executor thread + write lock."""

    def __init__(self, sock, peer, codec: Codec, executor, token: str | None = None) -> None:
        self._sock = sock
        self._peer = peer
        self._codec = codec
        self._executor = executor
        self._token = token
        self._write_lock = threading.Lock()
        self._pending: deque[Request] = deque()
        self._wakeup = threading.Condition()
        self._stopped = False
        name = f"agent-peer-{peer[0]}:{peer[1]}"
        self._reader = threading.Thread(
            target=self._read_loop, name=f"{name}-reader", daemon=True
        )
        self._runner = threading.Thread(
            target=self._run_loop, name=f"{name}-executor", daemon=True
        )

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        self._reader.start()
        self._runner.start()

    def stop(self) -> None:
        self._stopped = True
        # Shutdown before close: close() alone does not wake a reader
        # blocked in recv (the file description stays open in-kernel).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._wakeup:
            self._wakeup.notify_all()

    def _read_loop(self) -> None:
        # Gate: nothing is dispatched until the peer authenticates.  The
        # tokenless leniency hands back the peer's first regular frame.
        try:
            leftover = server_handshake(self._sock, self._codec, self._token)
        except Exception:  # noqa: BLE001 — hostile pre-auth bytes (bad
            # pickle, torn stream) must close the connection cleanly, not
            # kill this thread with the socket still registered.
            self.stop()
            return
        if leftover is not None:
            self._ingest(leftover)
        while not self._stopped:
            try:
                frame = read_frame(self._sock, self._codec)
            except Exception:  # noqa: BLE001 — broken stream or undecodable frame
                frame = None
            if frame is None:  # peer gone/unusable: discard this worker's state
                break
            self._ingest(frame)
        self.stop()

    def _ingest(self, frame) -> None:
        if not isinstance(frame, Request):
            return
        if frame.request_id == HEARTBEAT_ID:
            # Answered here, not in the executor: a pong must not
            # queue behind a long monitor task or liveness would
            # false-positive on a merely busy worker.
            pong = Response(HEARTBEAT_ID, "pong", None, self._executor.pid)
            self._send(encode_frame(pong, self._codec))
            return
        acks: list[bytes] = []
        with self._wakeup:
            if self._executor.ingest(frame):
                self._pending.append(frame)
            else:
                # A drop or probe for a frame that never arrived mints
                # its ack in ingest (a probe may also re-send a cached
                # reply); ship it from here (the reader), since nothing
                # will ever reach the executor thread to trigger it.
                acks = self._executor.take_acks(self._codec)
            self._wakeup.notify_all()
        for ack in acks:
            self._send(ack)

    def _run_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._pending and not self._stopped:
                    self._wakeup.wait()
                if self._stopped and not self._pending:
                    return
                request = self._pending.popleft()
            frame = self._executor.run(request, self._codec)
            if frame is None:
                continue  # already answered by an immediate drop-ack
            if not self._send(frame):
                return

    def _send(self, frame: bytes) -> bool:
        try:
            with self._write_lock:
                self._sock.sendall(frame)
        except OSError:
            self.stop()
            return False
        return True


class _ProcessConnectionHandler:
    """One accepted peer backed by a forked executor child process.

    The child runs :func:`~repro.service.worker.service_worker_loop` —
    the exact local-backend worker body — over a private inbox queue and
    response pipe, so thread mode and process mode stay behaviourally
    identical by construction.  The handler is a frame pump:

    * reader thread: socket frames → heartbeats answered inline (a pong
      must never wait on a busy child), everything else re-framed into
      the child's inbox (``drop`` and ``probe`` control frames included
      — the worker loop's opportunistic drain gives them overtaking
      semantics);
    * pump thread: response frames off the child's pipe → socket,
      verbatim (the child already framed them).

    Child death (a ``crash`` op, an OOM kill) surfaces as pipe EOF; the
    handler then drops the socket so the service sees the standard
    peer-loss signal and runs its recovery path.
    """

    def __init__(self, sock, peer, codec: Codec, token: str | None = None) -> None:
        self._sock = sock
        self._peer = peer
        self._codec = codec
        self._token = token
        self._write_lock = threading.Lock()
        self._stopped = False
        self._stop_lock = threading.Lock()
        self._process = None
        self._inbox = None
        self._pipe = None
        self._name = f"agent-child-{peer[0]}:{peer[1]}"
        self._reader = threading.Thread(
            target=self._read_loop, name=f"{self._name}-reader", daemon=True
        )
        self._pump: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        self._reader.start()

    def stop(self) -> None:
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        # Shutdown before close: close() alone does not wake a reader
        # blocked in recv (the file description stays open in-kernel).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        process, inbox = self._process, self._inbox
        if inbox is not None:
            try:
                inbox.put(None)  # FIFO sentinel: backlog drains, then exit
            except Exception:  # noqa: BLE001 — queue already broken
                pass
        if process is not None:
            process.join(2.0)
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        if inbox is not None:
            inbox.close()

    def _spawn_child(self) -> bool:
        """Fork the executor child (post-auth only: no token, no fork)."""
        import multiprocessing

        from repro.service.worker import service_worker_loop

        ctx = multiprocessing.get_context()
        self._inbox = ctx.Queue()
        reader, writer = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=service_worker_loop,
            args=(self._inbox, writer, self._codec),
            daemon=True,
            name=self._name,
        )
        try:
            process.start()
        except Exception:  # noqa: BLE001 — fork/spawn failure: drop the peer
            return False
        writer.close()  # child keeps its copy; EOF then tracks its life
        self._process = process
        self._pipe = reader
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"{self._name}-pump", daemon=True
        )
        self._pump.start()
        return True

    def _read_loop(self) -> None:
        try:
            leftover = server_handshake(self._sock, self._codec, self._token)
        except Exception:  # noqa: BLE001 — hostile pre-auth bytes (bad
            # pickle, torn stream) must close the connection cleanly, not
            # kill this thread with the socket still registered.
            self.stop()
            return
        if not self._spawn_child():
            self.stop()
            return
        if leftover is not None:
            self._ingest(leftover)
        while not self._stopped:
            try:
                frame = read_frame(self._sock, self._codec)
            except Exception:  # noqa: BLE001 — broken stream or undecodable frame
                frame = None
            if frame is None:
                break
            self._ingest(frame)
        self.stop()

    def _ingest(self, frame) -> None:
        if not isinstance(frame, Request):
            return
        if frame.request_id == HEARTBEAT_ID:
            self._send_raw(
                encode_frame(
                    Response(HEARTBEAT_ID, "pong", None, self._process.pid),
                    self._codec,
                )
            )
            return
        try:
            self._inbox.put(encode_frame(frame, self._codec))
        except Exception:  # noqa: BLE001 — child/queue gone: drop the peer
            self.stop()

    def _pump_loop(self) -> None:
        while True:
            try:
                frame = self._pipe.recv_bytes()
            except (EOFError, OSError):
                break  # child exited (or was killed): peer loss for the client
            if not self._send_raw(frame):
                break
        try:
            self._pipe.close()
        except OSError:
            pass
        self.stop()

    def _send_raw(self, frame: bytes) -> bool:
        try:
            with self._write_lock:
                self._sock.sendall(frame)
        except OSError:
            self.stop()
            return False
        return True


class _AgentRegistrar:
    """Keeps an agent registered across registry restarts.

    Mirror of the service's registry redial loop (PR 9): when the
    registry connection dies — restart, partition, crash — a single
    background redial (non-blocking lock = single-flight) reconnects
    with capped exponential backoff and *re-registers*, so the agent
    rejoins pools live instead of silently falling out of the directory.
    The first registration happens inline and fails hard: an unreachable
    registry at startup is a real configuration error.
    """

    def __init__(
        self,
        registry: str,
        address: str,
        kind: str,
        token: str | None,
        stop: "threading.Event",
        heartbeat_interval: float | None = None,
        liveness_timeout: float | None = None,
    ) -> None:
        self._registry = registry
        self._address = address
        self._kind = kind
        self._token = token
        self._stop = stop
        self._kwargs: dict[str, float] = {}
        if heartbeat_interval is not None:
            self._kwargs["heartbeat_interval"] = heartbeat_interval
        if liveness_timeout is not None:
            self._kwargs["liveness_timeout"] = liveness_timeout
        self._redial_lock = threading.Lock()
        self._client = None

    def start(self) -> None:
        self._client = self._dial()

    def _dial(self):
        from repro.cluster import RegistryClient  # lazy: cluster imports transport

        client = RegistryClient.connect(
            self._registry, token=self._token, on_lost=self._on_lost, **self._kwargs
        )
        try:
            client.register(self._address, kind=self._kind)
        except Exception:
            client.close()
            raise
        return client

    def _on_lost(self) -> None:
        if self._stop.is_set():
            return
        threading.Thread(
            target=self._redial_loop, name="agent-registry-redial", daemon=True
        ).start()

    def _redial_loop(self) -> None:
        from repro.retry import REDIAL_POLICY  # lazy: retry imports progression

        if not self._redial_lock.acquire(blocking=False):
            return  # a redial is already in flight
        try:
            old, self._client = self._client, None
            if old is not None:
                old.close()

            def attempt() -> None:
                self._client = self._dial()

            REDIAL_POLICY.run(
                attempt, retry_on=(ServiceError, OSError), stop=self._stop
            )
        except Exception:  # noqa: BLE001 — only exhausted by the stop event
            pass
        finally:
            self._redial_lock.release()

    def leave(self) -> None:
        client = self._client
        if client is not None:
            try:
                client.leave()
            except Exception:  # noqa: BLE001 — registry may already be gone
                pass

    def close(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            client.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host monitor-service workers behind a TCP listener."
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks an ephemeral one)"
    )
    parser.add_argument(
        "--token",
        default=None,
        help="shared auth token gating connections (default: REPRO_AGENT_TOKEN)",
    )
    parser.add_argument(
        "--processes",
        action="store_true",
        help="fork one executor process per connection (lend the whole host)",
    )
    parser.add_argument(
        "--registry",
        default=None,
        metavar="tcp://HOST:PORT",
        help="announce this agent to a cluster registry (join on start, "
        "deregister + drain on SIGTERM)",
    )
    parser.add_argument(
        "--advertise",
        default=None,
        metavar="HOST",
        help="address to announce to the registry (default: --host, or "
        "127.0.0.1 when bound to 0.0.0.0)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-leave bound: how long SIGTERM waits for services "
        "to migrate sessions off before the agent exits",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat cadence on this agent's registry connection "
        "(default: transport default, 1 s)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="silence threshold before the registry connection is "
        "declared dead and redialed (default: transport default, 5 s)",
    )
    args = parser.parse_args(argv)
    agent = WorkerAgent(
        args.host, args.port, token=args.token, processes=args.processes
    )
    agent.start()

    # Install the handler before announcing readiness anywhere (ready
    # line, registry join): a spawner may SIGTERM the moment it learns
    # the agent exists, and that must already mean "graceful leave".
    stop = threading.Event()

    def _graceful(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)

    registrar = None
    if args.registry is not None:
        advertise_host = args.advertise or args.host
        if advertise_host in ("0.0.0.0", "::"):
            advertise_host = "127.0.0.1"
        registrar = _AgentRegistrar(
            args.registry,
            f"tcp://{advertise_host}:{agent.port}",
            "process" if args.processes else "thread",
            args.token,
            stop,
            heartbeat_interval=args.heartbeat_interval,
            liveness_timeout=args.heartbeat_timeout,
        )
        registrar.start()

    mode = "process-pool" if args.processes else "thread"
    auth = "token-auth" if agent.authenticated else "no-auth"
    print(
        f"{READY_PREFIX}{agent.address} (pid {os.getpid()}, {mode}, {auth})",
        flush=True,
    )

    try:
        stop.wait()  # serve until SIGTERM (or KeyboardInterrupt)
    except KeyboardInterrupt:
        pass
    finally:
        # Graceful leave: announce first (services start draining), wait
        # for them to detach, then stop serving.  A second SIGTERM during
        # the drain is harmless (the event is already set).
        if registrar is not None:
            registrar.leave()
        agent.drain(args.drain_timeout)
        if registrar is not None:
            registrar.close()
        agent.close()
    return 0


def spawn_agent(
    host: str = "127.0.0.1",
    port: int = 0,
    token: str | None = None,
    processes: bool = False,
    registry: str | None = None,
    heartbeat_interval: float | None = None,
    heartbeat_timeout: float | None = None,
):
    """Start a worker agent in a fresh OS process; returns ``(popen, host, port)``.

    The helper behind the TCP examples and smoke tests: runs
    ``python -m repro.transport.agent``, waits for the ready line, and
    parses the bound port from it.  The caller owns the process
    (``popen.kill()`` to simulate a host loss, ``terminate()`` for a
    graceful SIGTERM leave).  ``token``/``processes``/``registry`` pass
    through to the agent's flags.
    """
    import subprocess

    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [
        sys.executable,
        "-c",
        "from repro.transport.agent import main; raise SystemExit(main())",
        # argparse reads sys.argv[1:], which -c leaves intact:
        "--host",
        host,
        "--port",
        str(port),
    ]
    if token is not None:
        argv += ["--token", token]
    if processes:
        argv.append("--processes")
    if registry is not None:
        argv += ["--registry", registry]
    if heartbeat_interval is not None:
        argv += ["--heartbeat-interval", str(heartbeat_interval)]
    if heartbeat_timeout is not None:
        argv += ["--heartbeat-timeout", str(heartbeat_timeout)]
    popen = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    line = popen.stdout.readline()
    if not line.startswith(READY_PREFIX):
        popen.kill()
        raise ServiceError(f"worker agent failed to start (got {line!r})")
    address = line[len(READY_PREFIX):].split()[0]
    bound_host, bound_port = address.rsplit(":", 1)
    return popen, bound_host, int(bound_port)


if __name__ == "__main__":  # pragma: no cover - process entry point
    raise SystemExit(main())
