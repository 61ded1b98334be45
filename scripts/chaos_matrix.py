"""Seeded chaos matrix: fault class × transport × control plane.

Where ``chaos_smoke.py`` prices the cleanest failure there is (SIGKILL
→ instant EOF), this matrix prices *gray* ones: frames dropped, delayed,
duplicated, reordered, corrupted, or one-way-partitioned while both
endpoints stay alive.  Faults come from a deterministic
:class:`~repro.transport.faults.FaultSchedule`, so every cell — and
every failure — reproduces from nothing but its printed seed::

    PYTHONPATH=src python scripts/chaos_matrix.py                   # PR lane
    PYTHONPATH=src python scripts/chaos_matrix.py --matrix full     # all cells
    PYTHONPATH=src python scripts/chaos_matrix.py --fault drop --transport tcp --seed 7

Matrix dimensions:

* **fault class** — ``drop``, ``duplicate``, ``reorder``, ``slow``
  (latency + long stalls past the call timeout: the alive-but-slow gray
  case the idempotency fence exists for), ``partition`` (one-way, heals
  after an index window), ``corrupt`` (wrapper: link loss; the decoder
  side is covered by the hostility fuzz tests);
* **transport** — ``local`` (in-process pool workers behind
  :class:`~repro.transport.FaultyTransport`) and ``tcp`` (spawned worker
  agents at millisecond heartbeat cadence behind the same wrapper);
* **control plane** — the ``registry-restart`` cell kills the cluster
  registry mid-workload and respawns it on the same port: worker agents
  must re-dial and re-register, the service must re-dial and re-watch,
  and the workload must never notice.

Asserted in every cell:

* **zero lost sessions** — every stream finishes and no error reaches
  the caller;
* **bit-identical verdicts** — each session's verdict multiset equals
  an uninterrupted in-process :class:`~repro.monitor.online.OnlineMonitor`
  replay of the same stream, whatever the schedule did to the frames;
* **bounded recovery** — outstanding-request books drain to zero within
  a fixed deadline after the workload ends;
* **at most once** — every worker of a fault cell runs a counting
  executor: no request id is executed twice, whatever was duplicated,
  reordered, probed or re-sent (the cell also prints how many status
  probes the client sent and how many cached replies workers sent
  again).

On failure the cell prints its seed, the schedule, and a one-line repro
command; ``--artifact PATH`` additionally writes the failing cell as
JSON (the CI chaos-matrix job uploads it).
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import sys
import threading
import time

from repro.errors import ReproError
from repro.monitor.online import OnlineMonitor
from repro.mtl import parse
from repro.retry import RetryPolicy
from repro.service import MonitorService
from repro.service import worker as worker_module
from repro.transport import FaultSchedule, FaultyTransport, LocalTransport, TcpTransport
from repro.transport.agent import WorkerAgent, spawn_agent
from repro.transport.frames import DROPPED_BEFORE_EXECUTION, STALE_REQUEST_PREFIX

SPEC = parse("a U[0,30) b")
EPSILON = 2
TICKS = 24
SESSIONS = 6
WORKERS = 3
#: Endpoints 0..FAULTY-1 run behind the fault wrapper; the rest stay
#: clean so recovery always has a healthy target (the matrix prices the
#: protocol under faults, not total-pool loss — chaos_smoke covers the
#: every-endpoint-dies end of the spectrum).
FAULTY = 2
CHECKPOINT = {"every_events": 4}
#: Session call policy for fault cells: short per-attempt timeout (arms
#: the gray-failure fence), a few fenced retries, fast backoff.
CALL_POLICY = RetryPolicy(attempts=4, timeout=1.0, base_delay=0.05, max_delay=0.4)
#: Millisecond-scale liveness for TCP cells, so detection and recovery
#: run at test timescales instead of the production 1 s / 5 s cadence.
HEARTBEAT_INTERVAL = 0.1
LIVENESS_TIMEOUT = 1.0
#: Outstanding books must drain within this bound after the workload.
DRAIN_SECONDS = 20.0

#: Fault classes: FaultSchedule knobs per cell.  ``grace`` lets the
#: session_open round-trips through clean (they predate the per-call
#: fence), mirroring ChaosProxy's handshake grace.
FAULTS = {
    "drop": dict(drop=0.03, grace=8),
    "duplicate": dict(duplicate=0.12, grace=8),
    "reorder": dict(reorder=0.45, reorder_window=0.5, grace=8),
    "slow": dict(latency=0.001, jitter=0.002, delay=0.04, delay_seconds=1.5, grace=8),
    "partition": dict(partition="c2s", partition_start=12, partition_span=30, grace=8),
    "corrupt": dict(corrupt=0.02, grace=8),
}
TRANSPORTS = ("local", "tcp")

#: The quick lane run on every PR; the full lane adds the remaining
#: product cells plus the registry-restart cell.
PR_LANE = [
    ("drop", "local"),
    ("duplicate", "local"),
    ("reorder", "local"),
    ("partition", "local"),
    ("slow", "local"),
    ("drop", "tcp"),
]


def full_lane() -> list[tuple[str, str]]:
    return [(fault, transport) for transport in TRANSPORTS for fault in FAULTS]


def _drive(targets: dict[int, object]) -> dict[int, object]:
    """Feed every target one deterministic multi-segment stream."""
    for t in range(1, TICKS + 1):
        for seed, target in targets.items():
            shift = (t + seed) % 3
            target.observe("P1", t, {"a"} if shift else {"a", "b"})
            if (t + seed) % 5 == 0:
                target.observe("P2", t, {"b"} if (t + seed) % 10 == 0 else set())
            if t % 6 == 0:
                target.advance_to(t)
    return {seed: target.finish() for seed, target in targets.items()}


def _reference_counts() -> dict[int, object]:
    monitors = {seed: OnlineMonitor(SPEC, epsilon=EPSILON) for seed in range(SESSIONS)}
    results = _drive(monitors)
    return {seed: result.verdict_counts for seed, result in results.items()}


class Witness:
    """Counters a cell's worker processes share with the cell."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context()
        self.executed = ctx.Value("i", 0)
        self.repeated = ctx.Value("i", 0)
        self.resent = ctx.Value("i", 0)


def counting_executor(witness: Witness):
    """A ``RequestExecutor`` that reports every real execution (stale
    refusals, skipped drops and re-sent replies execute nothing) and
    every request id it executed a second time."""

    class CountingExecutor(worker_module.RequestExecutor):
        def __init__(self) -> None:
            super().__init__()
            self._executed_ids: set[int] = set()

        def execute(self, request):
            response = super().execute(request)
            skipped = response is None or (response.error or "").startswith(
                (STALE_REQUEST_PREFIX, DROPPED_BEFORE_EXECUTION)
            )
            if not skipped:
                with witness.executed.get_lock():
                    witness.executed.value += 1
                    witness.repeated.value += request.request_id in self._executed_ids
                self._executed_ids.add(request.request_id)
            return response

        def probe(self, request_id):
            before = self.replies_resent
            super().probe(request_id)
            with witness.resent.get_lock():
                witness.resent.value += self.replies_resent - before

    return CountingExecutor


def _counting_worker(witness: Witness, inbox, response_writer, codec) -> None:
    """Local-backend child body: the stock loop around a counting executor."""
    worker_module.RequestExecutor = counting_executor(witness)  # this child only
    worker_module.service_worker_loop(inbox, response_writer, codec)


def _counting_agent(witness: Witness, ready) -> None:
    """TCP-backend child body: a thread-mode agent with counting executors."""
    agent = WorkerAgent(executor_factory=counting_executor(witness))
    agent.start()
    ready.send(agent.port)
    threading.Event().wait()  # serve until the cell kills this process


def _spawn_counting_agent(witness: Witness):
    ctx = multiprocessing.get_context()
    ours, theirs = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_counting_agent, args=(witness, theirs), daemon=True)
    process.start()
    return process, ours.recv()


def build_schedule(fault: str, seed: int | str) -> FaultSchedule:
    return FaultSchedule(seed=f"{seed}:{fault}", **FAULTS[fault])


def run_cell(fault: str, transport: str, seed: int) -> dict:
    """One matrix cell; raises AssertionError/ReproError on any violation."""
    schedule = build_schedule(fault, seed)
    expected = _reference_counts()
    witness = Witness()
    agents = []
    try:
        if transport == "local":
            clean = [
                LocalTransport(target=functools.partial(_counting_worker, witness))
                for _ in range(WORKERS)
            ]
        else:
            agents = [_spawn_counting_agent(witness) for _ in range(WORKERS)]
            clean = [
                TcpTransport(
                    "127.0.0.1", port,
                    heartbeat_interval=HEARTBEAT_INTERVAL,
                    liveness_timeout=LIVENESS_TIMEOUT,
                )
                for _, port in agents
            ]
        endpoints = [
            FaultyTransport(endpoint, schedule) if i < FAULTY else endpoint
            for i, endpoint in enumerate(clean)
        ]
        started = time.monotonic()
        with MonitorService(saturate=False, endpoints=endpoints) as service:
            handles = {
                seed_: service.open_session(
                    SPEC, EPSILON, checkpoint=CHECKPOINT, call_policy=CALL_POLICY
                )
                for seed_ in range(SESSIONS)
            }
            results = _drive(handles)
            lost = [
                s for s in handles if results[s].verdict_counts != expected[s]
            ]
            assert not lost, (
                f"sessions {lost} diverged from the in-process replay"
            )
            deadline = time.monotonic() + DRAIN_SECONDS
            while any(service.outstanding()) and time.monotonic() < deadline:
                time.sleep(0.02)
            leftover = service.outstanding()
            assert not any(leftover), (
                f"outstanding counters leaked past {DRAIN_SECONDS}s: {leftover}"
            )
            assert witness.executed.value > 0, "the workers counted no execution"
            assert witness.repeated.value == 0, (
                f"{witness.repeated.value} request id(s) executed more than once"
            )
            stats = {
                "probes": service.probes,
                "resent": witness.resent.value,
                "recoveries": sum(h.recoveries for h in handles.values()),
                "migrations": sum(h.migrations for h in handles.values()),
                "checkpoints": sum(h.checkpoints for h in handles.values()),
                "quarantined": sum(service.quarantined_endpoints()),
                "elapsed": round(time.monotonic() - started, 2),
            }
            for endpoint in endpoints:
                if isinstance(endpoint, FaultyTransport):
                    for key, value in endpoint.stats().items():
                        stats[key] = stats.get(key, 0) + value
            return stats
    finally:
        for process, _ in agents:
            process.kill()
            process.join(timeout=10)


def run_registry_restart(seed: int) -> dict:
    """The control-plane cell: registry dies and respawns mid-workload.

    Agents register through the registry; the service discovers its pool
    via membership.  Mid-stream the registry process is SIGKILLed and
    respawned on the same port — the agents' single-flight redial loops
    and the service's watch redial must both re-converge, and the
    workload (running over direct agent connections the whole time) must
    finish with bit-identical verdicts.
    """
    from repro.cluster import RegistryClient, spawn_registry

    token = f"chaos-matrix-{seed}"
    expected = _reference_counts()
    registry_popen, rhost, rport = spawn_registry(token=token)
    spec = f"tcp://{rhost}:{rport}"
    agents = [
        spawn_agent(
            token=token,
            registry=spec,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            heartbeat_timeout=LIVENESS_TIMEOUT,
        )
        for _ in range(WORKERS)
    ]
    try:
        started = time.monotonic()
        with MonitorService(saturate=False, registry=spec, token=token) as service:
            deadline = time.monotonic() + 10
            while service.workers < WORKERS and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.workers == WORKERS, (
                f"pool never reached {WORKERS} members: {service.endpoints()}"
            )
            handles = {
                s: service.open_session(
                    SPEC, EPSILON, checkpoint=CHECKPOINT, call_policy=CALL_POLICY
                )
                for s in range(SESSIONS)
            }
            # Kill the control plane mid-stream; respawn on the same port.
            registry_popen.kill()
            registry_popen.wait(timeout=10)
            registry_popen.stdout.close()
            # Tick 1 of the standard drive runs while the control plane
            # is down: the data plane must not care.
            for s, handle in handles.items():
                shift = (1 + s) % 3
                handle.observe("P1", 1, {"a"} if shift else {"a", "b"})
                if (1 + s) % 5 == 0:
                    handle.observe("P2", 1, {"b"} if (1 + s) % 10 == 0 else set())
            registry_popen, _, _ = spawn_registry(host=rhost, port=rport, token=token)
            # Every agent must re-register and the service must re-watch.
            deadline = time.monotonic() + 15
            members = []
            while time.monotonic() < deadline:
                try:
                    probe = RegistryClient.connect(spec, token=token)
                    try:
                        members = probe.members()
                    finally:
                        probe.close()
                except ReproError:
                    members = []
                if len(members) >= WORKERS:
                    break
                time.sleep(0.1)
            assert len(members) >= WORKERS, (
                f"agents never re-registered after the registry restart: "
                f"{[m.get('address') for m in members]}"
            )
            for t in range(2, TICKS + 1):
                for s, handle in handles.items():
                    shift = (t + s) % 3
                    handle.observe("P1", t, {"a"} if shift else {"a", "b"})
                    if (t + s) % 5 == 0:
                        handle.observe("P2", t, {"b"} if (t + s) % 10 == 0 else set())
                    if t % 6 == 0:
                        handle.advance_to(t)
            results = {s: handle.finish() for s, handle in handles.items()}
            lost = [
                s for s in handles
                if results[s].verdict_counts != expected[s]
            ]
            assert not lost, f"sessions {lost} diverged across the registry restart"
            return {
                "members": len(members),
                "elapsed": round(time.monotonic() - started, 2),
            }
    finally:
        for popen, _, _ in agents:
            popen.kill()
            popen.wait(timeout=10)
            popen.stdout.close()
        registry_popen.kill()
        registry_popen.wait(timeout=10)
        registry_popen.stdout.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrix", choices=("pr", "full"), default="pr")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fault", choices=sorted(FAULTS), default=None,
                        help="run one fault class only")
    parser.add_argument("--transport", choices=TRANSPORTS, default=None,
                        help="run one transport only")
    parser.add_argument("--list", action="store_true", help="print the cells and exit")
    parser.add_argument("--artifact", metavar="PATH", default=None,
                        help="write the failing cell as JSON here")
    args = parser.parse_args(argv)

    cells = list(PR_LANE) if args.matrix == "pr" else full_lane()
    if args.fault or args.transport:
        cells = [
            (fault, transport)
            for fault, transport in (full_lane())
            if (args.fault is None or fault == args.fault)
            and (args.transport is None or transport == args.transport)
        ]
    registry_cell = args.matrix == "full" and not (args.fault or args.transport)
    if args.list:
        for fault, transport in cells:
            print(f"{fault}/{transport}")
        if registry_cell:
            print("registry-restart")
        return 0

    failures = 0
    for fault, transport in cells:
        schedule = build_schedule(fault, args.seed)
        label = f"{fault}/{transport}"
        try:
            stats = run_cell(fault, transport, args.seed)
        except BaseException as exc:  # noqa: BLE001 — report, then re-raise policy below
            failures += 1
            print(f"FAIL {label}: {exc}")
            print(f"  seed: {args.seed}")
            print(f"  schedule: {schedule.describe()}")
            print(
                f"  repro: PYTHONPATH=src python scripts/chaos_matrix.py "
                f"--fault {fault} --transport {transport} --seed {args.seed}"
            )
            if args.artifact:
                with open(args.artifact, "w") as fh:
                    json.dump(
                        {
                            "cell": label,
                            "seed": args.seed,
                            "schedule": FAULTS[fault],
                            "error": repr(exc),
                        },
                        fh,
                        indent=2,
                    )
            continue
        detail = ", ".join(
            f"{key}={value}" for key, value in stats.items() if value
        )
        print(f"ok   {label}: {detail or 'clean'}")
    if registry_cell:
        try:
            stats = run_registry_restart(args.seed)
        except BaseException as exc:  # noqa: BLE001
            failures += 1
            print(f"FAIL registry-restart: {exc}")
            print(f"  seed: {args.seed}")
        else:
            print(
                f"ok   registry-restart: members={stats['members']}, "
                f"elapsed={stats['elapsed']}s"
            )
    if failures:
        print(f"chaos matrix: {failures} cell(s) FAILED (seed {args.seed})")
        return 1
    print(f"chaos matrix ({args.matrix}, seed {args.seed}): all cells passed — "
          f"zero lost sessions, bit-identical verdicts (asserted)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
