"""The two session workloads: calls on ``MonitorService`` sessions.

One single-threaded generator issues every call.  ``run_open_loop``
issues each call at its due time and sleeps in between (it never
spins), so a stall delays nothing that was already scheduled and a
round trip is timed from when it was *due*; ``run_closed_loop`` issues
the next call as soon as the previous one returns.

``replay_layers`` pushes the exact calls a run issued through the
client journal, the frame codec and an in-process ``OnlineMonitor``:
its verdicts are the reference the service's verdicts are checked
against, and its timings split a round trip into journal, codec and
engine; what is left over is wire + dispatch + queueing.
"""

from __future__ import annotations

import pickle
import statistics
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.monitor.online import OnlineMonitor
from repro.mtl import parse
from repro.service import MonitorService
from repro.service.durability import ReplayJournal
from repro.service.session import OBSERVE_FLUSH_THRESHOLD
from repro.transport.frames import (
    FRAME_VERSION,
    HEADER_SIZE,
    Request,
    Response,
    decode_frame,
    encode_frame,
    split_header,
)

import stats
from spans import Tracer, self_times
from workloads import SESSION_EPSILON, SESSION_SPEC, Op

#: An open-loop advance answered later than this after its due time
#: counts as failed: half a protocol step (the paper's Delta = 500 ms),
#: after which a verdict can no longer be acted on within the step.
LATENCY_LIMIT_S = 0.250
#: A lossy run still going after this long is abandoned and failed.
LOSSY_DEADLINE_S = 120.0


def _request_id(op: Op, advance_number: int) -> str:
    return f"{op.stream[0]}.{op.stream[1]}:{advance_number}"


@dataclass
class SessionRun:
    """What one phase of session calls produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    events: int = 0
    attempted: int = 0
    failed: int = 0
    #: Seconds from due time (open loop) or call time (closed loop)
    #: until ``advance_to`` returned its verdict set.
    latencies_s: list[float] = field(default_factory=list)
    #: Seconds each call took, by kind, from the moment it was issued.
    call_s: dict[str, list[float]] = field(default_factory=dict)
    late_s: list[float] = field(default_factory=list)
    backlog_max: int = 0
    verdicts: dict[tuple[int, int], tuple] = field(default_factory=dict)
    lost: set = field(default_factory=set)
    recovery_call_s: list[float] = field(default_factory=list)
    recoveries: int = 0
    quarantines: int = 0
    checkpoints: int = 0
    overran: bool = False

    @property
    def service_s(self) -> float:
        """Seconds spent inside session calls, all kinds together."""
        return sum(sum(times) for times in self.call_s.values())


class Driver:
    """Executes ops against live sessions and keeps the books."""

    def __init__(self, service: MonitorService, tracer: Tracer, **open_kwargs) -> None:
        self.service = service
        self.tracer = tracer
        self.open_kwargs = open_kwargs
        self.spec = parse(SESSION_SPEC)
        self.handles: dict[tuple[int, int], object] = {}
        self.advances: dict[tuple[int, int], int] = {}
        self._quarantined = False

    def execute(self, op: Op, run: SessionRun) -> float:
        """Issue one call; returns when it completed (``perf_counter``)."""
        run.attempted += 1
        if op.stream in run.lost:
            run.failed += 1
            return time.perf_counter()
        number = self.advances.get(op.stream, 0)
        handle = self.handles.get(op.stream)
        before = handle.recoveries if handle is not None else 0
        started = time.perf_counter()
        try:
            with self.tracer.span(f"service.{op.kind}", request=_request_id(op, number)):
                if op.kind == "open":
                    slot, generation = op.stream
                    handle = self.handles[op.stream] = self.service.open_session(
                        self.spec, SESSION_EPSILON, key=f"s{slot}-g{generation}", **self.open_kwargs
                    )
                elif op.kind == "observe":
                    handle.observe(*op.payload)
                    run.events += 1
                elif op.kind == "advance":
                    handle.advance_to(op.payload)
                    self.advances[op.stream] = number + 1
                else:
                    result = handle.finish()
                    run.verdicts[op.stream] = stats.verdict_key(result.verdict_counts)
                    run.checkpoints += handle.checkpoints
        except ReproError:
            run.lost.add(op.stream)
            run.failed += 1
        ended = time.perf_counter()
        run.call_s.setdefault(op.kind, []).append(ended - started)
        if handle is not None and handle.recoveries > before:
            run.recoveries += handle.recoveries - before
            run.recovery_call_s.append(ended - started)
        return ended

    def sample_service(self, run: SessionRun) -> None:
        """Backlog and quarantine state, read between calls (traced pass)."""
        run.backlog_max = max(run.backlog_max, sum(self.service.outstanding()))
        quarantined = any(self.service.quarantined_endpoints())
        run.quarantines += quarantined and not self._quarantined
        self._quarantined = quarantined


def run_closed_loop(driver: Driver, ops, pids, deadline_s: float | None = None) -> SessionRun:
    """Issue every call back to back; latency runs from the call."""
    run = SessionRun()
    cpu_start = time.process_time() + stats.cpu_seconds(pids)
    start = time.perf_counter()
    for op in ops:
        issued = time.perf_counter()
        if deadline_s is not None and issued - start > deadline_s:
            run.overran = True
            break
        ended = driver.execute(op, run)
        if op.kind == "advance":
            run.latencies_s.append(ended - issued)
        if driver.tracer.enabled:
            driver.sample_service(run)
    run.wall_s = time.perf_counter() - start
    run.cpu_s = time.process_time() + stats.cpu_seconds(pids) - cpu_start
    return run


def run_open_loop(driver: Driver, ops, compression: float, pids) -> SessionRun:
    """Issue each call at its due time; latency runs from the due time.

    ``op.due`` is logical milliseconds; ``compression`` logical seconds
    pass per real second.  A call that is due while an earlier one is
    still running is issued as soon as the generator is free, and the
    wait counts: its latency still starts at its due time.
    """
    run = SessionRun()
    cpu_start = time.process_time() + stats.cpu_seconds(pids)
    start = time.perf_counter()
    for op in ops:
        due = start + op.due / (1000.0 * compression)
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        run.late_s.append(max(0.0, time.perf_counter() - due))
        ended = driver.execute(op, run)
        if op.kind == "advance":
            run.latencies_s.append(ended - due)
            if ended - due > LATENCY_LIMIT_S and op.stream not in run.lost:
                run.failed += 1
        if driver.tracer.enabled:
            driver.sample_service(run)
    run.wall_s = time.perf_counter() - start
    run.cpu_s = time.process_time() + stats.cpu_seconds(pids) - cpu_start
    return run


# -- the layer replay ----------------------------------------------------------------


@dataclass
class LayerReplay:
    """The run's calls pushed through journal, codec and engine in
    process.  Times are in the tracer's spans (``service.journal``,
    ``transport.encode``, ``transport.decode``, ``monitor.online``,
    ``monitor.snapshot``, ``monitor.restore``); these are the counts."""

    verdicts: dict[tuple[int, int], tuple] = field(default_factory=dict)
    snapshots: int = 0
    snapshot_bytes: int = 0
    frames: int = 0
    frame_bytes: int = 0
    pickle_frames: int = 0


def _exchange(frames: list, op: str, payload, answer) -> None:
    """Append one request frame and its response frame."""
    request_id = len(frames) // 2 + 1
    frames.append(Request(request_id, op, payload))
    frames.append(Response(request_id, answer, None, 0, op=op))


def _replay_engine(calls, session_id, spec, checkpoint_every, tracer, out: LayerReplay):
    """One stream through an in-process ``OnlineMonitor``, framed the
    way ``Session`` frames it: buffered observes flush as one batch
    ahead of each synchronising call, and a snapshot follows the call
    once ``checkpoint_every`` events were flushed since the last one.

    Returns the frames that would cross the wire, the journal entries
    the client would record, and the final verdict multiset.
    """
    frames: list = []
    journal_ops: list[tuple[str, object]] = []
    monitor = None
    buffer: list = []
    since_checkpoint = 0
    unsaved = 0
    verdict_key = None
    for op in calls:
        if op.kind == "open":
            monitor = OnlineMonitor(spec, SESSION_EPSILON)
            _exchange(frames, "session_open", (session_id, spec, SESSION_EPSILON, {}), session_id)
            continue
        if op.kind == "observe":
            process, local_time, props = op.payload
            event = (process, local_time, frozenset(props), None)
            journal_ops.append(("observe", event))
            buffer.append(event)
            unsaved += 1
            if len(buffer) < OBSERVE_FLUSH_THRESHOLD:
                continue
        if buffer:
            _exchange(frames, "session_observe", (session_id, buffer), len(buffer))
            for process, local_time, props, deltas in buffer:
                monitor.observe(process, local_time, props, deltas)
            since_checkpoint += len(buffer)
            buffer = []
        if op.kind == "advance":
            verdicts = monitor.advance_to(op.payload)
            _exchange(frames, "session_advance", (session_id, op.payload), verdicts)
            journal_ops.append(("advance", op.payload))
            unsaved += 1
        elif op.kind == "finish":
            result = monitor.finish()
            _exchange(frames, "session_finish", (session_id,), result)
            verdict_key = stats.verdict_key(result.verdict_counts)
            continue
        if since_checkpoint >= checkpoint_every and unsaved:
            since_checkpoint = unsaved = 0
            with tracer.span("monitor.snapshot"):
                snapshot = monitor.snapshot()
            with tracer.span("ledger.glue"):
                # The snapshot aliases the live monitor; the copy is what
                # another worker would receive, frozen at this point.
                blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
                copy = pickle.loads(blob)
            with tracer.span("monitor.restore"):
                OnlineMonitor.restore(copy)
            out.snapshots += 1
            out.snapshot_bytes += len(blob)
            _exchange(frames, "session_snapshot", (session_id,), copy)
            journal_ops.append(("checkpoint", copy))
    return frames, journal_ops, verdict_key


def replay_layers(ops, checkpoint_every: int, tracer: Tracer) -> LayerReplay:
    """Replay ``ops`` stream by stream through engine, journal and codec.

    Each layer handles a whole stream inside one span, so the timers
    cost nothing next to calls that take well under a microsecond.
    """
    out = LayerReplay()
    spec = parse(SESSION_SPEC)
    streams: dict[tuple[int, int], list[Op]] = {}
    for op in ops:
        streams.setdefault(op.stream, []).append(op)
    for session_id, (stream, calls) in enumerate(sorted(streams.items())):
        request = f"{stream[0]}.{stream[1]}"
        with tracer.span("monitor.online", request=request):
            frames, journal_ops, out.verdicts[stream] = _replay_engine(
                calls, session_id, spec, checkpoint_every, tracer, out
            )
        journal = ReplayJournal()
        with tracer.span("service.journal", request=request):
            for kind, payload in journal_ops:
                if kind == "observe":
                    journal.record_event(payload)
                elif kind == "advance":
                    journal.record_advance(payload)
                else:
                    journal.apply_checkpoint(payload, journal.mark())
        with tracer.span("transport.encode", request=request):
            encoded = [encode_frame(frame) for frame in frames]
        with tracer.span("transport.decode", request=request):
            for data in encoded:
                decode_frame(data)
        out.frames += len(encoded)
        out.frame_bytes += sum(len(data) for data in encoded)
        out.pickle_frames += sum(
            split_header(data[:HEADER_SIZE])[0] == FRAME_VERSION for data in encoded
        )
    return out


def check_verdicts(run: SessionRun, reference: dict) -> int:
    """Streams whose verdict multiset is missing or differs (lost
    streams were already counted when their call failed)."""
    wrong = 0
    for stream, want in reference.items():
        if stream not in run.lost and run.verdicts.get(stream) != want:
            wrong += 1
    return wrong


# -- probes on an idle session (traced pass) ---------------------------------------------


#: Calls the idle probes make: polls, and checkpoint rounds.
PROBE_POLLS = 200
PROBE_ROUNDS = 20


def idle_probes(service: MonitorService) -> dict:
    """Floor costs measured on one otherwise idle durable session:
    the ``poll`` round trip (wire + dispatch, no engine work) and a
    forced, awaited checkpoint of a few fresh events."""
    session = service.open_session(
        parse(SESSION_SPEC), SESSION_EPSILON, key="ledger-probe", checkpoint=True
    )
    poll_s = []
    for _ in range(PROBE_POLLS):
        started = time.perf_counter()
        session.poll()
        poll_s.append(time.perf_counter() - started)
    checkpoint_s = []
    for step in range(PROBE_ROUNDS):
        base = step * 100
        for offset, process in enumerate(("P1", "P2", "P1", "P2")):
            session.observe(process, base + 10 + 20 * offset, ("a",))
        session.advance_to(base + 100)
        started = time.perf_counter()
        session.checkpoint_now(wait=True)
        checkpoint_s.append(time.perf_counter() - started)
    session.close()
    return {
        "transport.poll_rtt_p50_us": 1e6 * stats.percentile(poll_s, 50),
        "service.checkpoint_s": statistics.mean(checkpoint_s),
    }


def layer_metrics(run: SessionRun, layers: LayerReplay, tracer: Tracer) -> dict:
    """Per-layer numbers shared by both session workloads.  ``run`` is
    the traced pass; ``layers`` and the tracer's replay spans split its
    call time into journal, codec and engine."""
    own = self_times(tracer.spans)
    engine_s = own.get("monitor.online", 0.0)
    journal_s = own.get("service.journal", 0.0)
    encode_s = own.get("transport.encode", 0.0)
    decode_s = own.get("transport.decode", 0.0)
    service_s = run.service_s
    observes = run.call_s.get("observe", [])
    return {
        "monitor.online_engine_s": engine_s,
        "service.overhead_share": 1.0 - engine_s / service_s if service_s else 0.0,
        "service.journal_s": journal_s,
        "service.observe_call_us": 1e6 * statistics.mean(observes) if observes else 0.0,
        "service.dispatch_wait_s": service_s - journal_s - encode_s - decode_s - engine_s,
        "service.checkpoints": run.checkpoints,
        "service.backlog_max": run.backlog_max,
        "service.recoveries": run.recoveries,
        "service.recovery_p50_ms": (
            1e3 * statistics.median(run.recovery_call_s) if run.recovery_call_s else 0.0
        ),
        "service.quarantines": run.quarantines,
        "transport.encode_s": encode_s,
        "transport.decode_s": decode_s,
        "transport.frames": layers.frames,
        "transport.frame_bytes": layers.frame_bytes,
        "transport.pickle_frames": layers.pickle_frames,
        "monitor.snapshot_s": own.get("monitor.snapshot", 0.0),
        "monitor.restore_s": own.get("monitor.restore", 0.0),
        "monitor.snapshot_bytes": layers.snapshot_bytes,
    }
