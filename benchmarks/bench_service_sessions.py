"""Service benchmark: session sweep + persistent-pool amortisation proof.

Two claims, both about the :class:`~repro.service.MonitorService` being a
*long-lived* server core rather than a per-call pool:

1. **Sessions × event-rate sweep** — S concurrent live streams, each
   feeding R events/second of logical time and advancing its frontier
   every ~2 events, multiplexed over one worker pool.  The sweep reports
   wall-clock and end-to-end event throughput per (S, R) point.

2. **Skewed feed with live rebalancing** (``--skew``) — 1 hot stream at
   10× the event rate of 15 cold ones, run with placement frozen at open
   time and again with the :class:`~repro.service.Rebalancer` migrating
   the hot stream live (plus one forced mid-stream hop).  The run
   *asserts* bit-identical verdict sets and all-zero outstanding
   counters — rebalancing is a scheduling lever, never a semantic one.

3. **Persistent vs fresh pool** — the same sequence of small batches run
   (a) through one persistent service and (b) through a fresh service
   per batch (spawn, monitor, tear down).  On repeated small batches the fork/teardown tax
   dominates the fresh path, so the persistent pool wins.  Matching the
   scaling-benchmark convention, the win is *asserted* only on >= 4-core
   non-CI hosts; elsewhere the numbers are printed for the record.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service_sessions.py
    PYTHONPATH=src python benchmarks/bench_service_sessions.py --smoke --workers 2

or through pytest-benchmark (slow lane)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_sessions.py \
        -o python_files=bench_*.py -o python_functions=bench_* --benchmark-only
"""

from __future__ import annotations

import argparse
import os
import random
import time

import pytest

from repro.distributed.computation import DistributedComputation
from repro.mtl import parse
from repro.service import MonitorService

EPSILON = 2
#: Advance boundaries track the event rate so each closed segment holds
#: ~2 events regardless of rate (trace enumeration is exponential in
#: events-per-segment; the sweep measures multiplexing, not enumeration).
EVENTS_PER_ADVANCE = 2.0
MIN_ADVANCE_MS = 50
SESSION_SPEC = "a U[0,600) b"

#: (sessions, events-per-second) sweep grid for the full run.
SWEEP_GRID = ((8, 10.0), (32, 10.0), (32, 40.0), (64, 10.0))
SMOKE_GRID = ((8, 10.0),)

#: Persistent-vs-fresh comparison: repeated small batches.
BATCH_ROUNDS = 6
BATCH_SIZE = 4

#: Skewed-feed workload (--skew): 1 hot stream at 10× the event rate of
#: each of 15 cold ones, driven over every pool endpoint, with live
#: rebalancing on vs off — the verdicts must be bit-identical either way.
SKEW_COLD_STREAMS = 15
SKEW_HOT_MULTIPLIER = 10
SKEW_BASE_RATE = 5.0


def _stream_events(seed: int, rate: float, length_seconds: float):
    """Deterministic 2-process event stream: [(process, t_ms, props)]."""
    rng = random.Random(seed)
    period_ms = max(1, round(1000.0 / rate))
    events = []
    clocks = {"P1": rng.randrange(0, 3), "P2": rng.randrange(0, 3)}
    horizon = round(length_seconds * 1000)
    while min(clocks.values()) < horizon:
        process = rng.choice(("P1", "P2"))
        clocks[process] += period_ms + rng.randrange(0, 3)
        props = tuple(p for p in ("a", "b") if rng.random() < 0.4)
        events.append((process, clocks[process], props))
    # Observation order = timestamp order (stable: per-process clocks stay
    # monotone), so a windowed driver can feed strictly below each boundary.
    events.sort(key=lambda e: e[1])
    return events


def run_session_sweep_point(
    workers: int,
    sessions: int,
    rate: float,
    length_seconds: float,
    endpoints: list[str] | None = None,
    checkpoint: dict | None = None,
    call_policy=None,
) -> dict:
    """Drive ``sessions`` concurrent streams; return wall/throughput.

    ``endpoints`` swaps the local pool for explicit transport endpoints
    (e.g. ``["tcp://host:7701", ...]`` worker agents) — same workload,
    different wire.  ``checkpoint`` (a ``CheckpointConfig`` spec dict)
    makes every stream durable, so the sweep prices the checkpoint tax.
    ``call_policy`` (a :class:`~repro.retry.RetryPolicy`) arms the
    gray-failure fence on every stream — required under ``--faults``.
    """
    spec = parse(SESSION_SPEC)
    advance_ms = max(MIN_ADVANCE_MS, round(1000.0 * EVENTS_PER_ADVANCE / rate))
    streams = {
        seed: _stream_events(seed, rate, length_seconds) for seed in range(sessions)
    }
    total_events = sum(len(events) for events in streams.values())
    horizon = max((e[1] for events in streams.values() for e in events), default=0)
    pool = {"endpoints": endpoints} if endpoints else {"workers": workers}
    started = time.perf_counter()
    with MonitorService(**pool) as service:
        handles = {
            seed: service.open_session(
                spec,
                EPSILON,
                key=f"stream-{seed}",
                checkpoint=checkpoint,
                call_policy=call_policy,
            )
            for seed in streams
        }
        cursors = {seed: 0 for seed in streams}
        boundary = advance_ms
        while boundary <= horizon + advance_ms:
            for seed, events in streams.items():
                session = handles[seed]
                cursor = cursors[seed]
                while cursor < len(events) and events[cursor][1] < boundary:
                    process, t, props = events[cursor]
                    session.observe(process, t, props)
                    cursor += 1
                cursors[seed] = cursor
                session.advance_to(boundary)
            boundary += advance_ms
        results = {seed: handles[seed].finish() for seed in streams}
        checkpoints = sum(handles[seed].checkpoints for seed in streams)
        recoveries = sum(handles[seed].recoveries for seed in streams)
        probes = service.probes
        leftover = service.outstanding()
    wall = time.perf_counter() - started
    assert not any(leftover), f"outstanding counters leaked: {leftover}"
    verdict_sets = sorted(
        "".join("TF"[v is False] for v in sorted(r.verdicts, reverse=True))
        for r in results.values()
    )
    return {
        "sessions": sessions,
        "rate": rate,
        "events": total_events,
        "wall": wall,
        "events_per_second": total_events / wall if wall else float("inf"),
        "checkpoints": checkpoints,
        "recoveries": recoveries,
        "probes": probes,
        "verdict_sets": verdict_sets,
    }


def run_skewed_point(
    workers: int,
    length_seconds: float,
    endpoints: list[str] | None = None,
    rebalance: str | None = None,
    force_migration: bool = False,
) -> dict:
    """Drive the skewed mix (1 hot @ 10× + 15 cold); return wall/verdicts.

    ``rebalance`` turns the live :class:`~repro.service.Rebalancer` on;
    ``force_migration`` additionally hops the hot stream manually at the
    half-way boundary, so every run exercises at least one mid-stream
    migration regardless of policy timing.
    """
    spec = parse(SESSION_SPEC)
    hot_rate = SKEW_BASE_RATE * SKEW_HOT_MULTIPLIER
    advance_ms = max(MIN_ADVANCE_MS, round(1000.0 * EVENTS_PER_ADVANCE / hot_rate))
    streams = {0: _stream_events(0, hot_rate, length_seconds)}
    for seed in range(1, SKEW_COLD_STREAMS + 1):
        streams[seed] = _stream_events(seed, SKEW_BASE_RATE, length_seconds)
    total_events = sum(len(events) for events in streams.values())
    horizon = max((e[1] for events in streams.values() for e in events), default=0)
    pool = {"endpoints": endpoints} if endpoints else {"workers": workers}
    if rebalance:
        pool.update({"rebalance": rebalance, "rebalance_interval": 0.05})
    started = time.perf_counter()
    with MonitorService(**pool) as service:
        handles = {
            seed: service.open_session(spec, EPSILON) for seed in streams
        }
        cursors = {seed: 0 for seed in streams}
        forced = False
        boundary = advance_ms
        while boundary <= horizon + advance_ms:
            for seed, events in streams.items():
                session = handles[seed]
                cursor = cursors[seed]
                while cursor < len(events) and events[cursor][1] < boundary:
                    process, t, props = events[cursor]
                    session.observe(process, t, props)
                    cursor += 1
                cursors[seed] = cursor
                session.advance_to(boundary)
            if force_migration and not forced and boundary >= horizon // 2:
                hot = handles[0]
                live = [
                    index
                    for index, dead in enumerate(service.dead_endpoints())
                    if not dead and index != hot.worker_index
                ]
                if live:
                    service.migrate(hot, live[0])
                    forced = True
            boundary += advance_ms
        results = {seed: handles[seed].finish() for seed in streams}
        migrations = sum(handles[seed].migrations for seed in streams)
        leftover = service.outstanding()
    wall = time.perf_counter() - started
    assert not any(leftover), f"outstanding counters leaked: {leftover}"
    verdict_sets = sorted(
        "".join("TF"[v is False] for v in sorted(r.verdicts, reverse=True))
        for r in results.values()
    )
    return {
        "events": total_events,
        "wall": wall,
        "events_per_second": total_events / wall if wall else float("inf"),
        "migrations": migrations,
        "verdict_sets": verdict_sets,
    }


#: Lossy-link schedule for --faults: a few percent of frames dropped, a
#: small per-frame latency with jitter, and occasional 0.2 s stalls —
#: the "bad but not dead" link that status probes repair in a round
#: trip (and the quarantine/fence machinery degrades gracefully on when
#: they cannot).  Deterministic: same seed, same faults.
FAULT_SEED = "bench-lossy-link"
FAULT_KNOBS = dict(
    drop=0.02,
    latency=0.001,
    jitter=0.002,
    delay=0.03,
    delay_seconds=0.2,
    grace=8,
)
#: Per-attempt give-up bound for --faults streams (generous: the stalls
#: are 0.2 s).  A dropped frame costs a probe round trip paced by the
#: measured RTT, not this bound; it is what unanswered probes run into.
FAULT_CALL_TIMEOUT = 2.0


def run_faults_comparison(
    workers: int, sessions: int, rate: float, length_seconds: float
) -> dict:
    """The --faults claim: a lossy link costs throughput, never verdicts.

    Runs the identical sweep point twice — once on a clean local pool,
    once with every endpoint behind :class:`~repro.transport.
    FaultyTransport` on a seeded lossy-link schedule — and reports the
    degradation factor.  Asserts the verdict multisets are bit-identical
    (zero lost sessions, exactly-once under retries).
    """
    from repro.retry import RetryPolicy
    from repro.transport import FaultSchedule, FaultyTransport, LocalTransport

    clean = run_session_sweep_point(workers, sessions, rate, length_seconds)

    schedule = FaultSchedule(seed=FAULT_SEED, **FAULT_KNOBS)
    endpoints = [FaultyTransport(LocalTransport(), schedule) for _ in range(workers)]
    policy = RetryPolicy(attempts=4, timeout=FAULT_CALL_TIMEOUT, base_delay=0.05)
    faulty = run_session_sweep_point(
        workers,
        sessions,
        rate,
        length_seconds,
        endpoints=endpoints,
        checkpoint={"every_events": 8},
        call_policy=policy,
    )
    assert faulty["verdict_sets"] == clean["verdict_sets"], (
        "the lossy link changed the verdicts"
    )
    stats = {"sent": 0, "dropped": 0, "duplicated": 0}
    for endpoint in endpoints:
        for key in stats:
            stats[key] += endpoint.stats()[key]
    return {
        "schedule": schedule.describe(),
        "clean": clean,
        "faulty": faulty,
        "fault_stats": stats,
        "slowdown": clean["events_per_second"] / faulty["events_per_second"]
        if faulty["events_per_second"]
        else float("inf"),
    }


def run_skew_comparison(
    workers: int, length_seconds: float, endpoints: list[str] | None = None
) -> dict:
    """The --skew claim: rebalancing changes the schedule, never the verdicts."""
    frozen = run_skewed_point(workers, length_seconds, endpoints=endpoints)
    rebalanced = run_skewed_point(
        workers,
        length_seconds,
        endpoints=endpoints,
        rebalance="periodic",
        force_migration=True,
    )
    assert rebalanced["verdict_sets"] == frozen["verdict_sets"], (
        "rebalancing changed the verdicts"
    )
    assert rebalanced["migrations"] >= 1, "no migration ever happened"
    return {"frozen": frozen, "rebalanced": rebalanced}


def _batch(seed_base: int) -> list[DistributedComputation]:
    """A small batch of tiny computations (fork cost must dominate)."""
    comps = []
    for seed in range(BATCH_SIZE):
        rng = random.Random(seed_base * 100 + seed)
        comp = DistributedComputation(EPSILON)
        clocks = {"P1": 0, "P2": 1}
        for _ in range(6):
            process = rng.choice(("P1", "P2"))
            clocks[process] += rng.randrange(1, 4)
            props = tuple(p for p in ("a", "b") if rng.random() < 0.5)
            comp.add_event(process, clocks[process], props)
        comps.append(comp)
    return comps


def run_pool_comparison(
    workers: int, rounds: int = BATCH_ROUNDS, endpoints: list[str] | None = None
) -> dict:
    """Time ``rounds`` small batches: persistent pool vs fresh pool per call.

    With ``endpoints`` the fresh path re-opens the endpoint connections
    per batch (reconnect tax) instead of re-forking processes.
    """
    spec = parse("F[0,8) b")
    batches = [_batch(index) for index in range(rounds)]
    pool = {"endpoints": endpoints} if endpoints else {"workers": workers}

    started = time.perf_counter()
    with MonitorService(formula=spec, saturate=False, **pool) as service:
        persistent_reports = [service.map(batch) for batch in batches]
    persistent_wall = time.perf_counter() - started

    started = time.perf_counter()
    fresh_reports = []
    for batch in batches:
        with MonitorService(formula=spec, saturate=False, **pool) as service:
            fresh_reports.append(service.map(batch))
    fresh_wall = time.perf_counter() - started

    persistent_totals = [r.verdict_totals for r in persistent_reports]
    fresh_totals = [r.verdict_totals for r in fresh_reports]
    assert persistent_totals == fresh_totals, "pool reuse changed the verdicts"
    assert not any(r.errors for r in persistent_reports + fresh_reports)
    return {
        "workers": workers,
        "rounds": rounds,
        "persistent_wall": persistent_wall,
        "fresh_wall": fresh_wall,
        "speedup": fresh_wall / persistent_wall if persistent_wall else float("inf"),
    }


# -- pytest-benchmark lane ----------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("sessions", [8, 32])
def bench_service_sessions(benchmark, sessions: int) -> None:
    point = benchmark.pedantic(
        run_session_sweep_point, args=(2, sessions, 10.0, 0.6), rounds=1, iterations=1
    )
    assert point["events"] > 0
    assert point["verdict_sets"]
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["events_per_second"] = round(point["events_per_second"], 1)


@pytest.mark.slow
def bench_persistent_vs_fresh_pool(benchmark) -> None:
    comparison = benchmark.pedantic(
        run_pool_comparison, args=(2,), kwargs={"rounds": 3}, rounds=1, iterations=1
    )
    benchmark.extra_info["speedup"] = round(comparison["speedup"], 2)


# -- standalone entry point ---------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload (CI: exercises pool startup/shutdown quickly)",
    )
    parser.add_argument(
        "--skew", action="store_true",
        help="skewed-feed workload (1 hot stream @ 10x vs 15 cold) with live "
        "rebalancing on vs off; asserts bit-identical verdicts",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="rerun the sweep point behind a seeded lossy-link fault "
        "schedule and report the throughput degradation; asserts "
        "bit-identical verdicts (the graceful-degradation number)",
    )
    parser.add_argument("--workers", type=int, default=None, help="pool size")
    parser.add_argument(
        "--checkpoint", type=int, default=None, metavar="N",
        help="open every sweep session with checkpointing every N flushed "
        "events — the sweep then prices the durability tax",
    )
    parser.add_argument(
        "--endpoint", action="append", default=None, metavar="SPEC",
        help="worker endpoint ('tcp://host:port' or 'local'); repeatable — "
        "replaces the local pool for the session sweep",
    )
    args = parser.parse_args()

    cores = os.cpu_count() or 1
    workers = len(args.endpoint) if args.endpoint else (args.workers or min(4, cores))
    grid = SMOKE_GRID if args.smoke else SWEEP_GRID
    length = 0.6 if args.smoke else 2.0
    rounds = 3 if args.smoke else BATCH_ROUNDS

    pool_text = ", ".join(args.endpoint) if args.endpoint else f"{workers} local"
    print(f"cpu cores: {cores}, workers: {pool_text}")

    if args.faults:
        sessions, rate = (SMOKE_GRID if args.smoke else SWEEP_GRID)[0]
        print(f"\nlossy-link degradation ({sessions} sessions @ {rate:.0f} ev/s):")
        comparison = run_faults_comparison(workers, sessions, rate, length)
        print(f"  schedule: {comparison['schedule']}")
        for label in ("clean", "faulty"):
            point = comparison[label]
            print(
                f"  {label:>7}: {point['events']:>6} events  "
                f"wall {point['wall']:.3f}s  "
                f"{point['events_per_second']:>7.0f} ev/s"
            )
        stats = comparison["fault_stats"]
        print(
            f"  link: {stats['sent']} frames sent, {stats['dropped']} dropped, "
            f"{stats['duplicated']} duplicated"
        )
        print(
            f"  repair: {comparison['faulty']['probes']} status probes, "
            f"{comparison['faulty']['recoveries']} restore-and-replay recoveries"
        )
        print(f"  slowdown under faults: {comparison['slowdown']:.2f}x")
        print("  verdicts bit-identical under faults: ok (asserted)")
        return 0

    if args.skew:
        print(
            f"\nskewed feed (1 hot @ {SKEW_HOT_MULTIPLIER}x + {SKEW_COLD_STREAMS} "
            f"cold, rebalancing off vs on):"
        )
        comparison = run_skew_comparison(workers, length, endpoints=args.endpoint)
        for label in ("frozen", "rebalanced"):
            point = comparison[label]
            print(
                f"  {label:>10}: {point['events']:>6} events  "
                f"wall {point['wall']:.3f}s  {point['events_per_second']:>7.0f} ev/s  "
                f"{point['migrations']} migration(s)"
            )
        print("  verdicts bit-identical with rebalancing: ok (asserted)")
        return 0

    checkpoint = {"every_events": args.checkpoint} if args.checkpoint else None
    durability = (
        f", checkpoint every {args.checkpoint} events" if args.checkpoint else ""
    )
    print(
        f"\nsession sweep (~{EVENTS_PER_ADVANCE:.0f} events per advance, "
        f"epsilon {EPSILON} ms{durability}):"
    )
    print(
        f"{'sessions':>9} {'rate(ev/s)':>11} {'events':>8} {'wall(s)':>9} "
        f"{'ev/s':>9} {'ckpts':>6}"
    )
    for sessions, rate in grid:
        point = run_session_sweep_point(
            workers, sessions, rate, length,
            endpoints=args.endpoint, checkpoint=checkpoint,
        )
        print(
            f"{point['sessions']:>9} {point['rate']:>11.0f} {point['events']:>8} "
            f"{point['wall']:>9.3f} {point['events_per_second']:>9.0f} "
            f"{point['checkpoints']:>6}"
        )

    print(f"\npersistent vs fresh pool ({rounds} batches of {BATCH_SIZE} items):")
    comparison = run_pool_comparison(workers, rounds=rounds, endpoints=args.endpoint)
    print(
        f"  persistent {comparison['persistent_wall']:.3f}s | "
        f"fresh {comparison['fresh_wall']:.3f}s | "
        f"speedup {comparison['speedup']:.2f}x"
    )
    # Wall-clock assertions only hold on dedicated multi-core hardware;
    # shared CI runners (CI=true) and small containers get the numbers
    # without the hard gate.
    # (With explicit endpoints the fresh path pays a reconnect, not a
    # fork — much cheaper, so the win is reported but not asserted.)
    if cores >= 4 and not os.environ.get("CI") and not args.endpoint:
        assert comparison["speedup"] > 1.0, (
            "persistent pool should beat fresh-pool-per-call on repeated "
            f"small batches, measured {comparison['speedup']:.2f}x"
        )
        print("  persistent pool beats fresh pools: ok (asserted)")
    else:
        print(
            f"  (not asserted: {cores} core(s), CI={bool(os.environ.get('CI'))}, "
            f"endpoints={bool(args.endpoint)})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
