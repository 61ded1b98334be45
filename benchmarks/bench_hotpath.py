"""Hot-path perf-regression harness (the monitor's enumerate→progress→carry loop).

Each metric times one layer of the hot path:

* ``carried_serial`` — the carried-residual-heavy reference workload: a
  fischer computation whose phi4 instantiation fans out into thousands of
  distinct carried residuals across six segments, run through the plain
  serial :class:`~repro.monitor.smt_monitor.SmtMonitor`.  This is the
  workload the formula-interning work is measured on.
* ``carried_columnar`` — the same workload under the object walk and the
  columnar kernel in one process, verdicts asserted bit-identical; the
  in-run speedup is gated.
* ``observe_wire`` — encode+decode of ``session_observe`` batches through
  the transport frame codec (the per-event session hot path), plus a
  ``session_service`` end-to-end feed through a one-worker
  :class:`~repro.service.MonitorService` session asserted bit-identical
  to the in-process :class:`~repro.monitor.online.OnlineMonitor`.
* ``preempt_latency`` — cancel a running ``SmtMonitor.run`` via its
  :class:`~repro.progression.budget.Budget` and time cancel-to-unwind
  (the one-checkpoint-interval promise, as a smoke number): the median
  of five draws, since one draw lands anywhere inside a checkpoint
  interval.

Regression guard: ``--baseline`` writes ``BENCH_hotpath.json``;
``--check BENCH_hotpath.json`` re-runs the suite and fails when any
metric regresses beyond ``--tolerance`` (default 25%) against the
committed numbers.  Times are normalised by a fixed pure-Python
machine-score probe so the committed baseline transfers across hosts of
different speeds; the band absorbs the residual noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke --baseline
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke --check BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workload import WorkloadSpec, formula_for, generate_workload
from repro.monitor.online import OnlineMonitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.service import MonitorService
from repro.transport.frames import Request, decode_frame, encode_frame

SCHEMA = 2

#: The ``carried_columnar`` metric must show the columnar kernel at least
#: this much faster than the object path *measured in the same run* — a
#: relative gate, so it holds on any host speed.
MIN_COLUMNAR_SPEEDUP = 1.3

#: The carried-residual-heavy reference workload (full / smoke budgets).
WORKLOAD = WorkloadSpec(
    model="fischer", processes=3, length_seconds=2.0, events_per_second=10.0, epsilon_ms=15
)
PHI = "phi4"
WINDOW_MS = 400
SEGMENTS = 6
TRACE_BUDGET = {"full": 100, "smoke": 60}
WIRE_BATCHES = {"full": 400, "smoke": 120}
WIRE_BATCH_EVENTS = 256
SESSION_EVENTS = {"full": 1200, "smoke": 400}


def machine_score() -> float:
    """Seconds for a fixed pure-Python workload (host-speed normaliser)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        x = 0
        for i in range(1_500_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - started)
    return best


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


# -- metrics -----------------------------------------------------------------------


def bench_carried(mode: str) -> dict:
    computation = generate_workload(WORKLOAD)
    formula = formula_for(PHI, WORKLOAD.processes, window_ms=WINDOW_MS)
    engine = SmtMonitor(
        formula,
        segments=SEGMENTS,
        saturate=False,
        max_traces_per_segment=TRACE_BUDGET[mode],
    )
    seconds, result = _timed(lambda: engine.run(computation))
    peak = max(r.distinct_residuals for r in result.segment_reports)
    return {
        "seconds": seconds,
        "verdict_counts": {str(k): v for k, v in sorted(result.verdict_counts.items())},
        "peak_distinct_residuals": peak,
    }


def bench_carried_columnar(mode: str) -> dict:
    """The carried workload under both progression engines, same process.

    Times the legacy object walk (``REPRO_COLUMNAR=0``) and the columnar
    kernel on the identical computation/formula, asserts bit-identical
    verdict multisets, and reports the in-run speedup.  ``seconds`` is
    the columnar time (so the absolute baseline tracks the shipping
    path); the relative gate in ``check_against`` uses ``speedup``.
    """
    computation = generate_workload(WORKLOAD)
    formula = formula_for(PHI, WORKLOAD.processes, window_ms=WINDOW_MS)

    def run_once() -> tuple[float, dict]:
        engine = SmtMonitor(
            formula,
            segments=SEGMENTS,
            saturate=False,
            max_traces_per_segment=TRACE_BUDGET[mode],
        )
        seconds, result = _timed(lambda: engine.run(computation))
        return seconds, {str(k): v for k, v in sorted(result.verdict_counts.items())}

    previous = os.environ.get("REPRO_COLUMNAR")
    try:
        os.environ["REPRO_COLUMNAR"] = "0"
        object_seconds, object_counts = run_once()
        os.environ["REPRO_COLUMNAR"] = "1"
        columnar_seconds, columnar_counts = run_once()
    finally:
        if previous is None:
            os.environ.pop("REPRO_COLUMNAR", None)
        else:
            os.environ["REPRO_COLUMNAR"] = previous
    if columnar_counts != object_counts:
        raise SystemExit(
            f"columnar verdicts {columnar_counts} diverge from object path "
            f"{object_counts}"
        )
    return {
        "seconds": columnar_seconds,
        "object_seconds": object_seconds,
        "speedup": object_seconds / columnar_seconds,
        "verdict_counts": columnar_counts,
    }


def _wire_events(count: int, base: int = 0) -> list:
    events = []
    for i in range(count):
        props = frozenset(("alpha.request", "alpha.grant") if i % 3 else ("alpha.request",))
        deltas = {"paid": float(i % 7)} if i % 5 == 0 else None
        events.append((f"proc{i % 8}", base + i, props, deltas))
    return events


def bench_observe_wire(mode: str) -> dict:
    batches = WIRE_BATCHES[mode]
    events = _wire_events(WIRE_BATCH_EVENTS)
    started = time.perf_counter()
    for i in range(batches):
        frame = encode_frame(Request(i, "session_observe", (7, events)))
        request = decode_frame(frame)
    seconds = time.perf_counter() - started
    assert request.payload[1] == events
    total = batches * WIRE_BATCH_EVENTS
    return {
        "seconds": seconds,
        "events": total,
        "events_per_second": total / seconds,
        "frame_bytes": len(frame),
    }


def _session_feed(feed) -> None:
    """Feed the synthetic session stream into an observe/advance surface."""
    count = feed.events
    for i in range(count):
        props = ("req",) if i % 4 else ("ack",)
        feed.monitor.observe(f"p{i % 3}", i, props)
        if i and i % 4 == 0:
            # ~4 events per closed segment: enumeration is exponential in
            # events-per-segment, and this metric measures the wire+session
            # machinery, not trace enumeration.
            feed.monitor.advance_to(i)


class _Feed:
    def __init__(self, monitor, events):
        self.monitor = monitor
        self.events = events


def bench_session_service(mode: str) -> dict:
    from repro.mtl.ast import atom, eventually, implies, always
    from repro.mtl.interval import Interval

    spec = always(implies(atom("req"), eventually(atom("ack"), Interval.bounded(0, 30))))
    count = SESSION_EVENTS[mode]

    reference = OnlineMonitor(spec, epsilon=2)
    _session_feed(_Feed(reference, count))
    expected = reference.finish().verdict_counts

    with MonitorService(workers=1) as service:
        session = service.open_session(spec, epsilon=2)
        seconds, _ = _timed(lambda: _session_feed(_Feed(session, count)))
        result = session.finish()
    if result.verdict_counts != expected:
        raise SystemExit(
            f"service session verdicts {dict(result.verdict_counts)} diverge "
            f"from in-process {dict(expected)}"
        )
    return {"seconds": seconds, "events": count}


def _dense_workload(mode: str):
    """A dense single-segment computation: enumeration-bound and
    exhaustive, so an unbudgeted run outlives a cancel."""
    from repro.distributed.computation import DistributedComputation
    from repro.mtl import parse

    per_process = {"full": 6, "smoke": 5}[mode]
    computation = DistributedComputation.from_event_lists(
        1,
        {
            "P1": [(i, "a" if i % 2 else ()) for i in range(per_process)],
            "P2": [(i, "b" if i % 3 else ()) for i in range(per_process)],
            "P3": [(i, ()) for i in range(per_process)],
        },
    )
    return computation, parse("G[0,40) (a -> F[0,5) b)")


#: Draws behind the ``preempt_latency`` median.
PREEMPT_DRAWS = 5


def bench_preempt_latency(mode: str) -> dict:
    """Median cancel() -> PreemptedError time over ``PREEMPT_DRAWS`` draws."""
    import statistics

    draws = [_preempt_once() for _ in range(PREEMPT_DRAWS)]
    return {"seconds": statistics.median(draws), "draws": draws}


def _preempt_once() -> float:
    """Cancel a running enumeration; time cancel() -> PreemptedError."""
    import threading

    from repro.errors import PreemptedError
    from repro.progression.budget import Budget

    computation, formula = _dense_workload("full")  # big enough to outlive the cancel
    engine = SmtMonitor(formula, saturate=False, max_traces_per_segment=None)
    budget = Budget()
    unwound: dict = {}

    def run() -> None:
        try:
            engine.run(computation, budget=budget)
            unwound["completed"] = True
        except PreemptedError:
            unwound["at"] = time.perf_counter()

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(0.2)  # let the DFS get deep into the segment
    cancelled_at = time.perf_counter()
    budget.cancel("bench preemption smoke")
    thread.join(timeout=60)
    if unwound.get("completed") or "at" not in unwound:
        raise SystemExit(
            "preemption smoke never preempted - enlarge the workload"
        )
    return unwound["at"] - cancelled_at


# -- harness -----------------------------------------------------------------------


def run_suite(mode: str) -> dict:
    print(f"machine-score probe ...", flush=True)
    score = machine_score()
    print(f"  score={score * 1000:.1f} ms")
    metrics: dict = {}
    print("carried_serial ...", flush=True)
    metrics["carried_serial"] = bench_carried(mode)
    print(f"  {metrics['carried_serial']['seconds']:.3f}s "
          f"(peak {metrics['carried_serial']['peak_distinct_residuals']} residuals)")
    print("carried_columnar ...", flush=True)
    metrics["carried_columnar"] = bench_carried_columnar(mode)
    print(f"  {metrics['carried_columnar']['seconds']:.3f}s columnar vs "
          f"{metrics['carried_columnar']['object_seconds']:.3f}s object "
          f"({metrics['carried_columnar']['speedup']:.2f}x, verdicts bit-identical)")
    print("observe_wire ...", flush=True)
    metrics["observe_wire"] = bench_observe_wire(mode)
    print(f"  {metrics['observe_wire']['events_per_second']:,.0f} events/s "
          f"({metrics['observe_wire']['frame_bytes']} B/frame)")
    print("session_service ...", flush=True)
    metrics["session_service"] = bench_session_service(mode)
    print(f"  {metrics['session_service']['seconds']:.3f}s "
          f"({metrics['session_service']['events']} events, verdicts bit-identical)")
    print("preempt_latency ...", flush=True)
    metrics["preempt_latency"] = bench_preempt_latency(mode)
    print(f"  {metrics['preempt_latency']['seconds'] * 1000:.1f} ms cancel-to-unwind "
          f"(median of {PREEMPT_DRAWS})")
    return {
        "schema": SCHEMA,
        "mode": mode,
        "machine_score": score,
        "metrics": metrics,
    }


def check_against(report: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("schema") != SCHEMA:
        print(f"baseline schema {baseline.get('schema')} != {SCHEMA}; re-run --baseline")
        return 2
    if baseline.get("mode") != report["mode"]:
        print(
            f"baseline mode {baseline.get('mode')!r} != current {report['mode']!r}; "
            "compare like with like"
        )
        return 2
    scale = report["machine_score"] / baseline["machine_score"]
    print(f"\nbaseline comparison (host-speed scale {scale:.2f}x, "
          f"tolerance {tolerance:.0%}):")
    failures = 0
    for name, current in report["metrics"].items():
        base = baseline["metrics"].get(name)
        if base is None:
            print(f"  {name:<18} (new metric, no baseline)")
            continue
        allowed = base["seconds"] * scale * (1.0 + tolerance)
        ratio = current["seconds"] / (base["seconds"] * scale)
        verdict = "ok" if current["seconds"] <= allowed else "REGRESSION"
        if verdict != "ok":
            failures += 1
        print(f"  {name:<18} {current['seconds']:.3f}s vs {base['seconds']:.3f}s "
              f"(normalised ratio {ratio:.2f}) {verdict}")
    columnar = report["metrics"].get("carried_columnar")
    if columnar is not None:
        # Relative in-run gate, independent of host speed and baseline:
        # the columnar kernel must stay measurably faster than the object
        # path it replaced on the very same run.
        speedup = columnar["speedup"]
        ok = speedup >= MIN_COLUMNAR_SPEEDUP
        if not ok:
            failures += 1
        print(f"  columnar speedup   {speedup:.2f}x "
              f"(gate >= {MIN_COLUMNAR_SPEEDUP}x) {'ok' if ok else 'REGRESSION'}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small CI-sized budgets")
    parser.add_argument("--baseline", action="store_true",
                        help="write the report to --output as the new baseline")
    parser.add_argument("--check", type=Path, default=None,
                        help="compare against a committed baseline JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalised slowdown before failing (default 0.25)")
    parser.add_argument("--output", type=Path, default=Path("BENCH_hotpath.json"))
    args = parser.parse_args()

    mode = "smoke" if args.smoke else "full"
    report = run_suite(mode)
    if args.baseline:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nbaseline written to {args.output}")
    if args.check is not None:
        return check_against(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
