"""``run.py --selftest``: does the harness measure what it says?

Under a minute; prints one line per check and a JSON summary marked
non-comparable (its numbers come from samples of the workloads).
"""

from __future__ import annotations

import dataclasses
import json
import time

from repro.service import MonitorService

import batch
import compare
import sessions
import stats
import workloads
from spans import Tracer, nesting_errors

SEED = 0
#: Items of each batch workload the self-test runs.
BATCH_SAMPLE = 30
RESIDUE_LIMIT = 0.15


def check_batch(name: str) -> list[str]:
    """The staged replay reproduces ``SmtMonitor.run`` and accounts for
    its time; its spans nest."""
    full = workloads.batch_workload(name, SEED)
    workload = dataclasses.replace(full, items=full.items[:BATCH_SAMPLE], warmup=full.items[:3])
    monitors = batch.warm_up(workload)
    run = batch.measure(workload, monitors, seconds=0.0, min_samples=3 * BATCH_SAMPLE)
    plain = batch.replay(workload, Tracer(False))
    tracer = Tracer(True)
    staged = batch.replay(workload, tracer)
    problems = []
    if any(verdicts != staged.verdicts for verdicts in run.verdicts):
        problems.append(f"{name}: replayed verdicts differ from SmtMonitor.run")
    if {*run.traces, plain.traces, staged.traces} != {staged.traces}:
        problems.append(f"{name}: trace counts differ between passes")
    layers = batch.layer_metrics(run, plain, staged, tracer)
    if abs(layers["monitor.residue_share"]) > RESIDUE_LIMIT:
        problems.append(f"{name}: residue share {layers['monitor.residue_share']:.3f}")
    problems += [f"{name}: {error}" for error in nesting_errors(tracer.spans)]
    return problems


def check_brute_force() -> list[str]:
    checked, wrong = batch.brute_force_mismatches(SEED)
    return [f"brute force: {wrong} of {checked} small computations differ"] if wrong else []


def check_sessions() -> list[str]:
    """A clean two-session service run agrees with the layer replay."""
    ops = [op for op in workloads.session_lossy_ops(SEED) if op.stream[0] < 2]
    tracer = Tracer(True)
    with MonitorService(workers=1) as service:
        driver = sessions.Driver(service, tracer, checkpoint=workloads.LOSSY_CHECKPOINT)
        run = sessions.run_closed_loop(driver, ops, service.worker_pids())
    layers = sessions.replay_layers(ops, workloads.LOSSY_CHECKPOINT["every_events"], tracer)
    problems = []
    if run.failed or sessions.check_verdicts(run, layers.verdicts):
        problems.append("sessions: service verdicts differ from the in-process replay")
    if run.checkpoints != layers.snapshots:
        problems.append(
            f"sessions: {run.checkpoints} checkpoints applied, replay framed {layers.snapshots}"
        )
    problems += [f"sessions: {error}" for error in nesting_errors(tracer.spans)]
    return problems


class _StallingDriver:
    """Stands in for ``sessions.Driver``: every call takes ``stall_s[i]``."""

    def __init__(self, stall_s) -> None:
        self.tracer = Tracer(False)
        self._stalls = iter(stall_s)

    def execute(self, op, run) -> float:
        time.sleep(next(self._stalls))
        return time.perf_counter()


def check_open_loop_lateness() -> list[str]:
    """Four advances due 10 ms apart; the first stalls 35 ms.  Later
    calls start late and their latency still runs from their due time."""
    ops = [workloads.Op(due, "advance", (0, 0), due) for due in (0, 10, 20, 30)]
    run = sessions.run_open_loop(_StallingDriver([0.035, 0.0, 0.0, 0.0]), ops, 1.0, [])
    want_late = (0.0, 0.025, 0.015, 0.005)
    want_latency = (0.035, 0.025, 0.015, 0.005)
    problems = []
    for index in range(4):
        if not want_late[index] - 0.001 <= run.late_s[index] <= want_late[index] + 0.004:
            problems.append(f"open loop: call {index} late by {run.late_s[index]:.4f} s")
        if not want_latency[index] - 0.001 <= run.latencies_s[index] <= want_latency[index] + 0.004:
            problems.append(f"open loop: call {index} latency {run.latencies_s[index]:.4f} s")
    return problems


def check_percentile() -> list[str]:
    problems = []
    try:
        stats.percentile(range(199), 95)
        problems.append("percentile: p95 of 199 samples was not refused")
    except ValueError:
        pass
    if stats.percentile(range(200), 95) != 189:
        problems.append("percentile: p95 of 0..199 is not 189")
    if stats.percentile(range(20), 50) != 9:
        problems.append("percentile: p50 of 0..19 is not 9")
    return problems


def check_nesting_detector() -> list[str]:
    spans = [
        {"name": "outer", "start": 0.0, "end": 1.0, "parent": None, "request": 0},
        {"name": "inner", "start": 0.5, "end": 1.5, "parent": 0, "request": 0},
    ]
    return [] if nesting_errors(spans) else ["nesting: an escaping child span was not reported"]


def check_compare() -> list[str]:
    """A wide spread is unresolved, not a pass; a slow-down is caught."""
    problems = []
    if compare.verdict([100, 101, 99], [100, 100, 101], "higher", 0.1)[0] != "ok":
        problems.append("compare: equal medians are not ok")
    if compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.1)[0] != "regression":
        problems.append("compare: a 20 % drop is not a regression")
    if compare.verdict([100, 150, 60], [100, 100, 101], "higher", 0.1)[0] != "unresolved":
        problems.append("compare: a spread wider than the bound is not unresolved")
    if compare.refusal({"schema": 1, "seed": 0, "seconds": 12}, {"schema": 1, "seed": 1, "seconds": 12}) is None:
        problems.append("compare: different seeds were not refused")
    return problems


def main() -> int:
    started = time.perf_counter()
    checks = {
        "replay == SmtMonitor.run, residue, span nesting (carried_fischer)": lambda: check_batch(
            "carried_fischer"
        ),
        "replay == SmtMonitor.run, residue, span nesting (chain_logs)": lambda: check_batch(
            "chain_logs"
        ),
        "SmtMonitor == brute-force semantics on small computations": check_brute_force,
        "service verdicts == in-process replay (clean sessions)": check_sessions,
        "open-loop lateness on a stalled callee": check_open_loop_lateness,
        "percentile refuses thin tails": check_percentile,
        "span nesting detector": check_nesting_detector,
        "compare verdicts and refusals": check_compare,
    }
    failures = []
    for title, check in checks.items():
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '} {title}")
        for problem in problems:
            print(f"     {problem}")
        failures += problems
    summary = {
        "selftest": not failures,
        "comparable": False,
        "seconds": time.perf_counter() - started,
        "failures": failures,
    }
    print(json.dumps(summary))
    return 1 if failures else 0
