#!/usr/bin/env python3
"""The performance ledger: four workloads, end to end and layer by layer.

Driver form (one workload, one pass, one JSON line last on stdout)::

    python3 benchmarks/ledger/run.py --workload chain_logs --seed 0 --seconds 12 --trace 0

Ledger form (every workload, untraced then traced, every metric by name)::

    python3 benchmarks/ledger/run.py --seed 0 [--runs 3] [--out A.json]
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --selftest

The script puts the checkout's ``src/`` on the path and pins
``PYTHONHASHSEED=0`` itself (set iteration order decides which traces a
truncated enumeration keeps, so counts only repeat under a fixed hash
seed).  README.md in this directory is the glossary.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))

#: Set-up is timed from here, so it includes the imports below.
PROCESS_START = time.perf_counter()

import argparse
import json
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.retry import RetryPolicy
from repro.service import MonitorService
from repro.service.durability import DEFAULT_EVERY_EVENTS
from repro.transport import FaultSchedule, FaultyTransport, LocalTransport
from repro.transport.agent import spawn_agent

import batch
import compare
import selftest
import sessions
import stats
import workloads
from spans import Tracer

MANIFEST = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
SCHEMA = 1
#: Cold set-ups timed per run (this process plus fresh child processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


# -- set-up -------------------------------------------------------------------------


class Prepared:
    """A workload after set-up: inputs generated, processes started,
    caches warm.  ``close`` stops everything set-up started."""

    def __init__(self) -> None:
        self.closers: list = []

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def prepare_batch(prepared: Prepared, name: str, seed: int) -> None:
    prepared.workload = workloads.batch_workload(name, seed)
    prepared.monitors = batch.warm_up(prepared.workload)


def _stop_agent(popen) -> None:
    popen.terminate()
    try:
        popen.wait(timeout=15)
    except subprocess.TimeoutExpired:
        popen.kill()
        popen.wait(timeout=15)
    popen.stdout.close()


def prepare_session_open(prepared: Prepared, seed: int, seconds: float) -> None:
    generations = workloads.open_generations(seconds)
    warm_ops = workloads.session_open_ops(seed, 0, workloads.OPEN_WARMUP_GENERATIONS)
    prepared.ops = workloads.session_open_ops(
        seed, workloads.OPEN_WARMUP_GENERATIONS, generations
    )
    popen, host, port = spawn_agent()
    prepared.closers.append(lambda: _stop_agent(popen))
    prepared.service = MonitorService(endpoints=[f"tcp://{host}:{port}"])
    prepared.closers.append(prepared.service.close)
    prepared.pids = [popen.pid]
    prepared.open_kwargs = {"checkpoint": True}
    driver = sessions.Driver(prepared.service, Tracer(False), **prepared.open_kwargs)
    prepared.warm = sessions.run_closed_loop(driver, warm_ops, prepared.pids)


def _lossy_driver(tracer, faulty: bool):
    endpoints = [LocalTransport() for _ in range(workloads.LOSSY_ENDPOINTS)]
    if faulty:
        schedule = FaultSchedule(seed=workloads.LOSSY_FAULT_SEED, **workloads.LOSSY_FAULTS)
        endpoints = [FaultyTransport(endpoint, schedule) for endpoint in endpoints]
    service = MonitorService(endpoints=endpoints)
    driver = sessions.Driver(
        service,
        tracer,
        checkpoint=workloads.LOSSY_CHECKPOINT,
        call_policy=RetryPolicy(**workloads.LOSSY_RETRY),
    )
    return service, endpoints, driver


def prepare_session_lossy(prepared: Prepared, seed: int) -> None:
    """The clean twin runs here: same streams, same policy, no faults.
    It warms the client and supplies the clean-link numbers the lossy
    run is compared with."""
    prepared.ops = workloads.session_lossy_ops(seed)
    service, _, driver = _lossy_driver(Tracer(False), faulty=False)
    try:
        prepared.clean = sessions.run_closed_loop(driver, prepared.ops, service.worker_pids())
    finally:
        service.close()


def prepare(name: str, seed: int, seconds: float) -> Prepared:
    prepared = Prepared()
    try:
        if name == "session_open":
            prepare_session_open(prepared, seed, seconds)
        elif name == "session_lossy":
            prepare_session_lossy(prepared, seed)
        else:
            prepare_batch(prepared, name, seed)
    except BaseException:
        prepared.close()
        raise
    return prepared


def probe_setup(name: str, seed: int, seconds: float) -> float:
    """One cold set-up in a fresh interpreter; returns its seconds."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


# -- one workload -------------------------------------------------------------------


def _end_to_end(setup_s, events, wall_s, cpu_s, latencies_s, pids) -> dict:
    return {
        "setup_s": setup_s,
        "events_per_s": events / wall_s,
        "verdict_latency_p50_ms": 1e3 * stats.percentile(latencies_s, 50),
        "verdict_latency_p90_ms": 1e3 * stats.percentile(latencies_s, 90),
        "cpu_ms_per_event": 1e3 * cpu_s / events,
        "peak_rss_mb": stats.peak_rss_mb([os.getpid(), *pids]),
    }


def run_batch(name, seed, seconds, traced, prepared, setup_s) -> dict:
    workload = prepared.workload
    run = batch.measure(workload, prepared.monitors, seconds)
    plain = batch.replay(workload, Tracer(False))
    checked, brute_wrong = batch.brute_force_mismatches(seed)
    wrong = sum(
        got != want
        for verdicts in run.verdicts
        for got, want in zip(verdicts, plain.verdicts)
    )
    outcome = {
        "attempted": run.passes * len(workload.items) + checked,
        "failed": wrong + brute_wrong,  # a run that raised left None: counted in wrong
        "end_to_end": _end_to_end(setup_s, run.events, run.wall_s, run.cpu_s, run.latencies_s, []),
        "info": {
            "passes": run.passes,
            "computations": len(workload.items),
            "latency_samples": len(run.latencies_s),
            "events": run.events,
            "brute_force_checked": checked,
        },
    }
    if traced:
        tracer = Tracer(True)
        staged = batch.replay(workload, tracer)
        # Counts repeat exactly: every measured pass, the plain replay and
        # the traced replay enumerate the same traces and agree on verdicts.
        unequal = len({*run.traces, plain.traces, staged.traces}) != 1
        unequal += staged.verdicts != plain.verdicts
        unequal += (staged.residual_steps, staged.peak_distinct) != (
            plain.residual_steps,
            plain.peak_distinct,
        )
        outcome["attempted"] += 1
        outcome["failed"] += bool(unequal)
        outcome["per_layer"] = batch.layer_metrics(run, plain, staged, tracer)
        tracer.write(str(OUT_DIR / f"trace-{name}.json"))
    return outcome


def run_session_open(seed, seconds, traced, prepared, setup_s) -> dict:
    ops = prepared.ops
    compression = workloads.open_compression(ops)
    driver = sessions.Driver(prepared.service, Tracer(False), **prepared.open_kwargs)
    run = sessions.run_open_loop(driver, ops, compression, prepared.pids)
    tracer = Tracer(traced)
    layers = sessions.replay_layers(ops, DEFAULT_EVERY_EVENTS, tracer)
    wrong = sessions.check_verdicts(run, layers.verdicts)
    sustainable = run.events / run.wall_s >= 0.98 * workloads.OPEN_OFFERED_RATE
    outcome = {
        "attempted": run.attempted + len(layers.verdicts),
        "failed": run.failed + wrong + (not sustainable),
        "end_to_end": _end_to_end(
            setup_s, run.events, run.wall_s, run.cpu_s, run.latencies_s, prepared.pids
        ),
        "info": {
            "sessions": len(layers.verdicts),
            "latency_samples": len(run.latencies_s),
            "events": run.events,
            "offered_events_per_s": workloads.OPEN_OFFERED_RATE,
            "sustainable": sustainable,
            "lost_sessions": len(run.lost),
        },
    }
    if traced:
        probes = sessions.idle_probes(prepared.service)
        driver = sessions.Driver(prepared.service, tracer, **prepared.open_kwargs)
        again = sessions.run_open_loop(driver, ops, compression, prepared.pids)
        unequal = (again.events, again.verdicts) != (run.events, run.verdicts)
        outcome["attempted"] += 1
        outcome["failed"] += again.failed + bool(unequal)
        warm = prepared.warm
        outcome["per_layer"] = {
            **sessions.layer_metrics(again, layers, tracer),
            **probes,
            "service.closed_loop_events_per_s": warm.events / warm.wall_s,
            "service.generator_late_p99_ms": 1e3 * stats.percentile(again.late_s, 99),
            "service.verdict_latency_p95_ms": 1e3 * stats.percentile(run.latencies_s, 95),
            "service.verdict_latency_p99_ms": 1e3 * stats.percentile(run.latencies_s, 99),
            "ledger.trace_overhead_share": (again.service_s - run.service_s) / run.service_s,
        }
        tracer.write(str(OUT_DIR / "trace-session_open.json"))
    return outcome


def _lossy_pass(ops, tracer):
    service, endpoints, driver = _lossy_driver(tracer, faulty=True)
    try:
        pids = service.worker_pids()
        run = sessions.run_closed_loop(driver, ops, pids, sessions.LOSSY_DEADLINE_S)
        rss = stats.peak_rss_mb(pids)
    finally:
        service.close()
    link = {"sent": 0, "dropped": 0}
    for endpoint in endpoints:
        for key in link:
            link[key] += endpoint.stats()[key]
    return run, link, rss


def run_session_lossy(seed, traced, prepared, setup_s) -> dict:
    ops = prepared.ops
    clean = prepared.clean
    run, link, rss = _lossy_pass(ops, Tracer(False))
    tracer = Tracer(traced)
    layers = sessions.replay_layers(ops, workloads.LOSSY_CHECKPOINT["every_events"], tracer)
    wrong = sessions.check_verdicts(run, layers.verdicts) + sessions.check_verdicts(
        clean, layers.verdicts
    )
    end_to_end = _end_to_end(setup_s, run.events, run.wall_s, run.cpu_s, run.latencies_s, [])
    end_to_end["peak_rss_mb"] = max(end_to_end["peak_rss_mb"], rss)
    outcome = {
        "attempted": run.attempted + 2 * len(layers.verdicts),
        "failed": run.failed + clean.failed + wrong + run.overran,
        "end_to_end": end_to_end,
        "info": {
            "sessions": len(layers.verdicts),
            "latency_samples": len(run.latencies_s),
            "events": run.events,
            "frames_sent": link["sent"],
            "frames_dropped": link["dropped"],
            "lost_sessions": len(run.lost),
            "deadline_overrun": run.overran,
        },
    }
    if traced:
        again, link_again, _ = _lossy_pass(ops, tracer)
        # The schedule is a pure function of (seed, lane, frame index):
        # the same calls must lose the same frames.
        unequal = (again.events, again.verdicts, link_again["dropped"]) != (
            run.events,
            run.verdicts,
            link["dropped"],
        )
        outcome["attempted"] += 1
        outcome["failed"] += again.failed + again.overran + bool(unequal)
        clean_call = statistics.median(clean.call_s["advance"])
        calls = [t for times in again.call_s.values() for t in times]
        stalls = [t for t in calls if t > 100 * clean_call]
        outcome["per_layer"] = {
            **sessions.layer_metrics(again, layers, tracer),
            "faults.frames_sent": link_again["sent"],
            "faults.frames_dropped": link_again["dropped"],
            "retry.stalled_calls": len(stalls),
            "retry.stall_wait_s": sum(stalls),
            "retry.slowdown_x": (clean.events / clean.wall_s) / (again.events / again.wall_s),
            "service.closed_loop_events_per_s": clean.events / clean.wall_s,
            "ledger.trace_overhead_share": (again.wall_s - run.wall_s) / run.wall_s,
        }
        tracer.write(str(OUT_DIR / "trace-session_lossy.json"))
    return outcome


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up (timed, with cold repeats in child processes), measure,
    check, tear down.  Returns end-to-end metrics, per-layer metrics
    when ``traced``, and the attempted/failed operation counts."""
    prepared = prepare(name, seed, seconds)
    try:
        setups = [time.perf_counter() - PROCESS_START]
        setups += [probe_setup(name, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(setups)
        if name == "session_open":
            outcome = run_session_open(seed, seconds, traced, prepared, setup_s)
        elif name == "session_lossy":
            outcome = run_session_lossy(seed, traced, prepared, setup_s)
        else:
            outcome = run_batch(name, seed, seconds, traced, prepared, setup_s)
    finally:
        prepared.close()
    outcome["info"]["setup_samples_s"] = setups
    outcome["failed"] = int(outcome["failed"])
    outcome["correct"] = outcome["failed"] == 0
    return outcome


# -- output -------------------------------------------------------------------------


def _with_units(values: dict, specs: list[dict]) -> dict:
    """Every manifest metric, in manifest order, with its unit; a layer
    the workload bypasses reports 0."""
    return {
        spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in specs
    }


def driver_main(args) -> int:
    manifest = load_manifest()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = _with_units(outcome["per_layer"], manifest["per_layer"])
    else:
        metrics = _with_units(outcome["end_to_end"], manifest["end_to_end"])
    for key, value in outcome["info"].items():
        print(f"# {key}: {value}")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome["correct"] else 1


def workload_child(name: str, seed: int, seconds: float) -> dict:
    """One workload, untraced then traced, in a fresh interpreter (so
    each starts cold and its set-up time means the same as the driver's)."""
    argv = [sys.executable, str(HERE / "run.py"), "--ledger-child", "--workload", name]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"workload {name} died with exit code {done.returncode}") from None


def ledger_main(args) -> int:
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]
    runs = []
    for number in range(args.runs):
        results = {}
        for name in names:
            print(f"== run {number + 1}/{args.runs}: {name}", flush=True)
            outcome = results[name] = workload_child(name, args.seed, args.seconds)
            outcome["end_to_end"]["failed_share"] = outcome["failed"] / outcome["attempted"]
            for spec in manifest["end_to_end"] + [{"name": "failed_share", "unit": "share"}]:
                value = outcome["end_to_end"][spec["name"]]
                print(f"  {spec['name']:<34} {value:>14.4f} {spec['unit']}")
            for key, value in outcome["info"].items():
                print(f"  # {key}: {value}")
            for spec in manifest["per_layer"]:
                value = outcome["per_layer"].get(spec["name"])
                if value is not None:
                    print(f"  {spec['name']:<38} {value:>16.6g} {spec['unit']}")
        runs.append(results)
    correct = all(outcome["correct"] for results in runs for outcome in results.values())
    summary = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "comparable": True,
        "correct": correct,
        "runs": runs,
        "claim": None,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
    brief = dict(summary, runs=len(runs))
    print(json.dumps(brief))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="ledger form: repeat every workload")
    parser.add_argument("--out", help="ledger form: write the full result here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ledger-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], load_manifest())
    if args.selftest:
        return selftest.main()
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    if args.setup_probe:
        prepared = prepare(args.workload, args.seed, args.seconds)
        setup_s = time.perf_counter() - PROCESS_START
        prepared.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.ledger_child:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, True)))
        return 0
    if args.workload:
        return driver_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
