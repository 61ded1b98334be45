"""The two batch workloads: closed loop of one, in process.

``measure`` times ``SmtMonitor.run`` per computation (the end-to-end
numbers).  ``replay`` drives the same pipeline stage by stage through
the public layer functions, with a span around each stage: it is both
the per-layer attribution and the reference the measured verdicts are
checked against (it shares the stages with ``SmtMonitor`` but none of
its orchestration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.distributed.segmentation import segment_computation
from repro.encoding.enumerator import enumerate_traces
from repro.encoding.trace_extractor import segment_carry
from repro.monitor.baseline import EnumerationMonitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.mtl.ast import ARENA, FALSE_ID, TRUE_ID, formula_of, intern_id
from repro.progression.columnar import ColumnarSegmentProgressor, plan_cache_stats
from repro.progression.progressor import close

from spans import Tracer, self_times
from stats import verdict_key
from workloads import BatchWorkload, oracle_cases

#: Latency samples a run needs: twice what a p90 asks for, so that two
#: whole passes are measured and the tail does not rest on one.
MIN_LATENCY_SAMPLES = 200

STAGES = (
    "distributed.hb",
    "distributed.segment",
    "encoding.enumerate",
    "progression.progress",
    "monitor.merge",
    "monitor.close",
)


@dataclass
class BatchRun:
    """What one measured phase produced."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    events: int = 0
    latencies_s: list[float] = field(default_factory=list)
    pass_walls_s: list[float] = field(default_factory=list)
    #: Per pass, per item: the verdict multiset and the traces enumerated.
    verdicts: list[list[tuple]] = field(default_factory=list)
    traces: list[int] = field(default_factory=list)
    errors: int = 0

    @property
    def passes(self) -> int:
        return len(self.pass_walls_s)


def warm_up(workload: BatchWorkload) -> dict:
    """Build the monitors and run a tenth of the items, so interning,
    the plan cache and lazy imports are filled before timing starts."""
    monitors = {key: config.monitor() for key, config in workload.configs.items()}
    for item in workload.warmup:
        monitors[item.config].run(item.build())
    return monitors


def measure(
    workload: BatchWorkload, monitors: dict, seconds: float, min_samples: int = MIN_LATENCY_SAMPLES
) -> BatchRun:
    """Whole passes over the items until ``seconds`` of run time is spent
    (and enough latency samples are in for the tail percentile).

    Computations are rebuilt before each pass, outside the timed loop,
    so every ``run`` pays for its own happened-before closure.
    """
    run = BatchRun()
    while run.wall_s < seconds or len(run.latencies_s) < min_samples:
        computations = [item.build() for item in workload.items]
        verdicts, traces = [], 0
        cpu_start = time.process_time()
        pass_start = time.perf_counter()
        for item, computation in zip(workload.items, computations):
            started = time.perf_counter()
            try:
                result = monitors[item.config].run(computation)
            except Exception:  # noqa: BLE001 — a failed item is counted, not fatal
                run.errors += 1
                verdicts.append(None)
                continue
            finally:
                run.latencies_s.append(time.perf_counter() - started)
            verdicts.append(verdict_key(result.verdict_counts))
            traces += sum(report.traces_enumerated for report in result.segment_reports)
        pass_wall = time.perf_counter() - pass_start
        run.cpu_s += time.process_time() - cpu_start
        run.wall_s += pass_wall
        run.pass_walls_s.append(pass_wall)
        run.events += sum(len(computation) for computation in computations)
        run.verdicts.append(verdicts)
        run.traces.append(traces)
    return run


@dataclass
class Replay:
    """The staged pipeline's outcome over one pass of the items."""

    verdicts: list[tuple] = field(default_factory=list)
    wall_s: float = 0.0
    traces: int = 0
    residual_steps: int = 0
    peak_distinct: int = 0
    segments: int = 0
    truncated_segments: int = 0


def replay_item(index, item, config, tracer: Tracer, out: Replay) -> None:
    """One computation through hb -> segment -> enumerate -> progress ->
    merge -> close, mirroring ``SmtMonitor.run_from`` with
    ``saturate=False``."""
    computation = item.build()
    epsilon = computation.epsilon
    verdicts: dict[bool, int] = {}
    with tracer.span("monitor.replay", request=index):
        with tracer.span("distributed.hb", request=index):
            hb = computation.happened_before()
        with tracer.span("distributed.segment", request=index):
            segments = [
                s for s in segment_computation(computation, config.segments) if not s.is_empty()
            ]
            index_map = hb.index_map()
            views = [hb.restricted_to([index_map[e.key] for e in s.events]) for s in segments]
        carried = {config.formula: 1}
        anchor = None
        valuation: dict = {}
        frontier: dict = {}
        for order, (segment, view) in enumerate(zip(segments, views)):
            if not carried:
                break
            with tracer.span("encoding.enumerate", request=index):
                traces = list(
                    enumerate_traces(
                        view,
                        epsilon,
                        clamp_lo=None if order == 0 else segment.lo,
                        clamp_hi=None if order == len(segments) - 1 else segment.hi,
                        limit=config.max_traces,
                        base_valuation=valuation,
                        frontier_props=frontier,
                        timestamp_samples=config.timestamp_samples,
                    )
                )
            with tracer.span("monitor.merge", request=index):
                # Residuals cross a segment boundary as Formula objects
                # and re-enter the kernel as arena ids, as in SmtMonitor.
                pairs = [(intern_id(residual), count) for residual, count in carried.items()]
            with tracer.span("progression.progress", request=index):
                kernel = ColumnarSegmentProgressor(pairs)
                progressed = [
                    kernel.progress_trace(
                        trace,
                        0 if anchor is None else trace.start_time - anchor,
                        max(segment.hi, trace.end_time),
                    )
                    for trace in traces
                ]
            with tracer.span("monitor.merge", request=index):
                merged: dict[int, int] = {}
                for row in progressed:
                    for fid, count in row:
                        merged[fid] = merged.get(fid, 0) + count
                carried = {}
                for fid, count in merged.items():
                    if fid == TRUE_ID:
                        verdicts[True] = verdicts.get(True, 0) + count
                    elif fid == FALSE_ID:
                        verdicts[False] = verdicts.get(False, 0) + count
                    else:
                        carried[formula_of(fid)] = count
                valuation, frontier = segment_carry(segment.events, valuation, frontier)
                anchor = segment.hi
            out.traces += len(traces)
            out.residual_steps += len(traces) * len(pairs)
            out.peak_distinct = max(out.peak_distinct, len(merged))
            out.segments += 1
            out.truncated_segments += len(traces) >= config.max_traces
        with tracer.span("monitor.close", request=index):
            for residual, count in carried.items():
                verdict = close(residual)
                verdicts[verdict] = verdicts.get(verdict, 0) + count
    out.verdicts.append(verdict_key(verdicts))


def replay(workload: BatchWorkload, tracer: Tracer) -> Replay:
    out = Replay()
    started = time.perf_counter()
    for index, item in enumerate(workload.items):
        replay_item(index, item, workload.configs[item.config], tracer, out)
    out.wall_s = time.perf_counter() - started
    return out


def brute_force_mismatches(seed: int) -> tuple[int, int]:
    """``(checked, mismatched)`` over the seeded small computations:
    ``SmtMonitor`` at ``g = 1`` against every admissible trace evaluated
    under the plain finite-MTL semantics."""
    mismatched = 0
    cases = oracle_cases(seed)
    for formula, computation in cases:
        got = SmtMonitor(
            formula, segments=1, saturate=False, max_traces_per_segment=None
        ).run(computation)
        want = EnumerationMonitor(formula).run(computation)
        mismatched += got.verdict_counts != want.verdict_counts
    return len(cases), mismatched


def layer_metrics(run: BatchRun, plain: Replay, traced: Replay, tracer: Tracer) -> dict:
    """Per-layer numbers from the traced replay (one pass of the items)."""
    own = self_times(tracer.spans)
    stage_s = {stage: own.get(stage, 0.0) for stage in STAGES}
    run_s = sorted(run.pass_walls_s)[len(run.pass_walls_s) // 2]
    progress_s = stage_s["progression.progress"]
    enumerate_s = stage_s["encoding.enumerate"]
    cache = plan_cache_stats()
    lookups = cache["hits"] + cache["misses"]
    return {
        "distributed.hb_s": stage_s["distributed.hb"],
        "distributed.segment_s": stage_s["distributed.segment"],
        "encoding.enumerate_s": enumerate_s,
        "encoding.traces": traced.traces,
        "encoding.traces_per_s": traced.traces / enumerate_s if enumerate_s else 0.0,
        "encoding.truncated_share": traced.truncated_segments / max(traced.segments, 1),
        "progression.progress_s": progress_s,
        "progression.residual_steps": traced.residual_steps,
        "progression.ns_per_residual_step": 1e9 * progress_s / max(traced.residual_steps, 1),
        "progression.us_per_trace": 1e6 * progress_s / max(traced.traces, 1),
        "progression.peak_distinct_residuals": traced.peak_distinct,
        "progression.plan_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "monitor.merge_s": stage_s["monitor.merge"],
        "monitor.close_s": stage_s["monitor.close"],
        "monitor.run_s": run_s,
        "monitor.residue_share": (run_s - sum(stage_s.values())) / run_s,
        "mtl.interned_formulas": len(ARENA.kinds),
        "ledger.trace_overhead_share": (traced.wall_s - plain.wall_s) / plain.wall_s,
    }
