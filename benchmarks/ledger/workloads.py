"""Input generation for the four ledger workloads.

Everything here is a pure function of ``--seed``: no clocks, no timing,
no calls into the engine beyond building inputs.  The program under
test receives only what these functions return.

What the seed drives, and what it deliberately does not:

* ``carried_fischer`` / ``chain_logs`` — the *set* of computations is
  pinned (fischer seeds ``0..99``; behaviour-matrix rows on a fixed
  stride) and the seed drives the order they are presented in.  Their
  per-computation cost is heavy-tailed and chaotic in the input (a clock
  offset of a few ms moves a computation between cost classes 20x
  apart): an i.i.d. seeded sample of any size that fits a run swings
  ``events_per_s`` by 25-60 % between seeds (README, "Why the batch
  inputs are pinned"), which would drown every bound below.
* ``session_open`` — every stream (arrival times, processes,
  propositions) is drawn from the seed; thousands of cheap homogeneous
  events average out.
* ``session_lossy`` — stream *shapes* (who emits when) and the fault
  schedule are pinned so the same frames meet the same faults; the seed
  draws the propositions, so the verdicts under test differ per seed.
* the brute-force oracle sample — drawn from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.bench.workload import WorkloadSpec, formula_for, generate_workload
from repro.chain.log import computation_from_chains
from repro.distributed.computation import DistributedComputation
from repro.monitor.smt_monitor import SmtMonitor
from repro.mtl import parse
from repro.mtl.ast import Formula
from repro.protocols import scenarios
from repro.protocols.auction import run_auction
from repro.protocols.swap2 import run_swap2
from repro.protocols.swap3 import run_swap3
from repro.specs import auction_specs, swap2_specs, swap3_specs

def _rng(*parts) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in ("ledger",) + parts))


# -- batch workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class MonitorConfig:
    """The ``SmtMonitor`` settings one group of batch items runs under."""

    formula: Formula
    segments: int
    max_traces: int
    timestamp_samples: int | None = None

    def monitor(self) -> SmtMonitor:
        return SmtMonitor(
            self.formula,
            segments=self.segments,
            saturate=False,
            max_traces_per_segment=self.max_traces,
            timestamp_samples=self.timestamp_samples,
        )


@dataclass(frozen=True)
class BatchItem:
    """One monitored computation: a log and the policy it is checked against."""

    label: str
    config: str
    #: Builds a fresh computation, so no run meets a cached
    #: happened-before closure left by an earlier pass.
    build: Callable[[], DistributedComputation]


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    configs: dict[str, MonitorConfig]
    #: In the seeded presentation order.
    items: tuple[BatchItem, ...]
    #: Every tenth item of the pinned set, whatever the seed, so set-up
    #: costs the same under every seed.
    warmup: tuple[BatchItem, ...]


def _seeded_order(name: str, seed: int, configs, items) -> BatchWorkload:
    warmup = tuple(items[::10])
    _rng(name, seed).shuffle(items)
    return BatchWorkload(name, configs, tuple(items), warmup)


#: ROADMAP's reference configuration: few traces x thousands of carried
#: residuals (phi4 over a 400 ms window, six segments, 100-trace budget).
FISCHER_UNIVERSE = 100
FISCHER_SPEC = dict(
    model="fischer", processes=3, length_seconds=2.0, events_per_second=10, epsilon_ms=15
)
FISCHER_WINDOW_MS = 400


def carried_fischer(seed: int) -> BatchWorkload:
    config = MonitorConfig(
        formula_for("phi4", FISCHER_SPEC["processes"], FISCHER_WINDOW_MS),
        segments=6,
        max_traces=100,
    )
    items = [
        BatchItem(
            f"fischer-{index}",
            "phi4",
            lambda index=index: generate_workload(WorkloadSpec(seed=index, **FISCHER_SPEC)),
        )
        for index in range(FISCHER_UNIVERSE)
    ]
    return _seeded_order("carried_fischer", seed, {"phi4": config}, items)


#: Fig 6 settings: skew bound, protocol step length, trace budget.
CHAIN_EPSILON_MS = 5
CHAIN_DELTA_MS = 500
CHAIN_TRACE_BUDGET = 400


def _swap2_log(behavior) -> DistributedComputation:
    setup = run_swap2(list(behavior), epsilon_ms=CHAIN_EPSILON_MS, delta_ms=CHAIN_DELTA_MS)
    return computation_from_chains([setup.apricot, setup.banana], CHAIN_EPSILON_MS)


def _swap3_log(behavior) -> DistributedComputation:
    setup = run_swap3(list(behavior), epsilon_ms=CHAIN_EPSILON_MS, delta_ms=CHAIN_DELTA_MS)
    return computation_from_chains(setup.chains.values(), CHAIN_EPSILON_MS)


def _auction_log(behavior) -> DistributedComputation:
    setup = run_auction(behavior, epsilon_ms=CHAIN_EPSILON_MS, delta_ms=CHAIN_DELTA_MS)
    return computation_from_chains([setup.coin, setup.tckt], CHAIN_EPSILON_MS)


#: protocol -> (behaviour matrix, log builder, policies, g, timestamp
#: samples, rows taken from the matrix).  The rows sit on a fixed stride
#: through the matrix, so short and long logs are both covered.
CHAIN_PROTOCOLS = {
    "swap2": (scenarios.swap2_behaviors, _swap2_log, swap2_specs.all_policies, 1, 3, 4),
    "swap3": (scenarios.swap3_behaviors, _swap3_log, swap3_specs.all_policies, 2, 2, 10),
    "auction": (scenarios.auction_behaviors, _auction_log, auction_specs.all_policies, 2, 2, 9),
}


def chain_logs(seed: int) -> BatchWorkload:
    configs: dict[str, MonitorConfig] = {}
    items: list[BatchItem] = []
    for protocol, (matrix, build_log, all_policies, g, samples, rows) in CHAIN_PROTOCOLS.items():
        policies = all_policies(CHAIN_DELTA_MS)
        for policy, formula in policies.items():
            configs[f"{protocol}.{policy}"] = MonitorConfig(
                formula, segments=g, max_traces=CHAIN_TRACE_BUDGET, timestamp_samples=samples
            )
        behaviors = list(matrix())
        stride = len(behaviors) // rows
        for row in range(stride // 2, len(behaviors), stride):
            for policy in policies:
                items.append(
                    BatchItem(
                        f"{protocol}-{row}.{policy}",
                        f"{protocol}.{policy}",
                        lambda build_log=build_log, behavior=behaviors[row]: build_log(behavior),
                    )
                )
    return _seeded_order("chain_logs", seed, configs, items)


def batch_workload(name: str, seed: int) -> BatchWorkload:
    return {"carried_fischer": carried_fischer, "chain_logs": chain_logs}[name](seed)


# -- the brute-force oracle sample --------------------------------------------------

ORACLE_SPECS = ("a U[0,6) b", "F[0,8) b", "G[0,6) (a -> F[0,4) b)")
ORACLE_EPSILON = 2
ORACLE_CASES = 6


def oracle_cases(seed: int) -> list[tuple[Formula, DistributedComputation]]:
    """Seeded computations of at most six events, small enough to
    enumerate every admissible trace under the plain MTL semantics."""
    rng = _rng("oracle", seed)
    cases = []
    for _ in range(ORACLE_CASES):
        computation = DistributedComputation(ORACLE_EPSILON)
        clocks = {"P1": 0, "P2": 1}
        for _ in range(rng.randrange(3, 7)):
            process = rng.choice(("P1", "P2"))
            clocks[process] += rng.randrange(1, 4)
            props = tuple(p for p in ("a", "b") if rng.random() < 0.5)
            computation.add_event(process, clocks[process], props)
        cases.append((parse(rng.choice(ORACLE_SPECS)), computation))
    return cases


# -- session workloads ---------------------------------------------------------------

SESSION_SPEC = "a U[0,600) b"
SESSION_EPSILON = 2
#: Events per second of logical time, per process (two processes a stream).
STREAM_RATE = 10.0
#: An ``advance_to`` every 200 logical ms closes a segment of ~4 events.
ADVANCE_MS = 200


def session_stream(shape_rng, props_rng, length_ms: int):
    """One two-process stream: ``[(process, local_ms, props)]`` by time.

    ``shape_rng`` decides who emits when, ``props_rng`` which of ``a`` /
    ``b`` hold; the lossy workload pins the first and seeds the second.
    """
    period = round(1000.0 / STREAM_RATE)
    clocks = {"P1": shape_rng.randrange(0, 3), "P2": shape_rng.randrange(0, 3)}
    events = []
    while True:
        process = shape_rng.choice(("P1", "P2"))
        clocks[process] += period + shape_rng.randrange(0, 3)
        if clocks[process] >= length_ms:
            break
        props = tuple(p for p in ("a", "b") if props_rng.random() < 0.4)
        events.append((process, clocks[process], props))
    # Per-process clocks are monotone, so time order is observation order.
    events.sort(key=lambda event: event[1])
    return events


@dataclass(frozen=True)
class Op:
    """One scheduled call on a session.

    ``due`` is logical milliseconds from the start of the phase; the
    open-loop generator divides by its time compression.  ``stream`` is
    the session the op belongs to, ``payload`` the event or boundary.
    """

    due: int
    kind: str  # "open" | "observe" | "advance" | "finish"
    stream: tuple[int, int]  # (slot, generation)
    payload: object = None


def stream_ops(stream_key, events, length_ms: int, start_ms: int):
    """The calls that drive one stream from open to finish.

    Boundaries stop one period short of the stream's end, so ``finish``
    always has a last segment to close; it is due when the stream ends,
    after every event.
    """
    ops = [Op(start_ms, "open", stream_key)]
    for event in events:
        ops.append(Op(start_ms + event[1], "observe", stream_key, event))
    for boundary in range(ADVANCE_MS, length_ms - ADVANCE_MS + 1, ADVANCE_MS):
        ops.append(Op(start_ms + boundary, "advance", stream_key, boundary))
    ops.append(Op(start_ms + length_ms, "finish", stream_key))
    return ops


#: session_open: 16 concurrent sessions; each slot runs one stream after
#: another (a stream is one protocol instance, 4.8 logical seconds).
OPEN_SLOTS = 16
OPEN_STREAM_MS = 4800
#: Constant offered load in events per second of real time: about 45 %
#: of the seed commit's closed-loop capacity on the reference box.  A
#: constant, never calibrated at run time, so both sides of a comparison
#: are offered the same load.
OPEN_OFFERED_RATE = 1500.0
#: Events a session emits per logical second (two processes at a period
#: of ~101 ms, less the quiet edges of each stream); only sizes the plan.
OPEN_NOMINAL_SESSION_RATE = 18.2
#: Generations each slot runs closed-loop before timing starts.
OPEN_WARMUP_GENERATIONS = 3


def open_generations(seconds: float) -> int:
    """Whole generations that offer about ``seconds`` of load; at least
    three, so a p99 has its ten samples beyond it."""
    logical_ms = seconds * 1000 * OPEN_OFFERED_RATE / (OPEN_SLOTS * OPEN_NOMINAL_SESSION_RATE)
    return max(3, round(logical_ms / OPEN_STREAM_MS))


def open_compression(ops) -> float:
    """Logical seconds per real second at which ``ops`` offer exactly
    ``OPEN_OFFERED_RATE`` events per second."""
    events = sum(op.kind == "observe" for op in ops)
    logical_s = (ops[-1].due - ops[0].due) / 1000.0
    return OPEN_OFFERED_RATE * logical_s / events


def session_open_ops(seed: int, first_generation: int, generations: int) -> list[Op]:
    """The merged timeline of every slot over the given generations.

    Slots are staggered across one advance period so their round trips
    do not arrive in bursts.
    """
    ops = []
    for slot in range(OPEN_SLOTS):
        offset = slot * ADVANCE_MS // OPEN_SLOTS
        for step in range(generations):
            generation = first_generation + step
            rng = _rng("session_open", seed, slot, generation)
            events = session_stream(rng, rng, OPEN_STREAM_MS)
            ops.extend(
                stream_ops(
                    (slot, generation), events, OPEN_STREAM_MS, offset + step * OPEN_STREAM_MS
                )
            )
    ops.sort(key=lambda op: op.due)  # stable: per-stream call order survives ties
    return ops


#: session_lossy: the ROADMAP item 5(b) reference schedule and policy.
LOSSY_SESSIONS = 8
#: 25 boundaries a session: 200 advance calls, so the tail percentile
#: sits well inside the delayed calls (ranks 174-195), not at their edge.
LOSSY_STREAM_MS = 5200
LOSSY_FAULT_SEED = "ledger-lossy"
LOSSY_FAULTS = dict(
    drop=0.02, latency=0.001, jitter=0.002, delay=0.03, delay_seconds=0.2, grace=8
)
LOSSY_RETRY = dict(attempts=4, timeout=2.0, base_delay=0.05)
LOSSY_CHECKPOINT = {"every_events": 8}
LOSSY_ENDPOINTS = 2


def session_lossy_ops(seed: int) -> list[Op]:
    """Closed-loop call order: each boundary sweeps every session."""
    ops = []
    for slot in range(LOSSY_SESSIONS):
        events = session_stream(
            _rng("lossy-shape", slot), _rng("session_lossy", seed, slot), LOSSY_STREAM_MS
        )
        ops.extend(stream_ops((slot, 0), events, LOSSY_STREAM_MS, 0))
    ops.sort(key=lambda op: op.due)
    return ops
