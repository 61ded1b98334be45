"""Direct depth-first enumeration of a segment's traces.

This is the production path of the monitor: it enumerates exactly the
models of the cut-sequence CSP (:mod:`repro.encoding.cut_encoder`) but
interleaves the ordering and timestamp choices, pruning monotonicity
violations as early as possible.  Tests assert model-for-model agreement
with the CSP encoding on randomized inputs; benchmarks can select either
backend (``backend="csp"`` is the ablation).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.distributed.event import Event
from repro.distributed.hb import HappenedBefore, HappenedBeforeView
from repro.encoding.cut_encoder import encode_segment, timestamp_domain
from repro.encoding.trace_extractor import cut_states, model_to_trace
from repro.mtl.trace import State, TimedTrace
from repro.progression.budget import Budget
from repro.solver.engine import Solver


def enumerate_traces(
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    clamp_lo: int | None = None,
    clamp_hi: int | None = None,
    limit: int | None = None,
    backend: str = "dfs",
    base_valuation=None,
    frontier_props=None,
    timestamp_samples: int | None = None,
    budget: Budget | None = None,
) -> Iterator[TimedTrace]:
    """All traces of ``Tr(E, ⇝)`` for the segment, lazily.

    ``backend`` selects the DFS fast path or the paper-literal CSP
    encoding; both enumerate the same set of traces.  ``base_valuation``
    seeds the cumulative numeric valuation (sums carried from previous
    segments).  ``budget`` is checkpointed once per DFS node (or per CSP
    model) and raises :class:`~repro.errors.PreemptedError` mid-stream
    when tripped.
    """
    if backend == "csp":
        yield from _enumerate_csp(
            hb, epsilon, clamp_lo, clamp_hi, limit, base_valuation, frontier_props,
            timestamp_samples, budget)
        return
    if backend != "dfs":
        raise ValueError(f"unknown backend {backend!r}")
    yield from _enumerate_dfs(
        hb, epsilon, clamp_lo, clamp_hi, limit, base_valuation, frontier_props,
        timestamp_samples, budget)


def _enumerate_csp(
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    clamp_lo: int | None,
    clamp_hi: int | None,
    limit: int | None,
    base_valuation,
    frontier_props,
    timestamp_samples,
    budget: Budget | None = None,
) -> Iterator[TimedTrace]:
    problem, events = encode_segment(hb, epsilon, clamp_lo, clamp_hi, timestamp_samples)
    solver = Solver(problem)
    for model in solver.solutions(limit):
        if budget is not None:
            budget.step()
        yield model_to_trace(
            events, model, base_valuation=base_valuation, frontier_props=frontier_props)


def _enumerate_dfs(
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    clamp_lo: int | None,
    clamp_hi: int | None,
    limit: int | None,
    base_valuation,
    frontier_props,
    timestamp_samples,
    budget: Budget | None = None,
) -> Iterator[TimedTrace]:
    events: Sequence[Event] = hb.events
    n = len(events)
    if n == 0:
        return
    domains = [
        _diverse_first(
            timestamp_domain(event, epsilon, clamp_lo, clamp_hi, timestamp_samples).values,
            events[i].local_time)
        for i, event in enumerate(events)
    ]
    max_time = [max(d) for d in domains]
    produced = 0

    # A state is a function of the cut, not of the path to it: one State
    # per reachable cut, shared by every trace that passes through it.
    state_of = cut_states(events, base_valuation, frontier_props)
    states: list[State] = []
    times: list[int] = []

    def recurse(chosen_mask: int, last_time: int) -> Iterator[TimedTrace]:
        nonlocal produced
        if budget is not None:
            budget.step()
        if limit is not None and produced >= limit:
            return
        if len(times) == n:
            produced += 1
            yield TimedTrace(states, times)
            return
        # Dead-branch pruning: every unchosen event must still be able to
        # take a timestamp >= last_time.
        for i in range(n):
            if not chosen_mask & (1 << i) and max_time[i] < last_time:
                return
        for i in range(n):
            bit = 1 << i
            if chosen_mask & bit:
                continue
            if hb.predecessors_mask(i) & ~chosen_mask:
                continue  # a happened-before predecessor is not in the cut yet
            extended = chosen_mask | bit
            state = state_of(extended)
            for timestamp in domains[i]:
                if timestamp < last_time:
                    continue
                states.append(state)
                times.append(timestamp)
                yield from recurse(extended, timestamp)
                states.pop()
                times.pop()
                if limit is not None and produced >= limit:
                    return

    yield from recurse(0, 0)


def _diverse_first(values: tuple[int, ...], center: int) -> tuple[int, ...]:
    """Order a timestamp domain so distinct verdicts surface early.

    The local reading itself comes first (the "no drift" trace), then the
    window extremes (which flip interval-membership checks fastest), then
    the rest — the same set of values, reordered.  Verdict-enumeration
    callers stop as soon as they have seen every distinct outcome, so the
    ordering matters a great deal for wall-clock time.
    """
    if len(values) <= 2:
        return values
    rest = [v for v in values if v != center and v != values[0] and v != values[-1]]
    head = [center] if center in values else []
    for extreme in (values[0], values[-1]):
        if extreme not in head:
            head.append(extreme)
    return tuple(head + rest)


def count_traces(
    hb: HappenedBefore | HappenedBeforeView,
    epsilon: int,
    clamp_lo: int | None = None,
    clamp_hi: int | None = None,
) -> int:
    """Number of traces of the segment (diagnostics and tests)."""
    return sum(1 for _ in enumerate_traces(hb, epsilon, clamp_lo, clamp_hi))
