"""Turning an ordered, timestamped event sequence into a timed trace.

State semantics follow the paper's frontier reading (Section V-B's atom
constraint ranges over ``front(rho(i))``): the state at step ``i`` is the
union of the propositions of the *last event of each process* present in
the cut.  A proposition therefore persists from the event that emits it
until the next event of the same process — which is how the models encode
state-like facts (``gate.occ``, ``p1.cs``) as well as one-shot facts
(``apr.asset_redeemed(bob)``).

States additionally carry a *cumulative* numeric valuation folded from
each event's ``deltas`` — this is what the blockchain payoff predicates
(``sum of amounts transferred to alice``) evaluate against.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from repro.distributed.event import Event
from repro.mtl.trace import State, TimedTrace


def build_trace(
    ordered: Sequence[tuple[Event, int]],
    base_valuation: Mapping[str, float] | None = None,
    frontier_props: Mapping[str, frozenset[str]] | None = None,
) -> TimedTrace:
    """Build a timed trace from ``(event, timestamp)`` pairs in trace order.

    ``frontier_props`` seeds the per-process frontier (the last observed
    propositions of each process from *earlier segments*), and
    ``base_valuation`` seeds the cumulative numeric valuation; both are
    order-independent summaries, so a single value per segment is exact.
    """
    states: list[State] = []
    times: list[int] = []
    frontier: dict[str, frozenset[str]] = dict(frontier_props) if frontier_props else {}
    accumulator: dict[str, float] = dict(base_valuation) if base_valuation else {}
    valuation_dirty = bool(accumulator)
    snapshot: Mapping[str, float] = MappingProxyType({})
    for event, timestamp in ordered:
        frontier[event.process] = event.props
        if event.deltas:
            for key, delta in event.deltas.items():
                accumulator[key] = accumulator.get(key, 0) + delta
            valuation_dirty = True
        if valuation_dirty:
            snapshot = MappingProxyType(dict(accumulator))
            valuation_dirty = False
        props = frozenset().union(*frontier.values()) if frontier else frozenset()
        states.append(State(props, snapshot))
        times.append(timestamp)
    return TimedTrace(states, times)


def cut_states(
    events: Sequence[Event],
    base_valuation: Mapping[str, float] | None = None,
    frontier_props: Mapping[str, frozenset[str]] | None = None,
) -> Callable[[int], State]:
    """The state of a consistent cut, as a memoized function of its mask.

    Bit ``i`` of a mask stands for ``events[i]``.  The state after a trace
    prefix depends only on *which* events the prefix holds, never on their
    order: the frontier is each process's last event in program order
    (happened-before contains program order, so the last of a process in
    trace order is its highest ``seq`` in the cut) and the valuation is a
    sum over the cut.  The DFS enumerator therefore builds one
    :class:`State` per reachable cut and every trace of the segment shares
    those objects — equal, state for state, to :func:`build_trace` on the
    same choices.

    Deltas are summed in ascending event index from ``base_valuation``
    (the order :func:`segment_carry` folds them in), whatever order a
    trace adds the events: exact for integer deltas, and for float deltas
    the one canonical rounding every trace through the cut sees.
    """
    base = dict(base_valuation) if base_valuation else {}
    # Per process, latest event first: (bit, props).  What an earlier
    # segment left on a process's frontier comes last, under the mask
    # with every bit set: it is in every (non-empty) cut.
    in_every_cut = -1
    by_process: dict[str, list[tuple[int, frozenset[str]]]] = {}
    for index in sorted(range(len(events)), key=lambda i: events[i].seq, reverse=True):
        event = events[index]
        by_process.setdefault(event.process, []).append((1 << index, event.props))
    for process, props in (frontier_props or {}).items():
        by_process.setdefault(process, []).append((in_every_cut, props))
    frontiers = list(by_process.values())
    with_deltas = [(1 << i, event.deltas) for i, event in enumerate(events) if event.deltas]
    delta_mask = sum(bit for bit, _ in with_deltas)
    valuations: dict[int, Mapping[str, float]] = {}
    states: dict[int, State] = {}

    def valuation_of(delta_bits: int) -> Mapping[str, float]:
        snapshot = valuations.get(delta_bits)
        if snapshot is None:
            accumulator = dict(base)
            for bit, deltas in with_deltas:
                if delta_bits & bit:
                    for key, delta in deltas.items():
                        accumulator[key] = accumulator.get(key, 0) + delta
            snapshot = valuations[delta_bits] = MappingProxyType(accumulator)
        return snapshot

    def state_of(mask: int) -> State:
        state = states.get(mask)
        if state is None:
            parts = []
            for latest_first in frontiers:
                for bit, props in latest_first:
                    if mask & bit:
                        parts.append(props)
                        break
            state = states[mask] = State(
                frozenset().union(*parts), valuation_of(mask & delta_mask)
            )
        return state

    return state_of


def segment_carry(
    events: Sequence[Event],
    base_valuation: Mapping[str, float] | None = None,
    frontier_props: Mapping[str, frozenset[str]] | None = None,
) -> tuple[dict[str, float], dict[str, frozenset[str]]]:
    """Fold a segment's events into carry-over state for the next segment.

    Returns the updated ``(base_valuation, frontier_props)``.  The frontier
    uses each process's last event *in local-time order*, which is the same
    for every admissible trace of the segment; the valuation is a plain
    order-independent sum.
    """
    valuation: dict[str, float] = dict(base_valuation) if base_valuation else {}
    frontier: dict[str, frozenset[str]] = dict(frontier_props) if frontier_props else {}
    last: dict[str, Event] = {}
    for event in events:
        for key, delta in event.deltas.items():
            valuation[key] = valuation.get(key, 0) + delta
        best = last.get(event.process)
        if best is None or best.seq < event.seq:
            last[event.process] = event
    for process, event in last.items():
        frontier[process] = event.props
    return valuation, frontier


def model_to_trace(
    events: Sequence[Event],
    model: dict[str, int],
    pos_prefix: str = "pos",
    time_prefix: str = "t",
    base_valuation: Mapping[str, float] | None = None,
    frontier_props: Mapping[str, frozenset[str]] | None = None,
) -> TimedTrace:
    """Decode a solver model from the cut encoding into a timed trace.

    The model maps ``pos<i>`` to the event's position in the interleaving
    and ``t<i>`` to its chosen timestamp, where ``i`` indexes ``events``.
    """
    order = sorted(range(len(events)), key=lambda i: model[f"{pos_prefix}{i}"])
    pairs = [(events[i], model[f"{time_prefix}{i}"]) for i in order]
    return build_trace(pairs, base_valuation, frontier_props)
