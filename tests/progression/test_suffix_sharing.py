"""Suffix-shared kernel columns: one kernel per segment reuses rows
across that segment's traces, and nothing observable may change.

A row ``res[node, i]`` reads the trace from position ``i`` on (states,
times) and the boundary, so the kernel keeps one column of result ids
per distinct suffix.  These tests pin the three references the sharing
must agree with — a fresh kernel per trace, the ``REPRO_COLUMNAR=0``
object walk, and itself after a preempted pass — plus the cache's
lifetime, cap and counters.

A narrow column shares the other way round: it is stepped forward one
observation at a time and keeps the previous trace's path, so a trace
computes only the positions after its longest common prefix with it.
The last section pins that strategy against the backward pass and the
object walk, and its counters.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.distributed.computation import DistributedComputation
from repro.encoding.enumerator import enumerate_traces
from repro.encoding.verdict_enumerator import (
    DEFAULT_TRACE_BUDGET,
    enumerate_segment_outcomes,
)
from repro.errors import PreemptedError
from repro.mtl import ast, parse
from repro.mtl.ast import formula_of, intern_formula
from repro.mtl.interval import Interval
from repro.mtl.trace import State, TimedTrace
from repro.progression import columnar
from repro.progression.budget import Budget
from repro.progression.columnar import ColumnarSegmentProgressor
from repro.progression.progressor import TraceProgressor, anchor_shift

from tests.conftest import formulas, intervals, small_computations
from tests.monitor.test_differential import _columnar

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Reads the cumulative valuation, so equal props with different sums of
#: ``x`` must not be mistaken for the same state.
GAIN = ast.PredicateAtom("x>=2", lambda valuation: valuation.get("x", 0) >= 2)

#: What earlier segments left behind: a sum, a frontier the segment's own
#: events override (P2) and one they never touch (P9).
CONTEXT = dict(
    base_valuation={"x": 1},
    frontier_props={"P2": frozenset({"c"}), "P9": frozenset({"q"})},
)


def _column(f, g, window, reach) -> list[tuple[int, int]]:
    """A carried column whose atoms all sit under a temporal operator (a
    residual never holds a bare atom), with distinct counts per root."""
    roots = [
        ast.eventually(ast.land(f, GAIN), window),
        ast.until(g, ast.lor(f, ast.lnot(GAIN)), reach),
        ast.always(ast.lor(g, GAIN), window),
    ]
    return [(intern_formula(root)._intern_id, k + 1) for k, root in enumerate(roots)]


def _object_walk(pairs, trace, shift, boundary) -> list[int]:
    walk = TraceProgressor(trace, boundary)
    return [
        walk.progress(anchor_shift(formula_of(fid), shift), 0)._intern_id
        for fid, _ in pairs
    ]


@given(
    computation=small_computations(deltas=True),
    f=formulas(max_depth=2),
    g=formulas(max_depth=2),
    window=intervals(),
    reach=intervals(),
    lead=st.integers(0, 3),
)
@settings(max_examples=40, **_SETTINGS)
def test_shared_kernel_equals_kernel_per_trace_equals_object_walk(
    computation, f, g, window, reach, lead
):
    hb = computation.happened_before()
    epsilon = computation.epsilon
    traces = list(enumerate_traces(hb, epsilon, limit=200, **CONTEXT))
    pairs = _column(f, g, window, reach)
    # Traces start at different times, hence several anchor shifts; and
    # some end past ``hi``, the last segment's ``boundary = end_time``.
    anchor = min(trace.start_time for trace in traces) - lead
    hi = min(trace.end_time for trace in traces)

    shared = ColumnarSegmentProgressor(pairs)
    for trace in traces:
        shift = trace.start_time - anchor
        # The same suffix under a later boundary is another row: one
        # kernel serves both without mixing them up.
        for boundary in (max(hi, trace.end_time), trace.end_time + 3):
            column = shared.progress_roots(trace, shift, boundary)
            assert column == ColumnarSegmentProgressor(pairs).progress_roots(
                trace, shift, boundary
            )
            assert column == _object_walk(pairs, trace, shift, boundary)
    assert shared.columns_reused + shared.columns_computed == 2 * sum(map(len, traces))

    def outcome() -> dict[int, int]:
        return enumerate_segment_outcomes(
            hb, epsilon, pairs, anchor, hi, max_traces=200, **CONTEXT
        ).id_counts()

    whole = outcome()
    with _columnar(False):
        assert outcome() == whole


def _chain_shaped_segment():
    """Three chains, three events each, within each other's skew, three
    timestamp samples an event, a 400-trace budget: the ``chain_logs``
    shape (hundreds of traces, a handful of residuals)."""
    computation = DistributedComputation.from_event_lists(
        5,
        {
            "apr": [(10, "a"), (13, ()), (16, "a")],
            "ban": [(11, ()), (14, "a"), (17, "b")],
            "che": [(12, "b"), (15, ()), (18, "a")],
        },
    )
    traces = list(
        enumerate_traces(
            computation.happened_before(), 5, limit=400, timestamp_samples=3
        )
    )
    spec = parse("G[0,30) (a -> F[0,8) b) & (a U[0,25) b)")
    return traces, [(intern_formula(spec)._intern_id, 1)]


def _widened(pairs, extra: str) -> list[tuple[int, int]]:
    """``pairs`` plus ``extra`` under as many start offsets as a forward
    kernel takes roots: a column for the backward pass's suffix cache."""
    widened = list(pairs)
    for lo in range(columnar._FORWARD_MAX_ROOTS):
        widened.append((intern_formula(parse(extra.format(lo=lo)))._intern_id, 1))
    assert not ColumnarSegmentProgressor(widened).steps_forward
    return widened


def test_most_columns_of_a_chain_shaped_segment_are_reused():
    traces, pairs = _chain_shaped_segment()
    assert len(traces) == 400
    kernel = ColumnarSegmentProgressor(_widened(pairs, "F[{lo},40) b"))
    for trace in traces:
        kernel.progress_trace(trace, 0, trace.end_time)
    total = kernel.columns_reused + kernel.columns_computed
    assert total == sum(map(len, traces))
    assert kernel.columns_reused / total >= 0.5
    # Position 0 of a trace the kernel has not seen is always computed.
    assert kernel.columns_computed >= len(traces)


def test_a_cached_suffix_column_is_never_served_as_a_head():
    """Stored columns hold body rows only, heads are computed per trace:
    so a trace T, then T's proper suffix (whose position 0 was stored as
    T's position 1), then T again (every position stored) must each come
    out as from a fresh kernel — under a shift, with roots that collapse."""
    traces, _ = _chain_shaped_segment()
    whole = traces[0]
    suffix = TimedTrace(whole.states[1:], whole.times[1:])
    roots = [
        parse("F[1,9) b"),
        parse("F[2,9) b"),
        parse("G[0,30) (a -> F[0,8) b)"),
        parse("(a U[0,25) b) & !(F[1,9) b)"),
    ]
    pairs = [(intern_formula(root)._intern_id, k + 1) for k, root in enumerate(roots)]
    shift, boundary = 2, whole.end_time

    shared = ColumnarSegmentProgressor(pairs)
    for step, trace in enumerate((whole, suffix, whole)):
        fresh = ColumnarSegmentProgressor(pairs)
        assert shared.progress_trace(trace, shift, boundary) == fresh.progress_trace(
            trace, shift, boundary
        )
        assert shared.progress_roots(trace, shift, boundary) == fresh.progress_roots(
            trace, shift, boundary
        )
        # Only the first pass computes body columns; every pass computes a head.
        assert shared.columns_computed == len(whole)
        assert shared.head_rows_computed == (step + 1) * fresh.head_rows_computed
    # The same trace under another shift shares every body column too.
    before = shared.columns_reused
    assert shared.progress_roots(whole, 5, boundary) == ColumnarSegmentProgressor(
        pairs
    ).progress_roots(whole, 5, boundary)
    assert shared.columns_reused == before + len(whole)


def test_nothing_is_reused_across_segments():
    """The cache dies with the kernel, and a kernel fed a second
    segment's traces finds none of the first one's suffixes in them."""
    computation = DistributedComputation.from_event_lists(
        2,
        {
            "P1": [(1, "a"), (3, ()), (11, "a"), (13, ())],
            "P2": [(2, "b"), (4, "a"), (12, "b"), (14, "a")],
        },
    )
    hb = computation.happened_before()
    index = hb.index_map()
    first, second = (
        list(
            enumerate_traces(
                hb.restricted_to(
                    [index[e.key] for e in computation.events if lo <= e.local_time < lo + 10]
                ),
                2,
            )
        )
        for lo in (0, 10)
    )
    pairs = _widened([(intern_formula(parse("a U[0,40) b"))._intern_id, 1)], "a U[{lo},41) b")
    kernel = ColumnarSegmentProgressor(pairs)
    for trace in first:
        kernel.progress_trace(trace, 0, 30)
    assert kernel.columns_reused > 0
    reused_in_first = kernel.columns_reused
    kernel.progress_trace(second[0], 0, 30)
    assert kernel.columns_reused == reused_in_first
    assert ColumnarSegmentProgressor(pairs).columns_reused == 0


def test_preempted_pass_caches_nothing_and_the_retry_is_uninterrupted():
    traces, pairs = _chain_shaped_segment()
    reference = ColumnarSegmentProgressor(pairs)
    expected = [reference.progress_trace(t, 0, t.end_time) for t in traces]

    kernel = ColumnarSegmentProgressor(pairs)
    cancelled = Budget(check_every=1)
    cancelled.cancel("scripted")
    for position, trace in enumerate(traces):
        if position % 50 == 25:  # cancel mid-segment, then retry the trace
            before = (kernel.cached_cells, kernel.columns_reused, kernel.columns_computed)
            with pytest.raises(PreemptedError):
                kernel.progress_trace(trace, 0, trace.end_time, budget=cancelled)
            assert before == (
                kernel.cached_cells,
                kernel.columns_reused,
                kernel.columns_computed,
            )
        assert kernel.progress_trace(trace, 0, trace.end_time) == expected[position]
    assert kernel.cached_cells == reference.cached_cells


def test_cancelled_segment_retries_to_the_uninterrupted_outcome():
    """Budget cancel at an engine-chosen checkpoint mid-segment: the
    stream reports ``preempted``; a retry from scratch is the
    uninterrupted result."""
    computation = DistributedComputation.from_event_lists(
        3, {"P1": [(1, "a"), (3, ()), (5, "a")], "P2": [(2, ()), (4, "b"), (6, ())]}
    )
    hb = computation.happened_before()
    carried = {parse("G[0,20) (a -> F[0,4) b)"): 1}
    reference = enumerate_segment_outcomes(hb, 3, carried, None, 9)
    assert reference.traces_enumerated > 100

    budget = Budget(check_every=1)
    checkpoints = [0]

    def cancel_midway() -> None:
        checkpoints[0] += 1
        if checkpoints[0] == 300:
            budget.cancel("scripted")

    budget.poll_hook = cancel_midway
    interrupted = enumerate_segment_outcomes(hb, 3, carried, None, 9, budget=budget)
    assert interrupted.preempted
    assert 0 < interrupted.traces_enumerated < reference.traces_enumerated
    retry = enumerate_segment_outcomes(hb, 3, carried, None, 9)
    assert retry.id_counts() == reference.id_counts()
    assert retry.traces_enumerated == reference.traces_enumerated


def test_wide_column_under_the_default_trace_budget_stays_under_the_cap(monkeypatch):
    """2 000 residuals with as many distinct operands (the cache holds
    body rows only, so the operands are what make it wide) under the
    default 20 000-trace budget would be hundreds of millions of cells
    if every column were kept; the first traces already fill the fixed
    cap, after which nothing more is stored and the results equal a run
    whose cap never binds."""
    roots = [
        parse(f"G[0,{40 + k}) ({'a' if k % 2 else 'b'} -> F[0,{2 + k}) b)")
        for k in range(2000)
    ]
    pairs = [(intern_formula(root)._intern_id, 1) for root in roots]
    computation = DistributedComputation.from_event_lists(
        4,
        {
            "P1": [(2, "a"), (5, ()), (8, "a"), (11, "b")],
            "P2": [(3, "b"), (6, "a"), (9, ()), (12, "a")],
        },
    )
    traces = enumerate_traces(computation.happened_before(), 4, limit=DEFAULT_TRACE_BUDGET)
    sample = list(itertools.islice(traces, 0, 420, 7))

    capped = ColumnarSegmentProgressor(pairs)
    got = [capped.progress_trace(t, 0, t.end_time) for t in sample]
    cap = columnar._MAX_CACHED_CELLS
    assert 0 < capped.cached_cells <= cap

    monkeypatch.setattr(columnar, "_MAX_CACHED_CELLS", 1 << 40)
    uncapped = ColumnarSegmentProgressor(pairs)
    assert got == [uncapped.progress_trace(t, 0, t.end_time) for t in sample]
    # The cap did bind: without it the same traces keep more, reuse more.
    assert uncapped.cached_cells > cap
    assert uncapped.columns_reused > capped.columns_reused


# -- forward steps over shared prefixes ---------------------------------------------


def _steppable_column(f, g, h, window, reach) -> list[tuple[int, int]]:
    """As many roots as a forward kernel takes: a depth-3 formula under a
    window, predicate atoms, an until whose right operand is temporal,
    and a negated always.  ``h``, the until's left operand, is drawn
    temporal now and then, which only the kernel's guard keeps backward."""
    roots = [
        ast.always(f, reach),
        ast.eventually(ast.land(g, GAIN), window),
        ast.until(ast.lor(h, GAIN), ast.eventually(g, window), reach),
        ast.lnot(ast.always(ast.lor(f, ast.lnot(GAIN)), window)),
    ]
    assert len(roots) == columnar._FORWARD_MAX_ROOTS
    return [(intern_formula(root)._intern_id, k + 1) for k, root in enumerate(roots)]


@given(
    computation=small_computations(deltas=True),
    f=formulas(max_depth=3),
    g=formulas(max_depth=2),
    h=st.one_of(st.just(ast.atom("a")), formulas(max_depth=1)),
    window=intervals(),
    reach=intervals(),
    lead=st.integers(0, 3),
    shuffle=st.one_of(st.none(), st.randoms(use_true_random=False)),
)
@settings(max_examples=60, **_SETTINGS)
def test_forward_steps_equal_backward_pass_equal_object_walk(
    computation, f, g, h, window, reach, lead, shuffle
):
    """``progress_trace`` on a forward kernel == the backward pass's
    per-root results (``progress_roots``) merged == the object walk,
    over traces in DFS order (each trace shares its longest prefix with
    the one before) and shuffled (shares little), two boundaries each."""
    pairs = _steppable_column(f, g, h, window, reach)
    forward = ColumnarSegmentProgressor(pairs)
    assume(forward.steps_forward)
    hb = computation.happened_before()
    traces = list(enumerate_traces(hb, computation.epsilon, limit=200, **CONTEXT))
    anchor = min(trace.start_time for trace in traces) - lead
    hi = min(trace.end_time for trace in traces)
    if shuffle is not None:
        shuffle.shuffle(traces)

    backward = ColumnarSegmentProgressor(pairs)
    for trace in traces:
        shift = trace.start_time - anchor
        for boundary in (max(hi, trace.end_time), trace.end_time + 3):
            roots = backward.progress_roots(trace, shift, boundary)
            assert roots == _object_walk(pairs, trace, shift, boundary)
            merged: Counter = Counter()
            for rid, (_, count) in zip(roots, pairs):
                merged[rid] += count
            assert forward.progress_trace(trace, shift, boundary) == list(merged.items())
    positions = sum(map(len, traces))
    assert forward.steps_computed + forward.positions_shared == 2 * positions
    # A trace's second boundary re-anchors its whole path, computing nothing.
    assert forward.steps_computed <= positions <= forward.positions_shared
    assert forward.columns_computed == forward.columns_reused == 0

    whole = enumerate_segment_outcomes(
        hb, computation.epsilon, pairs, anchor, hi, max_traces=200, **CONTEXT
    ).id_counts()
    with _columnar(False):
        assert (
            enumerate_segment_outcomes(
                hb, computation.epsilon, pairs, anchor, hi, max_traces=200, **CONTEXT
            ).id_counts()
            == whole
        )


def test_an_until_with_a_temporal_left_operand_takes_the_backward_pass(monkeypatch):
    """Stepping ``l U r`` nests the progressed ``l`` over the next step's
    disjunction, ``l0 & (r1 | l1 & U)``, where the batch pass builds
    ``r0 | l0 & r1 | l0 & l1 & U``; with a temporal ``l`` the two are
    equivalent but not the same residual (``id_lor`` does not absorb).
    Hypothesis found the shape in the column above: f = a,
    g = F[3,4) a, window [0,1), reach [0,3)."""
    found = _column(
        ast.atom("a"), parse("F[3,4) a"), Interval.bounded(0, 1), Interval.bounded(0, 3)
    )
    assert not ColumnarSegmentProgressor(found).steps_forward

    pairs = [(intern_formula(parse("F[3,4) a U[0,3) a"))._intern_id, 1)]
    trace = TimedTrace((State.of(), State.of("a")), (0, 1))
    kernel = ColumnarSegmentProgressor(pairs)
    assert not kernel.steps_forward
    (walked,) = _object_walk(pairs, trace, 0, 1)
    assert kernel.progress_trace(trace, 0, 1) == [(walked, 1)]
    assert (kernel.columns_computed, kernel.steps_computed) == (len(trace), 0)
    assert str(formula_of(walked)) == "F[2,3) a | (F[2,3) a & F[3,4) a & (F[3,4) a U[0,2) a))"

    # Stepped anyway, the same trace ends absorbed: F[2,3) a.
    monkeypatch.setattr(columnar, "_steps_forward", lambda roots: True)
    ((stepped, _),) = ColumnarSegmentProgressor(pairs).progress_trace(trace, 0, 1)
    assert stepped == intern_formula(parse("F[2,3) a"))._intern_id != walked


def test_forward_counters_count_computed_steps_and_shared_positions():
    """Exact counts: a trace computes the positions after its longest
    common prefix with the previous trace — same state *objects*, same
    times, same shift — and shares the rest, whatever the boundary."""
    a, b, quiet = State.of("a"), State.of("b"), State.of()
    pairs = [(intern_formula(parse("G[0,9) (a -> F[0,3) b)"))._intern_id, 2)]
    kernel = ColumnarSegmentProgressor(pairs)
    assert kernel.steps_forward
    feed = [
        # (states, times, shift, boundary) -> (computed, shared) it adds
        (((a, b, quiet), (1, 2, 3), 0, 3), (3, 0)),
        (((a, b, a), (1, 2, 4), 0, 4), (1, 2)),
        (((a, quiet, b), (1, 2, 3), 0, 5), (2, 1)),
        (((a, quiet, b), (1, 2, 3), 0, 9), (0, 3)),  # another boundary only
        (((a, quiet, b), (1, 3, 3), 0, 9), (2, 1)),  # another time
        (((a, quiet, b), (1, 3, 3), 1, 9), (3, 0)),  # another shift
        (((State.of("a"), quiet, b), (1, 3, 3), 1, 9), (3, 0)),  # an equal, other state
    ]
    for (states, times, shift, boundary), (computed, shared) in feed:
        trace = TimedTrace(states, times)
        before = (kernel.steps_computed, kernel.positions_shared)
        (expected,) = _object_walk(pairs, trace, shift, boundary)
        assert kernel.progress_trace(trace, shift, boundary) == [(expected, 2)]
        assert kernel.steps_computed - before[0] == computed
        assert kernel.positions_shared - before[1] == shared
    assert kernel.columns_computed == kernel.columns_reused == kernel.head_rows_computed == 0


def test_dfs_order_computes_each_distinct_prefix_once():
    """Consecutive DFS traces share their longest common prefix, so the
    path of the previous trace is all the memory the sharing needs:
    steps computed == distinct prefixes (the DFS tree's nodes)."""
    traces, pairs = _chain_shaped_segment()
    kernel = ColumnarSegmentProgressor(pairs)
    assert kernel.steps_forward
    for trace in traces:
        kernel.progress_trace(trace, 0, trace.end_time)
    prefixes = {
        tuple(zip(map(id, trace.states[:k]), trace.times[:k]))
        for trace in traces
        for k in range(1, len(trace) + 1)
    }
    positions = sum(map(len, traces))
    assert kernel.steps_computed == len(prefixes) < positions / 2
    assert kernel.steps_computed + kernel.positions_shared == positions


def test_a_forward_kernel_steps_the_budget_once_per_computed_step():
    traces, pairs = _chain_shaped_segment()
    checkpoints = []
    budget = Budget(check_every=1, poll_hook=lambda: checkpoints.append(None))
    kernel = ColumnarSegmentProgressor(pairs)
    for trace in traces[:60]:
        kernel.progress_trace(trace, 0, trace.end_time, budget=budget)
    assert len(checkpoints) == kernel.steps_computed > 0


@pytest.mark.parametrize("cap", [columnar._MAX_PINNED_STATES, 3])
def test_fresh_states_per_trace_never_alias_a_freed_one(monkeypatch, cap):
    """A backend that builds new states per trace (the CSP one) frees
    them once the trace is done, and the next trace's states may reuse
    their addresses.  The memo is keyed on states the kernel pins, so an
    address always names one state — also across the memo's reset at
    its cap."""
    monkeypatch.setattr(columnar, "_MAX_PINNED_STATES", cap)
    pairs = [(intern_formula(parse("G[0,9) (a -> F[0,3) b)"))._intern_id, 1)]
    kernel = ColumnarSegmentProgressor(pairs)
    rng = random.Random(25)
    for _ in range(300):
        props = [frozenset(p for p in "ab" if rng.random() < 0.5) for _ in range(3)]
        trace = TimedTrace([State(p) for p in props], (1, 2, 4))
        (expected,) = _object_walk(pairs, trace, 0, 5)
        assert kernel.progress_trace(trace, 0, 5) == [(expected, 1)]
        del trace  # its states are freed now, unless the kernel pinned them
    assert kernel.positions_shared == 0
