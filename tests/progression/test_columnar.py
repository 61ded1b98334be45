"""The columnar kernel against the object-path progressor, node by node.

These are the narrow-differential companions to the end-to-end pipeline
tests in ``tests/monitor/test_differential.py``: one trace, one formula,
both engines — the results must be the *same canonical object* (not just
equal), because both paths intern into the same arena.
"""

from __future__ import annotations

import itertools
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed.computation import DistributedComputation
from repro.encoding.enumerator import enumerate_traces
from repro.errors import MonitorError
from repro.mtl import ast
from repro.mtl.interval import Interval
from repro.mtl.ast import formula_of, intern_formula
from repro.mtl.trace import State, TimedTrace
from repro.progression import columnar
from repro.progression.columnar import ColumnarSegmentProgressor
from repro.progression.progressor import anchor_shift, close, close_id, progress

from tests.conftest import ATOM_NAMES, formulas, intervals, timed_traces

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(formula=formulas(max_depth=3), trace=timed_traces(), pad=st.integers(0, 5))
@settings(max_examples=120, **_SETTINGS)
def test_columnar_matches_object_progression(formula, trace, pad):
    """One batch pass == one recursive walk, bit-identically."""
    interned = intern_formula(formula)
    boundary = trace.end_time + pad
    kernel = ColumnarSegmentProgressor([(interned._intern_id, 1)])
    ((rid, count),) = kernel.progress_trace(trace, 0, boundary)
    expected = progress(trace, interned, boundary)
    assert count == 1
    assert formula_of(rid) is expected


def _long_left_runs() -> st.SearchStrategy:
    """Traces of 6-16 observations on which ``a`` holds three times out
    of four: an until with ``a`` on the left scans far past its window
    and meets the occasional false left operand."""

    def build(held: list[bool], extra: list[set[str]], gaps: list[int], start: int):
        states = [
            State(frozenset(props | {"a"}) if keep else frozenset(props - {"a"}))
            for keep, props in zip(held, extra)
        ]
        times = list(itertools.accumulate(gaps[: len(states) - 1], initial=start))
        return TimedTrace(states, times)

    return st.integers(6, 16).flatmap(
        lambda n: st.builds(
            build,
            st.lists(st.sampled_from([True, True, True, False]), min_size=n, max_size=n),
            st.lists(st.sets(st.sampled_from(ATOM_NAMES), max_size=2), min_size=n, max_size=n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.integers(0, 5),
        )
    )


@given(
    left=st.one_of(st.just(ast.atom("a")), formulas(max_depth=1)),
    right=formulas(max_depth=2),
    window=intervals(max_bound=24),
    inner=intervals(max_bound=6),
    trace=_long_left_runs(),
    pad=st.integers(0, 30),
)
@settings(max_examples=150, **_SETTINGS)
def test_until_over_long_left_runs_matches_object_progression(
    left, right, window, inner, trace, pad
):
    """The kernel's until scan stops at the first false left operand and,
    with no tail residual due, at the window's end; the object walk scans
    everything.  Same canonical residual either way — closed and open
    windows, nested on either side, under negation."""
    plain = ast.until(left, right, window)
    shapes = [
        plain,
        ast.lnot(plain),
        ast.until(ast.always(left, inner), right, window),
        ast.until(left, ast.until(left, right, inner), window),
        ast.land(plain, ast.eventually(right, inner)),
    ]
    boundary = trace.end_time + pad
    pairs = [(intern_formula(shape)._intern_id, 1) for shape in shapes]
    column = ColumnarSegmentProgressor(pairs).progress_roots(trace, 0, boundary)
    for shape, rid in zip(shapes, column):
        assert formula_of(rid) is progress(trace, intern_formula(shape), boundary)


@given(
    formula=formulas(max_depth=3),
    trace=timed_traces(),
    pad=st.integers(0, 4),
    d=st.integers(0, 6),
)
@settings(max_examples=120, **_SETTINGS)
def test_shift_root_matches_anchor_shift(formula, trace, pad, d):
    """Id-level re-anchoring mirrors the object-level one exactly."""
    residual = progress(trace, intern_formula(formula), trace.end_time + pad)
    kernel = ColumnarSegmentProgressor([])
    shifted_id = kernel.shift_root(residual._intern_id, d)
    assert formula_of(shifted_id) is anchor_shift(residual, d)


@given(formula=formulas(max_depth=3), trace=timed_traces(), pad=st.integers(0, 4))
@settings(max_examples=120, **_SETTINGS)
def test_close_id_matches_structural_close(formula, trace, pad):
    """The arena-cached close verdict equals a fresh structural walk."""
    residual = progress(trace, intern_formula(formula), trace.end_time + pad)

    def reference(node: ast.Formula) -> bool:
        if isinstance(node, ast.TrueConst):
            return True
        if isinstance(node, ast.FalseConst):
            return False
        if isinstance(node, ast.Not):
            return not reference(node.operand)
        if isinstance(node, ast.And):
            return all(reference(op) for op in node.operands)
        if isinstance(node, ast.Or):
            return any(reference(op) for op in node.operands)
        if isinstance(node, (ast.Eventually, ast.Until)):
            return False
        assert isinstance(node, ast.Always)
        return True

    assert close_id(residual._intern_id) == reference(residual)
    assert close(residual) == reference(residual)


@given(
    left=formulas(max_depth=2),
    right=formulas(max_depth=2),
    trace=timed_traces(),
    pad=st.integers(0, 3),
)
@settings(max_examples=60, **_SETTINGS)
def test_multiple_roots_share_one_pass(left, right, trace, pad):
    """A two-root column progresses both, aligned, and the merged pairs
    keep the counts — summed when the roots collapse to one residual."""
    a = intern_formula(left)
    b = intern_formula(right)
    boundary = trace.end_time + pad
    kernel = ColumnarSegmentProgressor([(a._intern_id, 3), (b._intern_id, 5)])
    ra, rb = kernel.progress_roots(trace, 0, boundary)
    assert formula_of(ra) is progress(trace, a, boundary)
    assert formula_of(rb) is progress(trace, b, boundary)
    merged = kernel.progress_trace(trace, 0, boundary)
    assert merged == ([(ra, 8)] if ra == rb else [(ra, 3), (rb, 5)])


def test_constant_roots_pass_through():
    """TRUE/FALSE roots progress to themselves."""
    from repro.mtl.trace import State, TimedTrace

    trace = TimedTrace((State(frozenset({"a"})),), (0,))
    kernel = ColumnarSegmentProgressor(
        [(ast.TRUE_ID, 2), (ast.FALSE_ID, 7)]
    )
    assert kernel.progress_trace(trace, 0, 1) == [
        (ast.TRUE_ID, 2),
        (ast.FALSE_ID, 7),
    ]


def test_plan_cache_hits_across_progressor_instances():
    """The plan cache is process-local, not per-progressor: a second
    progressor over the same root set must *hit* the plans the first one
    compiled instead of recompiling them.  (Plans belong to the backward
    pass, so the column is wider than a forward kernel's.)"""
    from repro.mtl.parser import parse
    from repro.mtl.trace import State, TimedTrace
    from repro.progression.columnar import clear_plan_cache, plan_cache_stats

    pairs = [
        (intern_formula(parse(f"G[0,9) (a -> F[0,{k}) b)"))._intern_id, 1)
        for k in range(3, 3 + columnar._FORWARD_MAX_ROOTS + 1)
    ]
    trace = TimedTrace(
        (State(frozenset({"a"})), State(frozenset({"b"}))), (0, 1)
    )
    clear_plan_cache()
    try:
        first = ColumnarSegmentProgressor(pairs)
        assert not first.steps_forward
        first.progress_trace(trace, 0, 2)
        after_first = plan_cache_stats()
        assert after_first["misses"] >= 1
        assert after_first["size"] >= 1

        second = ColumnarSegmentProgressor(pairs)
        result = second.progress_trace(trace, 0, 2)
        after_second = plan_cache_stats()
        assert after_second["hits"] > after_first["hits"]
        assert after_second["misses"] == after_first["misses"]

        # And the cached plan computes the same residual, of course.
        assert result == first.progress_trace(trace, 0, 2)
    finally:
        clear_plan_cache()


def test_shift_root_rejects_negative_and_bare_atoms():
    kernel = ColumnarSegmentProgressor([])
    fid = intern_formula(ast.atom("a"))._intern_id
    try:
        kernel.shift_root(fid, -1)
    except MonitorError as exc:
        assert "backwards" in str(exc)
    else:  # pragma: no cover - defensive
        raise AssertionError("negative shift must be rejected")
    try:
        kernel.shift_root(fid, 2)
    except MonitorError as exc:
        assert "bare atom" in str(exc)
    else:  # pragma: no cover - defensive
        raise AssertionError("bare atoms must be rejected")


# -- head / body: grouped roots, position-0 heads, the flat shift -------------------


def _window(lo: int, hi: int | None) -> Interval:
    return Interval.unbounded(lo) if hi is None else Interval.bounded(lo, hi)


@given(
    f=formulas(max_depth=2),
    g=formulas(max_depth=2),
    lows=st.lists(st.integers(0, 4), min_size=2, max_size=4, unique=True),
    hi=st.one_of(st.none(), st.integers(5, 12)),
    d=st.sampled_from([0, 1, 2, 3, 4, 7, 40]),
    trace=timed_traces(),
    pad=st.integers(0, 6),
)
@settings(max_examples=150, **_SETTINGS)
def test_grouped_roots_equal_aligned_roots_equal_object_progression(
    f, g, lows, hi, d, trace, pad
):
    """Roots that differ only in a window start collapse once the shift
    passes it (``lo`` clamps at 0), and past ``hi`` fold to constants:
    the grouped table then scatters fewer entries than there are roots,
    and the merged pairs must still be the per-root results summed —
    which in turn are ``anchor_shift`` + the object walk, root for root."""
    roots: dict[ast.Formula, None] = {}
    for lo in lows:
        iv = _window(lo, hi)
        eventually, always = ast.eventually(f, iv), ast.always(g, iv)
        until = ast.until(f, g, iv)
        for root in (
            eventually,
            always,
            until,
            ast.land(eventually, ast.lnot(until)),
            ast.lor(always, ast.land(until, ast.eventually(g, _window(0, 5)))),
        ):
            roots[root] = None
    # Constant f / g collapse the roots to a few; the grouped table is
    # the backward pass's, so keep the column wider than a forward one.
    for lo in range(columnar._FORWARD_MAX_ROOTS + 1):
        roots[ast.eventually(ast.atom("q"), _window(lo, 50))] = None
    pairs = [(intern_formula(root)._intern_id, k + 1) for k, root in enumerate(roots)]
    boundary = trace.end_time + pad

    kernel = ColumnarSegmentProgressor(pairs)
    assert not kernel.steps_forward
    aligned = kernel.progress_roots(trace, d, boundary)
    assert aligned == [
        progress(trace, anchor_shift(root, d), boundary)._intern_id for root in roots
    ]
    summed: Counter = Counter()
    for rid, (_, count) in zip(aligned, pairs):
        summed[rid] += count
    merged = kernel.progress_trace(trace, d, boundary)
    assert len(merged) == len(summed) and dict(merged) == summed
    assert kernel.roots_scattered == len({kernel.shift_root(fid, d) for fid, _ in pairs})


def _guarded(max_leaves: int = 5) -> st.SearchStrategy[ast.Formula]:
    """Residual-shaped formulas: every atom under a temporal operator,
    temporal operators nested under each other and under NOT/AND/OR."""
    temporal = st.one_of(
        st.builds(ast.eventually, formulas(max_depth=2), intervals()),
        st.builds(ast.always, formulas(max_depth=2), intervals()),
        st.builds(ast.until, formulas(max_depth=1), formulas(max_depth=2), intervals()),
    )
    return st.recursive(
        temporal,
        lambda inner: st.one_of(
            st.builds(ast.lnot, inner),
            st.builds(ast.land, inner, inner),
            st.builds(ast.lor, inner, inner),
        ),
        max_leaves=max_leaves,
    )


@given(formula=_guarded(), d=st.one_of(st.integers(0, 12), st.just(60)))
@settings(max_examples=200, **_SETTINGS)
def test_flat_shift_matches_anchor_shift_on_nested_formulas(formula, d):
    """One ascending pass over the top-level closure re-anchors like the
    recursive object-level shift: outermost windows move (clamped, folded
    when elapsed — d = 60 is past every window), nested ones do not."""
    fid = intern_formula(formula)._intern_id
    shifted = ColumnarSegmentProgressor([]).shift_root(fid, d)
    assert formula_of(shifted) is anchor_shift(intern_formula(formula), d)


def test_a_trace_scatters_once_per_distinct_shifted_root_and_computes_its_head_once():
    """An un-truncated segment, six carried roots of which a shift >= 3
    leaves two distinct: every trace reads two grouped entries, not six,
    and computes its head rows once — not once per position."""
    computation = DistributedComputation.from_event_lists(
        2, {"P1": [(11, "a"), (13, ()), (15, "b")], "P2": [(12, "b"), (14, "a")]}
    )
    traces = list(enumerate_traces(computation.happened_before(), 2))
    assert all(len(trace) == 5 for trace in traces)
    anchor = min(trace.start_time for trace in traces) - 3
    roots = [
        ast.eventually(ast.atom("b"), Interval.bounded(lo, 20)) for lo in (0, 1, 2, 3)
    ] + [ast.always(ast.atom("a"), Interval.bounded(lo, 30)) for lo in (0, 3)]
    pairs = [(intern_formula(root)._intern_id, k + 1) for k, root in enumerate(roots)]

    kernel = ColumnarSegmentProgressor(pairs)
    merged: Counter = Counter()
    distinct = 0
    for trace in traces:
        shift = trace.start_time - anchor
        distinct += len({kernel.shift_root(fid, shift) for fid, _ in pairs})
        for rid, count in kernel.progress_trace(trace, shift, trace.end_time):
            merged[rid] += count
    assert distinct == 2 * len(traces) < len(pairs) * len(traces)
    assert kernel.roots_scattered == distinct
    # The roots are bare temporal nodes, so a head is exactly its
    # distinct shifted roots: one row each, at position 0 only.
    assert kernel.head_rows_computed == distinct
    assert kernel.columns_reused + kernel.columns_computed == 5 * len(traces)

    expected: Counter = Counter()
    for trace in traces:
        shift = trace.start_time - anchor
        for root, (_, count) in zip(roots, pairs):
            walked = progress(trace, anchor_shift(intern_formula(root), shift), trace.end_time)
            expected[walked._intern_id] += count
    assert merged == expected
