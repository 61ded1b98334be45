"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.distributed.computation import DistributedComputation
from repro.mtl import ast
from repro.mtl.interval import INF, Interval
from repro.mtl.trace import State, TimedTrace

# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

ATOM_NAMES = ("a", "b", "c", "p", "q")


def intervals(max_bound: int = 12) -> st.SearchStrategy[Interval]:
    """Random non-empty intervals, bounded or unbounded."""

    def build(start: int, width: int, unbounded: bool) -> Interval:
        if unbounded:
            return Interval.unbounded(start)
        return Interval.bounded(start, start + width)

    return st.builds(
        build,
        st.integers(min_value=0, max_value=max_bound),
        st.integers(min_value=1, max_value=max_bound),
        st.booleans(),
    )


def formulas(max_depth: int = 3) -> st.SearchStrategy[ast.Formula]:
    """Random MTL formulas over a tiny alphabet."""
    leaves = st.sampled_from(
        [ast.atom(name) for name in ATOM_NAMES] + [ast.TRUE, ast.FALSE]
    )

    def extend(children: st.SearchStrategy[ast.Formula]) -> st.SearchStrategy[ast.Formula]:
        return st.one_of(
            st.builds(ast.lnot, children),
            st.builds(lambda a, b: ast.land(a, b), children, children),
            st.builds(lambda a, b: ast.lor(a, b), children, children),
            st.builds(ast.eventually, children, intervals()),
            st.builds(ast.always, children, intervals()),
            st.builds(lambda a, b, i: ast.until(a, b, i), children, children, intervals()),
        )

    return st.recursive(leaves, extend, max_leaves=max_depth * 3)


def states() -> st.SearchStrategy[State]:
    return st.builds(
        lambda props: State(frozenset(props)),
        st.sets(st.sampled_from(ATOM_NAMES), max_size=3),
    )


def timed_traces(min_length: int = 1, max_length: int = 6) -> st.SearchStrategy[TimedTrace]:
    """Random short traces with non-decreasing timestamps."""

    def build(state_list: list[State], gaps: list[int], start: int) -> TimedTrace:
        times = []
        current = start
        for gap in gaps[: len(state_list)]:
            times.append(current)
            current += gap
        return TimedTrace(state_list, times)

    length = st.integers(min_value=min_length, max_value=max_length)
    return length.flatmap(
        lambda n: st.builds(
            build,
            st.lists(states(), min_size=n, max_size=n),
            st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
            st.integers(min_value=0, max_value=5),
        )
    )


def small_computations(deltas: bool = False) -> st.SearchStrategy[DistributedComputation]:
    """Random 2-process computations small enough to enumerate exhaustively.

    With ``deltas``, about half the events also move the numeric variable
    ``x`` by a small integer (what predicate atoms evaluate against).
    """

    def build(seed: int, epsilon: int, counts: tuple[int, int]) -> DistributedComputation:
        rng = random.Random(seed)
        computation = DistributedComputation(epsilon)
        for process, count in zip(("P1", "P2"), counts):
            t = rng.randrange(0, 3)
            for _ in range(count):
                props = [name for name in ("a", "b") if rng.random() < 0.5]
                moved = {"x": rng.randrange(-2, 4)} if deltas and rng.random() < 0.5 else None
                computation.add_event(process, t, props, moved)
                t += rng.randrange(1, 4)
        return computation

    return st.builds(
        build,
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2)),
    )


# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def fig3_computation() -> DistributedComputation:
    """The paper's Fig 3 example: P1: a@1, {}@4; P2: a@2, b@5; epsilon 2."""
    return DistributedComputation.from_event_lists(
        2, {"P1": [(1, "a"), (4, ())], "P2": [(2, "a"), (5, "b")]}
    )


@pytest.fixture
def fig3_formula() -> ast.Formula:
    return ast.until(ast.atom("a"), ast.atom("b"), Interval.bounded(0, 6))
