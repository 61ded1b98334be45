"""Randomized differential tests: every monitor, one verdict multiset.

The repo documents SmtMonitor (unsegmented, unsaturated), FastMonitor,
and the explicit-enumeration baseline as *verdict-multiset-equivalent*;
these property tests make that claim continuously checked instead of
asserted.  The solver backends ("dfs" vs the paper-literal "csp" cut
encoding) are likewise cross-checked.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings

from repro.monitor.baseline import EnumerationMonitor
from repro.monitor.fast import FastMonitor
from repro.monitor.online import OnlineMonitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.monitor.verdicts import MonitorResult
from repro.progression.progressor import close_id

from tests.conftest import formulas, small_computations
from tests.mtl.test_interning import structural_clone

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=40, **_SETTINGS)
def test_smt_fast_baseline_agree(computation, formula):
    """The three offline monitors produce identical verdict multisets."""
    baseline = EnumerationMonitor(formula).run(computation)
    smt = SmtMonitor(formula, segments=1, saturate=False).run(computation)
    fast = FastMonitor(formula).run(computation)
    assert smt.verdict_counts == baseline.verdict_counts
    assert fast.verdict_counts == baseline.verdict_counts
    assert smt.exhaustive and fast.exhaustive and baseline.exhaustive


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=20, **_SETTINGS)
def test_csp_backend_agrees_with_dfs(computation, formula):
    """The paper-literal CSP cut encoding enumerates the same multiset."""
    dfs = SmtMonitor(formula, segments=1, saturate=False, backend="dfs").run(computation)
    csp = SmtMonitor(formula, segments=1, saturate=False, backend="csp").run(computation)
    assert csp.verdict_counts == dfs.verdict_counts


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=40, **_SETTINGS)
def test_interned_equals_structural(computation, formula):
    """Interning is invisible to verdicts: a formula rebuilt through the
    raw (non-interning) constructors produces a bit-identical verdict
    multiset to the canonical instance, across engines and segmentation."""
    clone = structural_clone(formula)
    assert clone == formula
    interned = SmtMonitor(formula, segments=1, saturate=False).run(computation)
    structural = SmtMonitor(clone, segments=1, saturate=False).run(computation)
    assert structural.verdict_counts == interned.verdict_counts
    segmented_interned = SmtMonitor(formula, segments=3, saturate=False).run(computation)
    segmented_structural = SmtMonitor(clone, segments=3, saturate=False).run(computation)
    assert segmented_structural.verdict_counts == segmented_interned.verdict_counts


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=20, **_SETTINGS)
def test_saturation_is_lossless_for_the_verdict_set(computation, formula):
    """Stopping enumeration once both verdicts are witnessed (the default
    ``saturate=True``) may make counts partial but never changes the
    verdict *set*."""
    exact = SmtMonitor(formula, segments=1, saturate=False).run(computation)
    saturated = SmtMonitor(formula, segments=1, saturate=True).run(computation)
    assert saturated.verdicts == exact.verdicts
    assert saturated.verdict_set_complete


# -- columnar <-> object path ----------------------------------------------------


@contextmanager
def _columnar(enabled: bool):
    """Select the progression engine for the enclosed workload."""
    previous = os.environ.get("REPRO_COLUMNAR")
    os.environ["REPRO_COLUMNAR"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_COLUMNAR", None)
        else:
            os.environ["REPRO_COLUMNAR"] = previous


def _pipeline_trajectory(formula, computation, segments):
    """Verdict counts plus the carried ``{arena id: count}`` after *every*
    segment (ids are canonical per structure within a process, so equal
    dicts mean equal residual formulas).

    Drives the resumable ``step`` API directly so the intermediate
    carried sets — not just the final verdicts — are comparable between
    the columnar kernel and the legacy object walk.
    """
    engine = SmtMonitor(formula, segments=segments, saturate=False)
    result = MonitorResult(formula)
    hb = computation.happened_before()
    segs = engine.segments_of(computation)
    state = engine.initial_state()
    carried_per_segment = []
    for order in range(len(segs)):
        if not state.column:
            break
        state = engine.step(hb, segs, order, state, result, computation.epsilon)
        carried_per_segment.append(dict(state.column))
    for fid, count in state.column:
        result.record(close_id(fid), count)
    return result.verdict_counts, carried_per_segment


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=30, **_SETTINGS)
def test_columnar_equals_object_path(computation, formula):
    """The columnar kernel and the legacy object walk are bit-identical:
    same verdict multisets AND same carried residual dicts at every
    segment boundary, serial and segmented."""
    for segments in (1, 3):
        with _columnar(True):
            col_counts, col_carried = _pipeline_trajectory(
                formula, computation, segments
            )
        with _columnar(False):
            obj_counts, obj_carried = _pipeline_trajectory(
                formula, computation, segments
            )
        assert col_counts == obj_counts
        assert col_carried == obj_carried


@given(computation=small_computations(), formula=formulas(max_depth=2))
@settings(max_examples=15, **_SETTINGS)
def test_columnar_snapshot_restores_onto_object_path(computation, formula):
    """A session snapshot taken mid-stream under the columnar kernel
    restores and finishes bit-identically under the object path (and
    vice versa): the snapshot wire format carries materialized formulas,
    never arena ids."""
    events = sorted(computation.events, key=lambda e: (e.local_time, e.process, e.seq))
    if len(events) < 2:
        return
    cut = events[len(events) // 2].local_time + 1
    epsilon = computation.epsilon

    def run_split(first_columnar: bool, second_columnar: bool):
        with _columnar(first_columnar):
            origin = OnlineMonitor(formula, epsilon)
            for event in events:
                if event.local_time < cut:
                    origin.observe(event.process, event.local_time, event.props)
            origin.advance_to(cut)
            snapshot = pickle.loads(pickle.dumps(origin.snapshot()))
        with _columnar(second_columnar):
            restored = OnlineMonitor.restore(snapshot)
            for event in events:
                if event.local_time >= cut:
                    restored.observe(event.process, event.local_time, event.props)
            return restored.finish()

    baseline = run_split(False, False)
    for flags in ((True, True), (True, False), (False, True)):
        result = run_split(*flags)
        assert result.verdict_counts == baseline.verdict_counts
        assert result.verdicts == baseline.verdicts


#: Every monitor with a trace budget, built with a given budget.
_BUDGETED = {
    "smt": lambda spec, budget: SmtMonitor(
        spec, saturate=False, max_traces_per_segment=budget
    ),
    "baseline": lambda spec, budget: EnumerationMonitor(spec, max_traces=budget),
    "online": lambda spec, budget: OnlineMonitor(
        spec, 2, max_traces_per_segment=budget
    ),
}


@pytest.mark.parametrize("budget", [1, 10, 100])
@pytest.mark.parametrize("kind", sorted(_BUDGETED))
def test_truncated_verdict_set_is_not_claimed_complete(
    kind, budget, fig3_computation, fig3_formula
):
    """A trace budget that cuts enumeration short may miss a verdict, so
    a truncated result whose verdict set is smaller than the whole one
    must not claim the set complete."""
    build = _BUDGETED[kind]
    whole = build(fig3_formula, None).run(fig3_computation)
    assert whole.verdict_counts == {True: 112, False: 18}
    assert whole.exhaustive and whole.verdict_set_complete
    truncated = build(fig3_formula, budget).run(fig3_computation)
    assert not truncated.exhaustive
    if budget == 1:
        assert truncated.verdicts < whole.verdicts
    if truncated.verdicts < whole.verdicts:
        assert not truncated.verdict_set_complete
