"""Monitor registry and the ``make_monitor`` factory.

One construction surface for every monitoring engine::

    make_monitor(spec, "smt", segments=8)          # explicit kind
    make_monitor(spec, computation=comp)           # kind="auto" heuristics

``kind="auto"`` picks an engine from cheap hints — event count, the
epsilon skew window, and formula size — preferring the exact memoized
:class:`~repro.monitor.fast.FastMonitor` when the computation is small
enough for its bitmask recursion and falling back to the paper's
segmented :class:`~repro.monitor.smt_monitor.SmtMonitor` otherwise.
The registry is open: downstream code can plug in engines with
:func:`register_monitor`, and ``MonitorService`` workers (which build
every engine through ``make_monitor``) will pick them up.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Mapping

from repro.distributed.computation import DistributedComputation
from repro.errors import MonitorError
from repro.monitor.baseline import EnumerationMonitor
from repro.monitor.fast import FastMonitor
from repro.monitor.online import OnlineMonitor
from repro.monitor.protocol import Monitor
from repro.monitor.smt_monitor import SmtMonitor
from repro.mtl.ast import Formula

#: ``kind="auto"`` selects the fast monitor only below these thresholds
#: (the bitmask recursion is exponential in the worst case; the hard
#: event limit inside FastMonitor itself is 300).  These module constants
#: are the *static defaults*; the effective values live in the
#: calibration table below and can be overridden from measured crossover
#: points (``scripts/calibrate_factory.py``).
FAST_EVENT_LIMIT = 120
FAST_EPSILON_LIMIT = 25
FAST_FORMULA_LIMIT = 40

#: Auto-segmentation for the smt monitor: one segment per this many events.
EVENTS_PER_SEGMENT = 12

_DEFAULT_THRESHOLDS: dict[str, int] = {
    "fast_event_limit": FAST_EVENT_LIMIT,
    "fast_epsilon_limit": FAST_EPSILON_LIMIT,
    "fast_formula_limit": FAST_FORMULA_LIMIT,
    "events_per_segment": EVENTS_PER_SEGMENT,
}

#: The live auto-selection thresholds (mutated by calibration).
_thresholds: dict[str, int] = dict(_DEFAULT_THRESHOLDS)

#: Set this to a calibration JSON path to auto-load it on first import.
CALIBRATION_ENV_VAR = "REPRO_FACTORY_CALIBRATION"


def calibration() -> dict[str, int]:
    """The auto-selection thresholds currently in effect (a copy)."""
    return dict(_thresholds)


def apply_calibration(overrides: Mapping[str, int]) -> dict[str, int]:
    """Override auto-selection thresholds from a measured-crossover dict.

    Keys are a subset of ``{"fast_event_limit", "fast_epsilon_limit",
    "fast_formula_limit", "events_per_segment"}``; values must be
    positive integers.  Returns the thresholds now in effect.
    """
    for key, value in overrides.items():
        if key not in _DEFAULT_THRESHOLDS:
            raise MonitorError(
                f"unknown calibration key {key!r}; known: "
                + ", ".join(sorted(_DEFAULT_THRESHOLDS))
            )
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise MonitorError(
                f"calibration {key} must be a positive integer, got {value!r}"
            )
    _thresholds.update(overrides)
    return calibration()


def reset_calibration() -> dict[str, int]:
    """Restore the static default thresholds (returns them)."""
    _thresholds.clear()
    _thresholds.update(_DEFAULT_THRESHOLDS)
    return calibration()


def load_calibration(path: str) -> dict[str, int]:
    """Load and apply a calibration file written by
    ``scripts/calibrate_factory.py``.

    The file is JSON: either a flat overrides dict or a report object
    with the overrides under a ``"thresholds"`` key.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and isinstance(data.get("thresholds"), dict):
        data = data["thresholds"]
    if not isinstance(data, dict):
        raise MonitorError(f"calibration file {path} must hold a JSON object")
    return apply_calibration(data)


if os.environ.get(CALIBRATION_ENV_VAR):  # pragma: no cover - environment hook
    load_calibration(os.environ[CALIBRATION_ENV_VAR])

#: The only engine kwargs the fast monitor understands; auto-selection
#: falls back to "smt" when the caller passed anything else (segment or
#: budget knobs express intent the fast monitor cannot honour).
_FAST_KWARGS = frozenset({"timestamp_samples"})

MonitorFactory = Callable[..., Monitor]


def _make_smt(formula: Formula, *, epsilon: int | None = None, **kwargs) -> Monitor:
    return SmtMonitor(formula, **kwargs)


def _make_fast(formula: Formula, *, epsilon: int | None = None, **kwargs) -> Monitor:
    return FastMonitor(formula, **kwargs)


def _make_baseline(formula: Formula, *, epsilon: int | None = None, **kwargs) -> Monitor:
    return EnumerationMonitor(formula, **kwargs)


def _make_online(formula: Formula, *, epsilon: int | None = None, **kwargs) -> Monitor:
    if epsilon is None:
        raise MonitorError(
            "the online monitor needs the clock-skew bound: pass epsilon=... "
            "or computation=... to make_monitor"
        )
    return OnlineMonitor(formula, epsilon, **kwargs)


_REGISTRY: dict[str, MonitorFactory] = {
    "smt": _make_smt,
    "fast": _make_fast,
    "baseline": _make_baseline,
    "enumeration": _make_baseline,  # alias
    "online": _make_online,
}


def register_monitor(kind: str, factory: MonitorFactory) -> None:
    """Register (or replace) a monitor kind.

    ``factory(formula, *, epsilon=None, **kwargs)`` must return an object
    satisfying the :class:`~repro.monitor.protocol.Monitor` protocol.
    """
    if not kind or kind == "auto":
        raise MonitorError(f"invalid monitor kind {kind!r}")
    _REGISTRY[kind] = factory


def available_monitors() -> tuple[str, ...]:
    """The registered kind names, sorted."""
    return tuple(sorted(_REGISTRY))


def formula_size(formula: Formula) -> int:
    """Number of AST nodes — the factory's formula-complexity hint."""
    return sum(1 for _ in formula.walk())


def select_kind(
    formula: Formula,
    event_count: int | None = None,
    epsilon: int | None = None,
) -> str:
    """The ``kind="auto"`` heuristic.

    The fast monitor is exact and usually fastest, but its cut recursion
    is only tractable for small event counts, small skew windows (the
    timestamp domain has ``2*epsilon - 1`` points per event), and
    moderate formulas.  Without an event-count hint we default to the
    segmented smt monitor, which degrades gracefully everywhere.
    """
    if event_count is None:
        return "smt"
    if (
        event_count <= _thresholds["fast_event_limit"]
        and (epsilon is None or epsilon <= _thresholds["fast_epsilon_limit"])
        and formula_size(formula) <= _thresholds["fast_formula_limit"]
    ):
        return "fast"
    return "smt"


def make_monitor(
    formula: Formula,
    kind: str = "auto",
    *,
    computation: DistributedComputation | None = None,
    event_count: int | None = None,
    epsilon: int | None = None,
    **kwargs,
) -> Monitor:
    """Build a monitor for ``formula``.

    ``kind`` is one of :func:`available_monitors` or ``"auto"``;
    ``computation`` (or the explicit ``event_count``/``epsilon`` hints)
    feeds the auto-selection heuristics and supplies the online monitor's
    epsilon.  Remaining keyword arguments go to the engine's constructor.
    """
    if computation is not None:
        if event_count is None:
            event_count = len(computation)
        if epsilon is None:
            epsilon = computation.epsilon
    if kind == "auto":
        kind = select_kind(formula, event_count=event_count, epsilon=epsilon)
        if kind == "fast" and set(kwargs) - _FAST_KWARGS:
            kind = "smt"
        if kind == "smt" and event_count and "segments" not in kwargs:
            kwargs["segments"] = max(1, event_count // _thresholds["events_per_segment"])
    try:
        factory = _REGISTRY[kind]
    except KeyError:
        raise MonitorError(
            f"unknown monitor kind {kind!r}; available: {', '.join(available_monitors())}"
        ) from None
    return factory(formula, epsilon=epsilon, **kwargs)
