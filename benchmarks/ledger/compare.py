"""``run.py --compare A.json B.json``: B against A, metric by metric.

Each file is what ``run.py --runs N --out FILE`` wrote: N runs of every
workload.  One row per (workload, end-to-end metric): both medians, the
ratio with A as its base, the bound from ``BENCHMARK.json``, and

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regression``  it is;
* ``unresolved``  either side's own quartile spread is wider than the
                  bound, so the runs cannot tell (needs >= 2 runs a side).

``failed_share`` has no relative bound: any rise is a regression.  Count
metrics must be equal to the unit.
"""

from __future__ import annotations

import json
import statistics

from stats import quartile_spread

#: Per-layer counts that are pure functions of (seed, code): they must
#: repeat exactly between the two files.  Counts that depend on thread
#: timing (frames sent across a faulty link, checkpoints applied) are
#: left out.
EXACT_COUNTS = (
    "encoding.traces",
    "progression.residual_steps",
    "progression.peak_distinct_residuals",
    "transport.frames",
    "transport.frame_bytes",
    "transport.pickle_frames",
    "faults.frames_dropped",
)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _values(result: dict, workload: str, group: str, metric: str) -> list[float]:
    return [run[workload][group][metric] for run in result["runs"] if metric in run[workload][group]]


def _spread(values) -> float | None:
    return quartile_spread(values) if len(values) >= 2 else None


def refusal(a: dict, b: dict) -> str | None:
    """Why the two results cannot be compared, if they cannot."""
    for key in ("schema", "seed", "seconds"):
        if a.get(key) != b.get(key):
            return f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
    for side, result in (("A", a), ("B", b)):
        if not result.get("comparable", False):
            return f"{side} is marked non-comparable (a self-test or partial run)"
    if set(a["runs"][0]) != set(b["runs"][0]):
        return "the workload sets differ"
    return None


def verdict(a_values, b_values, better: str, bound: float) -> tuple[str, float]:
    """``(ok | regression | unresolved, B median / A median)``."""
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    ratio = b_median / a_median if a_median else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = [s for s in (_spread(a_values), _spread(b_values)) if s is not None]
    if any(spread > bound for spread in spreads):
        return "unresolved", ratio
    return ("regression" if worse_by > bound else "ok"), ratio


def main(path_a: str, path_b: str, manifest: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    why = refusal(a, b)
    if why:
        print(f"refusing to compare: {why}")
        return 2
    bad = 0
    print(f"{'workload':<16} {'metric':<24} {'A median':>12} {'B median':>12} {'B/A':>7} {'bound':>6}  verdict")
    for workload in a["runs"][0]:
        for spec in manifest["end_to_end"]:
            a_values = _values(a, workload, "end_to_end", spec["name"])
            b_values = _values(b, workload, "end_to_end", spec["name"])
            outcome, ratio = verdict(a_values, b_values, spec["better"], spec["bound"])
            bad += outcome != "ok"
            print(
                f"{workload:<16} {spec['name']:<24} {statistics.median(a_values):>12.4f} "
                f"{statistics.median(b_values):>12.4f} {ratio:>7.3f} {spec['bound']:>6.2f}  {outcome}"
            )
        a_failed = max(_values(a, workload, "end_to_end", "failed_share"))
        b_failed = max(_values(b, workload, "end_to_end", "failed_share"))
        outcome = "regression" if b_failed > a_failed else "ok"
        bad += outcome != "ok"
        print(f"{workload:<16} {'failed_share':<24} {a_failed:>12.4f} {b_failed:>12.4f} {'':>7} {'abs 0':>6}  {outcome}")
        for name in EXACT_COUNTS:
            a_counts = set(_values(a, workload, "per_layer", name))
            b_counts = set(_values(b, workload, "per_layer", name))
            if a_counts != b_counts or len(a_counts) > 1:
                bad += 1
                print(f"{workload:<16} {name:<24} counts differ: A {sorted(a_counts)} B {sorted(b_counts)}")
    print("all pairs ok" if not bad else f"{bad} pair(s) not ok")
    return 1 if bad else 0
