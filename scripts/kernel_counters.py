#!/usr/bin/env python3
"""Count what the columnar kernel does on the ledger's batch workloads.

Runs one pass of every item of ``carried_fischer`` and ``chain_logs``
(the ledger's inputs, imported read-only from ``benchmarks/ledger``)
through ``SmtMonitor.run`` and prints, per workload and per kernel
strategy: kernels, traces, trace positions, forward steps computed and
positions shared with the previous trace, backward body columns
computed / reused, head rows, and the seconds spent in
``progress_trace`` (wall clock, this process)::

    python3 scripts/kernel_counters.py
    python3 scripts/kernel_counters.py --workload chain_logs --seed 7
    python3 scripts/kernel_counters.py --max-roots 0    # every kernel backward

``--max-roots`` overrides the widest column a kernel steps forward, for
sweeping the cut-off; the counts of the default are what DESIGN.md
cites.  Re-executes under ``PYTHONHASHSEED=0`` as the ledger does, so
truncated segments keep the same traces and the counts repeat.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))

import argparse
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))

from repro.encoding import verdict_enumerator  # noqa: E402
from repro.progression import columnar  # noqa: E402

import workloads  # noqa: E402

COLUMNS = (
    "kernels",
    "traces",
    "positions",
    "steps_computed",
    "positions_shared",
    "columns_computed",
    "columns_reused",
    "head_rows",
    "progress_s",
)


class CountedKernel(columnar.ColumnarSegmentProgressor):
    """The kernel, plus a trace count and the time spent in it."""

    __slots__ = ("traces", "seconds")
    created: list["CountedKernel"] = []

    def __init__(self, pairs) -> None:
        super().__init__(pairs)
        self.traces = 0
        self.seconds = 0.0
        CountedKernel.created.append(self)

    def progress_trace(self, trace, shift, boundary, budget=None):
        self.traces += 1
        started = time.perf_counter()
        try:
            return super().progress_trace(trace, shift, boundary, budget)
        finally:
            self.seconds += time.perf_counter() - started


def count(workload) -> dict[str, dict[str, float]]:
    """One pass over the workload's items; totals per strategy."""
    monitors = {key: config.monitor() for key, config in workload.configs.items()}
    CountedKernel.created.clear()
    for item in workload.items:
        monitors[item.config].run(item.build())
    rows = {strategy: dict.fromkeys(COLUMNS, 0) for strategy in ("forward", "backward")}
    for kernel in CountedKernel.created:
        row = rows["forward" if kernel.steps_forward else "backward"]
        row["kernels"] += 1
        row["traces"] += kernel.traces
        row["positions"] += (
            kernel.steps_computed
            + kernel.positions_shared
            + kernel.columns_computed
            + kernel.columns_reused
        )
        row["steps_computed"] += kernel.steps_computed
        row["positions_shared"] += kernel.positions_shared
        row["columns_computed"] += kernel.columns_computed
        row["columns_reused"] += kernel.columns_reused
        row["head_rows"] += kernel.head_rows_computed
        row["progress_s"] += kernel.seconds
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=("carried_fischer", "chain_logs"), action="append"
    )
    parser.add_argument("--seed", type=int, default=0, help="presentation order (ledger --seed)")
    parser.add_argument(
        "--max-roots", type=int, default=None, help="override the forward width cut-off"
    )
    args = parser.parse_args()
    if args.max_roots is not None:
        columnar._FORWARD_MAX_ROOTS = args.max_roots
    verdict_enumerator.ColumnarSegmentProgressor = CountedKernel

    print(f"| workload | strategy | {' | '.join(COLUMNS)} |")
    print("|---|---|" + "---|" * len(COLUMNS))
    for name in args.workload or ("carried_fischer", "chain_logs"):
        for strategy, row in count(workloads.batch_workload(name, args.seed)).items():
            cells = [f"{row[c]:.2f}" if c == "progress_s" else f"{row[c]:,}" for c in COLUMNS]
            print(f"| `{name}` | {strategy} | {' | '.join(cells)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
