"""Percentiles, spreads and ``/proc`` readers shared by the ledger."""

from __future__ import annotations

import os
import statistics

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(samples, p: float) -> float:
    """The ``p``-th percentile (nearest rank), ``0 < p < 100``.

    Raises :class:`ValueError` when fewer than ten samples lie beyond
    the requested rank: a p95 of 100 samples rests on five values.
    """
    ordered = sorted(samples)
    count = len(ordered)
    rank = -(-count * p // 100)  # ceil(count * p / 100), 1-based
    if count - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} of {count} samples has {max(count - rank, 0):g} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return ordered[int(rank) - 1]


def verdict_key(verdict_counts) -> tuple:
    """A verdict multiset in a form that compares and prints the same
    whatever order the verdicts were recorded in."""
    return tuple(sorted(verdict_counts.items()))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def cpu_seconds(pids) -> float:
    """User + system CPU seconds of the given live processes."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # The command name may hold spaces; fields resume after ")".
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def peak_rss_mb(pids) -> float:
    """Largest resident-set high-water mark among the processes, in MiB."""
    peak = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
                    break
    return peak
