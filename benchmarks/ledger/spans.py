"""In-memory span recorder for the traced pass.

Spans are opened from the ledger's own files around calls into each
``repro`` layer; nothing inside ``src/`` is instrumented.  A span has a
name (``<layer>.<stage>``), a start and end (``time.perf_counter``
seconds), the index of the span that caused it, and the request it
belongs to (a computation index, or ``"<session>:<advance#>"``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        """Time the enclosed block as one span."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "request": request,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span counted minus its children."""
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span["end"] - span["start"] - child_total[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end before they start or leave their parent's interval."""
    errors = []
    for index, span in enumerate(spans):
        if span["end"] < span["start"]:
            errors.append(f"span {index} ({span['name']}) ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        if not 0 <= parent < index:
            errors.append(f"span {index} ({span['name']}) has parent {parent}")
            continue
        outer = spans[parent]
        if span["start"] < outer["start"] or span["end"] > outer["end"]:
            errors.append(
                f"span {index} ({span['name']}) leaves its parent "
                f"{parent} ({outer['name']})"
            )
    return errors
