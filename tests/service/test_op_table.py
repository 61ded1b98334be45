"""The request executor's op table matches what it dispatches.

``KNOWN_OPS`` is the protocol's list of every op a worker understands;
these tests hold ``worker._dispatch`` to it in both directions.
"""

from __future__ import annotations

import os

import pytest

from repro.service import worker
from repro.transport.frames import KNOWN_OPS

#: Ride on the control id and never reach the dispatcher.
CONTROL_OPS = ("drop", "probe")


class _Exited(Exception):
    pass


def _dispatch_error(op: str) -> str:
    """Dispatch ``op`` with an empty payload; the error text, or ''."""
    try:
        worker._dispatch(op, None, {}, {})
    except Exception as exc:  # a malformed payload is fine, an unknown op is not
        return str(exc)
    return ""


@pytest.mark.parametrize("op", [op for op in KNOWN_OPS if op not in CONTROL_OPS])
def test_every_known_op_is_dispatched(op, monkeypatch):
    def exit_(code):
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)  # the "crash" op
    assert "unknown service op" not in _dispatch_error(op)


@pytest.mark.parametrize("op", ["shard", "segment_part", "no_such_op"])
def test_an_op_outside_the_table_is_unknown(op):
    assert op not in KNOWN_OPS
    assert "unknown service op" in _dispatch_error(op)
