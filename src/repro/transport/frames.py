"""Typed Request/Response frames and their wire encoding.

The service's wire protocol used to be implicit: plain dataclasses
pickled through ``multiprocessing`` queues and pipes.  This module makes
it explicit so the same frames can cross process boundaries *and*
sockets:

* :class:`Request` / :class:`Response` — the only two frame types.  One
  request produces exactly one response, matched by ``request_id``;
  responses may interleave arbitrarily across requests, so clients must
  resolve by id, never by arrival order.  Two ids are reserved:
  :data:`HEARTBEAT_ID` (liveness pings, answered out-of-band and never
  surfaced to callers) and :data:`CONTROL_ID` (fire-and-forget control
  frames such as ``drop``, which get no response).

* **Versioned, length-prefixed encoding** — every frame on the wire is
  ``magic (2) | version (1) | length (4, big-endian) | payload``.  The
  length prefix makes stream transports (TCP) self-delimiting; the magic
  and version bytes reject cross-version peers with a clear
  :class:`~repro.errors.ServiceError` instead of a pickle explosion.

* **Codec interface** — the payload bytes are produced by a
  :class:`Codec` (default :class:`PickleCodec`).  Pickle is the codec,
  not the protocol: a msgpack/json codec for cross-language workers only
  has to implement ``encode``/``decode``.

* **Packed observe-batch fast path** — ``session_observe`` requests (the
  per-event hot path of every live session) are struct-packed into a
  :data:`FRAME_VERSION_PACKED` frame instead of pickled, negotiated per
  frame through the existing version byte: a frame's version says how
  its payload was encoded, so packed frames ride beside pickled ones on
  the same connection and a peer that does not know the packed version
  rejects it with a clear error instead of misreading it.  Beyond speed,
  the packed decoder never runs pickle on the highest-volume frame type
  (``REPRO_WIRE_FASTPATH=0`` disables the packing side; decoding is
  always understood).
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Protocol

from repro.errors import ServiceError

#: Reserved request id for liveness pings (answered by the peer's reader
#: thread even while its executor is busy; never resolved to a future).
HEARTBEAT_ID = -1

#: Reserved request id for fire-and-forget control frames (no response).
CONTROL_ID = -2

#: Reserved request id for the connection-open auth handshake (see
#: :mod:`repro.transport.auth`): the challenge, its answer, and the
#: server's acknowledgement (or typed ``AuthError`` rejection) all ride
#: on this id, strictly before any other frame is dispatched.
AUTH_ID = -3

#: Reserved request id for unsolicited cluster-membership events pushed
#: by the :class:`~repro.cluster.ClusterRegistry` to its subscribers.
#: Never resolved to a future — subscribers route it to their event
#: callback instead.
REGISTRY_EVENT_ID = -4

#: Session-migration ops (see the frame-op table in DESIGN.md): snapshot
#: serializes one live session's full monitor state off its worker;
#: restore rehydrates that state under the same session id on another.
#: Named here — not just in the worker's dispatch — because both sides
#: of the wire and the client-side migration logic must agree on them.
SNAPSHOT_SESSION = "session_snapshot"
RESTORE_SESSION = "session_restore"

#: Durability ops (see the "Durability" section in DESIGN.md).
#: ``session_snapshot`` doubles as the checkpoint frame — it is
#: serialize-but-keep, exactly what a periodic checkpoint needs.  The
#: standby trio manages warm replicas: ``session_standby`` stores a
#: snapshot payload tagged with its checkpoint sequence number on a peer
#: endpoint *without* rehydrating it (cheap: no monitor is built),
#: ``session_promote`` turns a stored standby into the live monitor at
#: failover (so recovery is journal-replay only, no snapshot transfer) —
#: but only when the stored sequence matches the one the promote
#: expects, so a replica that went stale behind the client's truncated
#: replay journal is rejected instead of losing history silently — and
#: ``session_standby_drop`` discards a standby that is no longer wanted
#: (session finished, replica moved or retired).
STANDBY_SESSION = "session_standby"
PROMOTE_SESSION = "session_promote"
DROP_STANDBY = "session_standby_drop"

#: The exact error string a worker answers for a request it skipped
#: because a ``drop`` control frame arrived first.  Work stealing keys on
#: it: this ack *proves* the request never started executing, so
#: resubmitting it elsewhere cannot double-execute.  Any other response
#: to a dropped request means the drop lost its race.
DROPPED_BEFORE_EXECUTION = "CancelledError: dropped before execution"

#: Error-string prefix of the executor's idempotency fence: a request
#: whose id is at or below the connection's high-water mark is a
#: duplicated or reordered frame and is *refused without executing*.
#: Request ids on one connection strictly increase (the service's
#: monotone counter + FIFO sends), so under faults this fence upgrades
#: the at-most-once guarantee from "a drop-ack proves it never started"
#: to "no frame can ever execute twice, however the network replays it".
STALE_REQUEST_PREFIX = "ServiceError: stale request id"

#: Every op the request executor understands, for conformance checks and
#: protocol docs.  ``drop`` and ``probe`` ride on :data:`CONTROL_ID` and
#: produce no response of their own (a probe may make the worker mint a
#: drop ack or re-send a cached reply); everything else produces exactly
#: one.
KNOWN_OPS = (
    "monitor",
    "session_open",
    "session_observe",
    "session_advance",
    "session_poll",
    "session_finish",
    "session_close",
    SNAPSHOT_SESSION,
    RESTORE_SESSION,
    STANDBY_SESSION,
    PROMOTE_SESSION,
    DROP_STANDBY,
    "ping",
    "echo",
    "sleep",
    "crash",
    "drop",
    "probe",
)

FRAME_MAGIC = b"RV"
FRAME_VERSION = 1

#: Frame version for struct-packed ``session_observe`` requests.  The
#: version byte is per *frame*, so packed and pickled frames interleave
#: freely on one connection.
FRAME_VERSION_PACKED = 2

#: Frame version for struct-packed fixed-shape session calls
#: (``session_advance`` / ``session_poll``) — with observe these cover
#: the entire per-event hot loop of a live session, so a feeding client
#: runs pickle-free on the wire between checkpoints.
FRAME_VERSION_PACKED_CALL = 3

#: Versions this side understands on receive.
KNOWN_FRAME_VERSIONS = (FRAME_VERSION, FRAME_VERSION_PACKED, FRAME_VERSION_PACKED_CALL)

#: Sanity bound: a length prefix beyond this is treated as a corrupt or
#: hostile stream, not an allocation request.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">2sBI")
HEADER_SIZE = _HEADER.size


@dataclass
class Request:
    """One unit of work for a pool worker."""

    request_id: int
    op: str
    payload: Any


@dataclass
class Response:
    """The worker's answer to one request.

    ``op`` echoes the request's op when the executor knows it — it is
    advisory (clients match responses by ``request_id`` alone) but lets
    the encoder pick a packed ack representation for fixed-shape ops.
    """

    request_id: int
    payload: Any = None
    error: str | None = None
    worker: int = 0
    op: str | None = None


class Codec(Protocol):
    """Payload serializer: turns frame objects into bytes and back."""

    name: str

    def encode(self, obj: Any) -> bytes: ...

    def decode(self, data: bytes) -> Any: ...


class PickleCodec:
    """The default codec (highest pickle protocol)."""

    name = "pickle"

    def encode(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Any:
        return pickle.loads(data)


DEFAULT_CODEC = PickleCodec()


# -- packed observe-batch fast path -------------------------------------------------

#: The op whose requests take the packed fast path.
OBSERVE_OP = "session_observe"

#: ``REPRO_WIRE_FASTPATH=0`` falls back to pickling observe batches
#: (decoding packed frames from a peer still works either way).
PACK_OBSERVE_BATCHES = os.environ.get("REPRO_WIRE_FASTPATH", "1") != "0"

#: request_id, session_id, event count, distinct-string count
_PACK_HEAD = struct.Struct(">qqIH")
_PACK_U16 = struct.Struct(">H")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: Largest integer an IEEE double represents exactly; integer delta
#: values beyond it would silently change through the ``d`` conversion.
_DOUBLE_EXACT_INT = 1 << 53


def pack_observe_request(request: "Request") -> bytes | None:
    """Struct-pack a ``session_observe`` request payload, or ``None``.

    Strictly shape-checked: anything that is not exactly the session
    surface's ``(session_id, [(process, local_time, props, deltas), ...])``
    (or whose integers overflow the packed field widths) returns ``None``
    and takes the pickle path — the fast path must never change what the
    peer decodes.

    Layout after the frame header: the fixed head; a *string table*
    (every distinct process name / proposition / delta key, u16-length-
    prefixed, in first-use order — event streams repeat a small
    vocabulary, so each string crosses the wire once); then seven
    *columnar* sections, each one uniform ``struct`` array (one C-level
    pack/unpack call per section instead of per event)::

        proc_idx:   nevents * H     (string-table index per event)
        time:       nevents * q
        nprops:     nevents * H
        props:      sum(nprops) * H (flattened string-table indices)
        delta_tag:  nevents * H     (0xFFFF = deltas is None, else count)
        delta_keys: sum(tags) * H
        delta_vals: sum(tags) * d

    Note one narrowing: integer delta *values* cross as IEEE doubles
    (the session surface's deltas are numeric sums, consumed as floats).
    """
    payload = request.payload
    if type(payload) is not tuple or len(payload) != 2:
        return None
    return _pack_events(request.request_id, *payload)


def _pack_events(request_id, session_id, events) -> bytes | None:
    """The packed observe body (head + string table + columns), which
    the coalesced advance/finish calls carry behind their own head."""
    if (
        type(request_id) is not int
        or type(session_id) is not int
        or type(events) not in (list, tuple)
        or not _INT64_MIN <= request_id <= _INT64_MAX
        or not _INT64_MIN <= session_id <= _INT64_MAX
        or len(events) > 0xFFFFFFFF
    ):
        return None
    strings: dict[str, int] = {}
    proc_col: list[int] = []
    time_col: list[int] = []
    nprops_col: list[int] = []
    props_col: list[int] = []
    tag_col: list[int] = []
    key_col: list[int] = []
    value_col: list[float] = []
    # Hot loop: hoisted bound methods, and ``setdefault(s, len(strings))``
    # as the one-call string-table ref (the default is evaluated before
    # insertion, so it is exactly the next index on a miss).
    ref = strings.setdefault
    proc_append, time_append = proc_col.append, time_col.append
    nprops_append, props_append = nprops_col.append, props_col.append
    tag_append, key_append, value_append = (
        tag_col.append,
        key_col.append,
        value_col.append,
    )
    try:
        for event in events:
            if type(event) is not tuple or len(event) != 4:
                return None
            process, local_time, props, deltas = event
            proc_append(ref(process, len(strings)))
            time_append(local_time)
            if type(props) is not frozenset or len(props) >= 0xFFFF:
                return None
            nprops_append(len(props))
            for prop in props:
                props_append(ref(prop, len(strings)))
            if deltas is None:
                tag_append(0xFFFF)
            else:
                if type(deltas) is not dict or len(deltas) >= 0xFFFF:
                    return None
                tag_append(len(deltas))
                for key, value in deltas.items():
                    if type(value) is int and not (
                        -_DOUBLE_EXACT_INT <= value <= _DOUBLE_EXACT_INT
                    ):
                        return None  # would lose precision as a double
                    key_append(ref(key, len(strings)))
                    value_append(value)
        if len(strings) >= 0xFFFF:
            return None  # table indices are u16; a batch this odd takes pickle
        count = len(events)
        out = [
            _PACK_HEAD.pack(request_id, session_id, count, len(strings))
        ]
        for text in strings:
            data = text.encode()
            if len(data) > 0xFFFF:
                return None
            out.append(_PACK_U16.pack(len(data)))
            out.append(data)
        out.append(struct.pack(f">{count}H", *proc_col))
        out.append(struct.pack(f">{count}q", *time_col))
        out.append(struct.pack(f">{count}H", *nprops_col))
        out.append(struct.pack(f">{len(props_col)}H", *props_col))
        out.append(struct.pack(f">{count}H", *tag_col))
        out.append(struct.pack(f">{len(key_col)}H", *key_col))
        out.append(struct.pack(f">{len(value_col)}d", *value_col))
    except (struct.error, TypeError, AttributeError, OverflowError):
        # A value escaped the shape checks (non-int time, non-str prop or
        # key, boolean, out-of-range int, non-numeric delta): fall back.
        return None
    return b"".join(out)


# -- packed fixed-shape session calls (advance / poll / finish / open) ----------------

#: Ops whose requests take the :data:`FRAME_VERSION_PACKED_CALL` path.
ADVANCE_OP = "session_advance"
POLL_OP = "session_poll"
FINISH_OP = "session_finish"
OPEN_OP = "session_open"

#: opcode (1 = advance, 2 = poll, 3 = finish), request_id, session_id,
#: argument (the advance boundary; zero-padded for poll and finish).
_PACK_CALL = struct.Struct(">Bqqq")
_CALL_ADVANCE = 1
_CALL_POLL = 2
_CALL_FINISH = 3
#: Variable-length v3 opcodes: ``session_open`` requests and the two
#: session-lifecycle ack responses.  One opcode byte leads every v3
#: payload, so the decoder dispatches per opcode instead of insisting on
#: the fixed 25-byte shape.
_CALL_OPEN = 4
_ACK_OPEN = 5
_ACK_FINISH = 6
#: One frame per boundary: an advance (or finish) that carries the
#: client's buffered events — this head, then the packed observe body
#: (which holds the request and session ids).
_CALL_ADVANCE_EVENTS = 7
_CALL_FINISH_EVENTS = 8
_PACK_EVENTS_HEAD = struct.Struct(">Bq")  # opcode, boundary (0 for finish)

_PACK_OPEN_HEAD = struct.Struct(">Bqqq")  # opcode, request_id, session_id, epsilon
_PACK_ACK_FINISH_HEAD = struct.Struct(">Bqq")  # opcode, request_id, worker
_PACK_REPORT = struct.Struct(">qqqqB")  # index, events, traces, distinct, flags
_PACK_U32 = struct.Struct(">I")
_PACK_I64 = struct.Struct(">q")

#: ``session_open`` kwargs the packed shape understands; anything else in
#: the kwargs dict sends the request down the pickle path.
_OPEN_KWARGS = frozenset({"max_traces_per_segment", "backend"})


def _formula_wire_text(formula) -> bytes | None:
    """The formula's parseable text, or ``None`` when it does not round-trip.

    The packed path only ships formulas whose :func:`~repro.mtl.parser.parse`
    of ``str(formula)`` reproduces the value exactly — predicate atoms
    (which wrap callables) and any future non-printable node fail the
    check and take pickle, per the strict-shape contract.
    """
    from repro.mtl.parser import parse  # lazy: frames stays mtl-free otherwise

    try:
        text = str(formula)
        if parse(text) != formula:
            return None
    except Exception:  # noqa: BLE001 — any render/parse failure means pickle
        return None
    data = text.encode()
    if len(data) > 0xFFFF:
        return None
    return data


def pack_call_request(request: "Request") -> bytes | None:
    """Struct-pack a fixed-shape session call, or ``None``.

    Same contract as :func:`pack_observe_request`: strictly shape-checked
    (exact payload tuples of in-range ints), anything else returns
    ``None`` and takes the pickle path.  ``session_advance``,
    ``session_poll`` and ``session_finish`` each fit one fixed 25-byte
    struct, so the entire frame is a single C-level pack; an advance or
    finish that carries buffered events (``(session_id, boundary,
    events)`` / ``(session_id, events)``) is a 9-byte head followed by
    the packed observe body.
    """
    if type(request.request_id) is not int or not (
        _INT64_MIN <= request.request_id <= _INT64_MAX
    ):
        return None
    payload = request.payload
    if type(payload) is not tuple:
        return None
    if (request.op, len(payload)) in ((ADVANCE_OP, 3), (FINISH_OP, 2)):
        session_id, *boundary, events = payload
        boundary = boundary[0] if boundary else 0
        if type(boundary) is not int or not _INT64_MIN <= boundary <= _INT64_MAX:
            return None
        body = _pack_events(request.request_id, session_id, events)
        if body is None:
            return None
        opcode = _CALL_ADVANCE_EVENTS if request.op == ADVANCE_OP else _CALL_FINISH_EVENTS
        return _PACK_EVENTS_HEAD.pack(opcode, boundary) + body
    if request.op == ADVANCE_OP:
        if len(payload) != 2:
            return None
        session_id, boundary = payload
        if (
            type(session_id) is not int
            or type(boundary) is not int
            or not _INT64_MIN <= session_id <= _INT64_MAX
            or not _INT64_MIN <= boundary <= _INT64_MAX
        ):
            return None
        return _PACK_CALL.pack(_CALL_ADVANCE, request.request_id, session_id, boundary)
    if request.op in (POLL_OP, FINISH_OP):
        if len(payload) != 1:
            return None
        (session_id,) = payload
        if type(session_id) is not int or not _INT64_MIN <= session_id <= _INT64_MAX:
            return None
        opcode = _CALL_POLL if request.op == POLL_OP else _CALL_FINISH
        return _PACK_CALL.pack(opcode, request.request_id, session_id, 0)
    return None


def pack_open_request(request: "Request") -> bytes | None:
    """Struct-pack a ``session_open`` request, or ``None``.

    Ships the formula as its parseable text (checked to round-trip, see
    :func:`_formula_wire_text`) and the session kwargs as tagged fields —
    only the exact surface the session layer sends
    (``max_traces_per_segment``: int or None, ``backend``: str) packs;
    any other kwarg, formula, or shape falls back to pickle.

    Layout after the opcode head (request_id, session_id, epsilon)::

        mt_tag:   B   (0 = kwarg absent, 1 = None, 2 = int64 follows)
        [mt:      q]
        be_tag:   B   (0 = kwarg absent, 1 = u16-prefixed text follows)
        [backend: u16 + bytes]
        formula:  u16 + bytes (parseable text)
    """
    payload = request.payload
    if type(payload) is not tuple or len(payload) != 4:
        return None
    session_id, formula, epsilon, kwargs = payload
    if (
        type(request.request_id) is not int
        or type(session_id) is not int
        or type(epsilon) is not int
        or type(kwargs) is not dict
        or not _INT64_MIN <= request.request_id <= _INT64_MAX
        or not _INT64_MIN <= session_id <= _INT64_MAX
        or not _INT64_MIN <= epsilon <= _INT64_MAX
        or not _OPEN_KWARGS.issuperset(kwargs)
    ):
        return None
    out = [
        _PACK_OPEN_HEAD.pack(_CALL_OPEN, request.request_id, session_id, epsilon)
    ]
    if "max_traces_per_segment" not in kwargs:
        out.append(b"\x00")
    else:
        max_traces = kwargs["max_traces_per_segment"]
        if max_traces is None:
            out.append(b"\x01")
        elif type(max_traces) is int and _INT64_MIN <= max_traces <= _INT64_MAX:
            out.append(b"\x02")
            out.append(_PACK_I64.pack(max_traces))
        else:
            return None
    if "backend" not in kwargs:
        out.append(b"\x00")
    else:
        backend = kwargs["backend"]
        if type(backend) is not str:
            return None
        data = backend.encode()
        if len(data) > 0xFFFF:
            return None
        out.append(b"\x01")
        out.append(_PACK_U16.pack(len(data)))
        out.append(data)
    formula_text = _formula_wire_text(formula)
    if formula_text is None:
        return None
    out.append(_PACK_U16.pack(len(formula_text)))
    out.append(formula_text)
    return b"".join(out)


def pack_ack_response(response: "Response") -> bytes | None:
    """Struct-pack a session-lifecycle ack response, or ``None``.

    Only successful acks pack (error responses carry arbitrary strings and
    stay pickled): a ``session_open`` ack is the echoed session id (one
    fixed struct), a ``session_finish`` ack is the stream's final
    :class:`~repro.monitor.verdicts.MonitorResult` — verdict counts,
    exactness flags, per-segment reports, and the formula as round-trip
    checked text.  Any shape surprise returns ``None`` → pickle.
    """
    if response.error is not None or type(response.request_id) is not int:
        return None
    if not (
        _INT64_MIN <= response.request_id <= _INT64_MAX
        and type(response.worker) is int
        and _INT64_MIN <= response.worker <= _INT64_MAX
    ):
        return None
    if response.op == OPEN_OP:
        session_id = response.payload
        if type(session_id) is not int or not (
            _INT64_MIN <= session_id <= _INT64_MAX
        ):
            return None
        return _PACK_CALL.pack(
            _ACK_OPEN, response.request_id, session_id, response.worker
        )
    if response.op == FINISH_OP:
        from repro.monitor.verdicts import MonitorResult, SegmentReport

        result = response.payload
        if type(result) is not MonitorResult:
            return None
        counts = result.verdict_counts
        if type(counts) is not dict or not all(
            type(k) is bool and type(v) is int and 0 <= v <= _INT64_MAX
            for k, v in counts.items()
        ):
            return None
        reports = result.segment_reports
        if len(reports) > 0xFFFFFFFF:
            return None
        formula_text = _formula_wire_text(result.formula)
        if formula_text is None:
            return None
        flags = (
            (1 if result.exhaustive else 0)
            | (2 if result.verdict_set_complete else 0)
            | (4 if True in counts else 0)
            | (8 if False in counts else 0)
        )
        out = [
            _PACK_ACK_FINISH_HEAD.pack(
                _ACK_FINISH, response.request_id, response.worker
            ),
            bytes([flags]),
        ]
        if True in counts:
            out.append(_PACK_I64.pack(counts[True]))
        if False in counts:
            out.append(_PACK_I64.pack(counts[False]))
        out.append(_PACK_U32.pack(len(reports)))
        for report in reports:
            if type(report) is not SegmentReport:
                return None
            try:
                out.append(
                    _PACK_REPORT.pack(
                        report.index,
                        report.events,
                        report.traces_enumerated,
                        report.distinct_residuals,
                        (1 if report.truncated else 0)
                        | (2 if report.saturated else 0)
                        | (4 if report.preempted else 0),
                    )
                )
            except struct.error:
                return None
        out.append(_PACK_U16.pack(len(formula_text)))
        out.append(formula_text)
        return b"".join(out)
    return None


def _read_u16_block(payload: bytes, offset: int) -> tuple[bytes, int]:
    (length,) = _PACK_U16.unpack_from(payload, offset)
    offset += 2
    end = offset + length
    if end > len(payload):
        raise ServiceError("packed call frame: length-prefixed block overrun")
    return payload[offset:end], end


def _unpack_open_request(payload: bytes) -> "Request":
    from repro.mtl.parser import parse

    _, request_id, session_id, epsilon = _PACK_OPEN_HEAD.unpack_from(payload, 0)
    offset = _PACK_OPEN_HEAD.size
    kwargs: dict[str, Any] = {}
    mt_tag = payload[offset]
    offset += 1
    if mt_tag == 1:
        kwargs["max_traces_per_segment"] = None
    elif mt_tag == 2:
        (kwargs["max_traces_per_segment"],) = _PACK_I64.unpack_from(payload, offset)
        offset += 8
    elif mt_tag != 0:
        raise ServiceError(f"packed open frame has unknown max-traces tag {mt_tag}")
    be_tag = payload[offset]
    offset += 1
    if be_tag == 1:
        data, offset = _read_u16_block(payload, offset)
        kwargs["backend"] = data.decode()
    elif be_tag != 0:
        raise ServiceError(f"packed open frame has unknown backend tag {be_tag}")
    text, offset = _read_u16_block(payload, offset)
    if offset != len(payload):
        raise ServiceError(
            f"packed open frame has {len(payload) - offset} trailing bytes"
        )
    formula = parse(text.decode())
    return Request(request_id, OPEN_OP, (session_id, formula, epsilon, kwargs))


def _unpack_finish_ack(payload: bytes) -> "Response":
    from repro.monitor.verdicts import MonitorResult, SegmentReport
    from repro.mtl.parser import parse

    _, request_id, worker = _PACK_ACK_FINISH_HEAD.unpack_from(payload, 0)
    offset = _PACK_ACK_FINISH_HEAD.size
    flags = payload[offset]
    offset += 1
    counts: dict[bool, int] = {}
    if flags & 4:
        (counts[True],) = _PACK_I64.unpack_from(payload, offset)
        offset += 8
    if flags & 8:
        (counts[False],) = _PACK_I64.unpack_from(payload, offset)
        offset += 8
    (nreports,) = _PACK_U32.unpack_from(payload, offset)
    offset += 4
    reports = []
    for _ in range(nreports):
        index, events, traces, distinct, rflags = _PACK_REPORT.unpack_from(
            payload, offset
        )
        offset += _PACK_REPORT.size
        reports.append(
            SegmentReport(
                index=index,
                events=events,
                traces_enumerated=traces,
                distinct_residuals=distinct,
                truncated=bool(rflags & 1),
                saturated=bool(rflags & 2),
                preempted=bool(rflags & 4),
            )
        )
    text, offset = _read_u16_block(payload, offset)
    if offset != len(payload):
        raise ServiceError(
            f"packed finish ack has {len(payload) - offset} trailing bytes"
        )
    result = MonitorResult(
        parse(text.decode()),
        verdict_counts=counts,
        segment_reports=reports,
        exhaustive=bool(flags & 1),
        verdict_set_complete=bool(flags & 2),
    )
    return Response(request_id, result, None, worker, op=FINISH_OP)


def unpack_call_request(payload: bytes) -> Any:
    """Decode a :data:`FRAME_VERSION_PACKED_CALL` payload.

    Dispatches on the leading opcode byte: the fixed-shape calls
    (advance / poll / finish) must be exactly one 25-byte struct, the
    variable-shape frames (open request, lifecycle acks) carry their own
    length-prefixed blocks.  Returns a :class:`Request` for request
    opcodes, a :class:`Response` for ack opcodes.
    """
    if not payload:
        raise ServiceError("packed call frame is empty")
    opcode = payload[0]
    try:
        if opcode in (_CALL_ADVANCE, _CALL_POLL, _CALL_FINISH, _ACK_OPEN):
            if len(payload) != _PACK_CALL.size:
                raise ServiceError(
                    f"packed call frame is {len(payload)} bytes, "
                    f"expected {_PACK_CALL.size}"
                )
            _, request_id, session_id, argument = _PACK_CALL.unpack(payload)
            if opcode == _CALL_ADVANCE:
                return Request(request_id, ADVANCE_OP, (session_id, argument))
            if opcode == _CALL_POLL:
                return Request(request_id, POLL_OP, (session_id,))
            if opcode == _CALL_FINISH:
                return Request(request_id, FINISH_OP, (session_id,))
            return Response(request_id, session_id, None, argument, op=OPEN_OP)
        if opcode in (_CALL_ADVANCE_EVENTS, _CALL_FINISH_EVENTS):
            _, boundary = _PACK_EVENTS_HEAD.unpack_from(payload, 0)
            inner = unpack_observe_request(payload[_PACK_EVENTS_HEAD.size :])
            session_id, events = inner.payload
            if opcode == _CALL_FINISH_EVENTS:
                return Request(inner.request_id, FINISH_OP, (session_id, events))
            return Request(inner.request_id, ADVANCE_OP, (session_id, boundary, events))
        if opcode == _CALL_OPEN:
            return _unpack_open_request(payload)
        if opcode == _ACK_FINISH:
            return _unpack_finish_ack(payload)
    except ServiceError:
        raise
    except Exception as exc:  # noqa: BLE001 — struct/decode errors on bad bytes
        raise ServiceError(f"corrupt packed call frame: {exc}") from None
    raise ServiceError(f"packed call frame has unknown opcode {opcode}")


def unpack_observe_request(payload: bytes) -> "Request":
    """Decode a :data:`FRAME_VERSION_PACKED` payload back into a request."""
    try:
        request_id, session_id, count, nstrings = _PACK_HEAD.unpack_from(payload, 0)
        offset = _PACK_HEAD.size
        strings: list[str] = []
        for _ in range(nstrings):
            (length,) = _PACK_U16.unpack_from(payload, offset)
            offset += 2
            end = offset + length
            if end > len(payload):
                raise ServiceError("packed observe frame: string table overrun")
            strings.append(payload[offset:end].decode())
            offset = end
        proc_col = struct.unpack_from(f">{count}H", payload, offset)
        offset += 2 * count
        time_col = struct.unpack_from(f">{count}q", payload, offset)
        offset += 8 * count
        nprops_col = struct.unpack_from(f">{count}H", payload, offset)
        offset += 2 * count
        total_props = sum(nprops_col)
        props_col = struct.unpack_from(f">{total_props}H", payload, offset)
        offset += 2 * total_props
        tag_col = struct.unpack_from(f">{count}H", payload, offset)
        offset += 2 * count
        total_deltas = sum(tag for tag in tag_col if tag != 0xFFFF)
        key_col = struct.unpack_from(f">{total_deltas}H", payload, offset)
        offset += 2 * total_deltas
        value_col = struct.unpack_from(f">{total_deltas}d", payload, offset)
        offset += 8 * total_deltas
        if offset != len(payload):
            raise ServiceError(
                f"packed observe frame has {len(payload) - offset} trailing bytes"
            )
        events = []
        events_append = events.append
        # Identical prop-index runs decode to one shared frozenset — live
        # feeds repeat a small vocabulary of proposition sets.
        prop_sets: dict[tuple, frozenset] = {}
        prop_at = 0
        delta_at = 0
        for i in range(count):
            nprops = nprops_col[i]
            prop_idx = props_col[prop_at : prop_at + nprops]
            prop_at += nprops
            props = prop_sets.get(prop_idx)
            if props is None:
                props = frozenset(strings[j] for j in prop_idx)
                prop_sets[prop_idx] = props
            tag = tag_col[i]
            deltas = None
            if tag != 0xFFFF:
                deltas = {
                    strings[key_col[delta_at + j]]: value_col[delta_at + j]
                    for j in range(tag)
                }
                delta_at += tag
            events_append((strings[proc_col[i]], time_col[i], props, deltas))
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        raise ServiceError(f"corrupt packed observe frame: {exc}") from None
    return Request(request_id, OBSERVE_OP, (session_id, events))


def encode_frame(obj: Any, codec: Codec = DEFAULT_CODEC) -> bytes:
    """Serialize one frame: versioned header + payload.

    ``session_observe`` requests take the struct-packed fast path (frame
    version :data:`FRAME_VERSION_PACKED`); ``session_advance``,
    ``session_poll``, ``session_finish`` and ``session_open`` requests —
    plus the successful open/finish ack responses — the packed-call one
    (:data:`FRAME_VERSION_PACKED_CALL`); everything else goes through
    the codec under :data:`FRAME_VERSION`.
    """
    if PACK_OBSERVE_BATCHES and codec is DEFAULT_CODEC:
        # Only beside the stock pickle codec: a custom codec (compressing,
        # encrypting, cross-language) must see every payload, per the
        # codec contract above.
        packed = None
        version = FRAME_VERSION_PACKED_CALL
        if type(obj) is Request:
            if obj.op == OBSERVE_OP:
                packed = pack_observe_request(obj)
                version = FRAME_VERSION_PACKED
            elif obj.op in (ADVANCE_OP, POLL_OP, FINISH_OP):
                packed = pack_call_request(obj)
            elif obj.op == OPEN_OP:
                packed = pack_open_request(obj)
        elif type(obj) is Response and obj.op in (OPEN_OP, FINISH_OP):
            packed = pack_ack_response(obj)
        if packed is not None:
            if len(packed) > MAX_FRAME_BYTES:
                raise ServiceError(
                    f"frame payload of {len(packed)} bytes exceeds the "
                    f"{MAX_FRAME_BYTES}-byte frame limit"
                )
            return _HEADER.pack(FRAME_MAGIC, version, len(packed)) + packed
    payload = codec.encode(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, len(payload)) + payload


def encode_response_with_fallback(response: Response, codec: Codec = DEFAULT_CODEC) -> bytes:
    """Frame a response, substituting an error response when the payload
    cannot cross the codec.

    A payload that will not serialize (a registered custom engine
    returning an unpicklable result, say) must fail only its own request
    — the substitute keeps the request id so client bookkeeping still
    balances.  Shared by every response writer so the fallback semantics
    cannot drift between backends.
    """
    try:
        return encode_frame(response, codec)
    except Exception as exc:  # noqa: BLE001 — e.g. an unpicklable payload
        return encode_frame(
            Response(
                response.request_id,
                None,
                f"{type(exc).__name__}: response not picklable: {exc}",
                response.worker,
            ),
            codec,
        )


def split_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header; return ``(version, payload length)``."""
    if len(header) != HEADER_SIZE:
        raise ServiceError(
            f"truncated frame header: got {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, version, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ServiceError(f"bad frame magic {magic!r} (not a transport peer?)")
    if version not in KNOWN_FRAME_VERSIONS:
        raise ServiceError(
            f"frame version {version} from peer, this side speaks "
            f"{', '.join(map(str, KNOWN_FRAME_VERSIONS))}"
        )
    if length > MAX_FRAME_BYTES:
        raise ServiceError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte frame limit"
        )
    return version, length


def decode_header(header: bytes) -> int:
    """Validate a frame header; return the payload length."""
    return split_header(header)[1]


def _decode_payload(version: int, payload: bytes, codec: Codec) -> Any:
    if version == FRAME_VERSION_PACKED:
        return unpack_observe_request(payload)
    if version == FRAME_VERSION_PACKED_CALL:
        return unpack_call_request(payload)
    return codec.decode(payload)


def decode_frame(data: bytes, codec: Codec = DEFAULT_CODEC) -> Any:
    """Decode one complete frame (header + payload) from ``data``."""
    version, length = split_header(data[:HEADER_SIZE])
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise ServiceError(
            f"frame length prefix says {length} bytes, got {len(payload)}"
        )
    return _decode_payload(version, payload, codec)


def write_frame(sock, obj: Any, codec: Codec = DEFAULT_CODEC) -> None:
    """Write one frame to a stream socket."""
    sock.sendall(encode_frame(obj, codec))


def _read_exact(sock, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise ServiceError(
                f"peer closed mid-frame ({count - remaining} of {count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock, codec: Codec = DEFAULT_CODEC) -> Any | None:
    """Read one frame from a stream socket; None on clean EOF.

    EOF *between* frames is a normal close; EOF inside a frame (or a
    header that fails validation) raises :class:`~repro.errors.ServiceError`.
    """
    header = _read_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    version, length = split_header(header)
    payload = _read_exact(sock, length) if length else b""
    if payload is None:
        raise ServiceError(f"peer closed before the {length}-byte frame payload")
    return _decode_payload(version, payload, codec)
