"""Columnar progression: the flat-array residual kernel (hot path).

The verdict enumerator's inner loop progresses every carried residual
over every enumerated segment trace.  The object-path
:class:`~repro.progression.progressor.TraceProgressor` walks formula
trees recursively, memoizing per ``(intern id, position)`` — correct,
but each memo hit is still a dict probe on boxed objects and each node
visit a chain of ``isinstance`` checks.

:class:`ColumnarSegmentProgressor` replaces that walk with a batch pass
over the intern arena (:data:`repro.mtl.ast.ARENA`):

* the carried residual set is an ``(arena id, count)`` column;
* the kernel compiles a *plan*: ids listed ascending — which **is** a
  topological order, because children are always interned before their
  parents — with per-node "programs" (kind code, child rows, encoded
  interval bounds) precomputed once.  The plan is split where the
  verdict stops reading: a shift-independent *body* (everything under a
  temporal operator, needed at every position) and, per distinct anchor
  shift ``d``, a *head* (the roots re-anchored at the id level and
  their boolean top level, needed at position 0 only) that ends in one
  ``(row, summed count)`` entry per distinct shifted root;
* per trace, one flat memo ``res[row * n + position]`` of result ids
  replaces the per-formula memo dict: every node is visited at most
  once per position, in one loop, with int-indexed reads — residuals
  sharing subformulas automatically share the work;
* interval windows resolve to contiguous position ranges by binary
  search over the (non-decreasing) timestamp tuple, computed once per
  distinct interval per trace;
* new residuals are built through the id-level smart constructors
  (:func:`~repro.mtl.ast.id_land` and friends), which mirror the object
  constructors' simplifications exactly — so the two paths produce
  bit-identical residual structures (the differential suite asserts
  this; ``REPRO_COLUMNAR=0`` selects the object path).

That pass runs each trace backwards from its end.  A *narrow* column
(:func:`_steps_forward`) is instead stepped forward one observation at a
time — progression composes over concatenation (paper Definition 3) — so
in the enumerator's DFS order, where consecutive traces share all but
their last few observations, each distinct trace prefix is progressed
once.  Both strategies return the same residual ids.

No :class:`~repro.mtl.ast.Formula` objects are touched anywhere in the
loop; :func:`~repro.mtl.ast.formula_of` materializes results only at
API boundaries (segment reports, snapshots).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict

from repro.errors import MonitorError
from repro.mtl.ast import (
    ARENA,
    FALSE_ID,
    IV_INF,
    KIND_ALWAYS,
    KIND_AND,
    KIND_ATOM,
    KIND_EVENTUALLY,
    KIND_FALSE,
    KIND_NOT,
    KIND_OR,
    KIND_PRED,
    KIND_TRUE,
    KIND_UNTIL,
    TEMPORAL_KINDS,
    TRUE_ID,
    formula_of,
    id_always,
    id_eventually,
    id_land,
    id_lnot,
    id_lor,
    id_until,
)
from repro.mtl.trace import TimedTrace

__all__ = [
    "ColumnarSegmentProgressor",
    "plan_cache_stats",
    "clear_plan_cache",
]


# -- the shared plan cache ----------------------------------------------------------
#
# Plans depend only on the root ids, the shift and the (append-only) arena,
# so they are valid process-wide, not just for the one progressor instance
# that compiled them.  Successive ``stream_segment_outcomes`` calls on the
# same stream build a fresh progressor per segment but carry structurally
# recurring residual sets — keying by ``(root ids, shift)`` lets segment k+1
# reuse segment k's compilations instead of recompiling identical plans.

_PLAN_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_PLAN_CACHE_LIMIT = 256
_PLAN_LOCK = threading.Lock()
_PLAN_STATS = {"hits": 0, "misses": 0}

#: Cells one kernel's suffix cache may hold; past it columns are computed
#: but no longer kept.  A stored suffix is charged one cell per body node
#: (its column of result ids) plus a flat ``_ENTRY_CELLS`` for its key,
#: dict slot and pinned state (~250 bytes measured), so the bound holds
#: for narrow plans over many traces as well as for wide columns.  At 8
#: bytes a cell this is ~4 MiB for the one kernel a segment has, whatever
#: the trace budget and column width.
_MAX_CACHED_CELLS = 1 << 19
_ENTRY_CELLS = 32

#: Widest carried column that is stepped forward.  Every step pays the
#: column's width, so a wide column stays on the backward pass, whose
#: body columns all its roots share (any cut-off in 2..16 measured alike).
_FORWARD_MAX_ROOTS = 4
#: States a forward kernel pins with their memos before starting over;
#: only backends with fresh states per trace (not the DFS) reach it.
_MAX_PINNED_STATES = 1 << 14


def _shared_plan(key: tuple, compile_fn):
    """The plan under ``key`` — ``(root ids, shift)`` for a head,
    ``(root ids, None)`` for the body — compiling it on a miss."""
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            _PLAN_STATS["hits"] += 1
            return plan
        _PLAN_STATS["misses"] += 1
    # Compile outside the lock: racing threads compile identical plans and
    # the last write wins — cheaper than holding the lock through it.
    plan = compile_fn()
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the process-wide plan cache."""
    with _PLAN_LOCK:
        return {
            "hits": _PLAN_STATS["hits"],
            "misses": _PLAN_STATS["misses"],
            "size": len(_PLAN_CACHE),
        }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (tests)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        _PLAN_STATS["hits"] = 0
        _PLAN_STATS["misses"] = 0


_BOOLEAN_KINDS = frozenset({KIND_NOT, KIND_AND, KIND_OR})


def _reachable(roots, top_level: bool = False) -> list[int]:
    """The ids reachable from ``roots``, ascending — a topological order,
    children being interned before their parents.  ``top_level`` follows
    ``NOT/AND/OR`` only: the first temporal node on a path is listed, its
    operands are not."""
    kinds = ARENA.kinds
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        fid = stack.pop()
        if fid in seen:
            continue
        seen.add(fid)
        if not top_level or kinds[fid] in _BOOLEAN_KINDS:
            stack.extend(ARENA.children(fid))
    return sorted(seen)


def _steps_forward(roots) -> bool:
    """Whether a column of ``roots`` is stepped forward (see the class).

    Narrow columns only, and no ``U`` with a temporal operator in its
    left operand: stepping nests such an until's progressed left operand
    over the next step's disjunction, ``l0 & (r1 | l1 & U)``, which the
    batch pass builds distributed, ``l0 & r1 | l0 & l1 & U`` — equivalent,
    but not the same residual, and the smart constructors do not
    distribute.  A temporal-free left operand progresses to a constant,
    which folds either form to the same one.
    """
    if len(roots) > _FORWARD_MAX_ROOTS:
        return False
    kinds = ARENA.kinds
    for fid in _reachable(roots):
        if kinds[fid] == KIND_UNTIL:
            left = ARENA.child_ids[ARENA.child_off[fid]]
            if any(kinds[c] in TEMPORAL_KINDS for c in _reachable([left])):
                return False
    return True


def _programs(universe: list[int], local: dict[int, int], operand_local: dict[int, int]):
    """One program tuple per node of ``universe``: ``(kind, payload,
    extra)`` where ``payload`` is the atom name / predicate / child row(s)
    and ``extra`` carries ``(operand id(s), iv_lo, iv_hi)`` for temporal
    kinds (the *unprogressed* operand ids feed residual construction).
    Boolean children resolve to rows through ``local``, temporal operands
    through ``operand_local`` (a head's operands are body rows)."""
    programs: list[tuple] = []
    for fid in universe:
        kind = ARENA.kinds[fid]
        if kind == KIND_TRUE or kind == KIND_FALSE:
            programs.append((kind, fid, None))
        elif kind == KIND_ATOM:
            programs.append((kind, ARENA.names[fid], None))
        elif kind == KIND_PRED:
            programs.append((kind, formula_of(fid).predicate, None))
        elif kind == KIND_NOT:
            programs.append((kind, local[ARENA.child_ids[ARENA.child_off[fid]]], None))
        elif kind == KIND_AND or kind == KIND_OR:
            programs.append((kind, tuple(local[c] for c in ARENA.children(fid)), None))
        elif kind == KIND_ALWAYS or kind == KIND_EVENTUALLY:
            operand = ARENA.child_ids[ARENA.child_off[fid]]
            programs.append(
                (kind, operand_local[operand], (operand, ARENA.iv_lo[fid], ARENA.iv_hi[fid]))
            )
        else:  # KIND_UNTIL
            off = ARENA.child_off[fid]
            left = ARENA.child_ids[off]
            right = ARENA.child_ids[off + 1]
            programs.append(
                (
                    kind,
                    (operand_local[left], operand_local[right]),
                    (left, right, ARENA.iv_lo[fid], ARENA.iv_hi[fid]),
                )
            )
    return programs


def _shift_rows(universe: list[int]) -> list[tuple]:
    """A top-level closure as ``(kind, id, kids, iv_lo, iv_hi)`` rows for
    :func:`_shifted`: ``kids`` are positions in ``universe`` for boolean
    rows and operand *ids* (which a shift never touches) for temporal
    ones."""
    local = {fid: k for k, fid in enumerate(universe)}
    rows = []
    for fid in universe:
        kind = ARENA.kinds[fid]
        kids = tuple(ARENA.children(fid))
        if kind in _BOOLEAN_KINDS:
            kids = tuple(local[c] for c in kids)
        rows.append((kind, fid, kids, ARENA.iv_lo[fid], ARENA.iv_hi[fid]))
    return rows


def _shifted(rows: list[tuple], d: int) -> list[int]:
    """Every row of a top-level closure re-anchored forward by ``d``, in
    one ascending pass (children come before their parents).

    The id-level mirror of
    :func:`~repro.progression.progressor.anchor_shift`: outermost
    temporal windows shift down by ``d`` (clamped — an elapsed F/U window
    folds to false, an elapsed G window to true), nested windows are
    untouched.
    """
    if d < 0:
        raise MonitorError(f"cannot anchor-shift backwards (d={d})")
    out: list[int] = []
    for kind, fid, kids, lo, hi in rows:
        if kind == KIND_NOT:
            shifted = id_lnot(out[kids[0]])
        elif kind == KIND_AND:
            shifted = id_land([out[k] for k in kids])
        elif kind == KIND_OR:
            shifted = id_lor([out[k] for k in kids])
        elif kind == KIND_TRUE or kind == KIND_FALSE:
            shifted = fid
        elif kind == KIND_ATOM or kind == KIND_PRED:
            # atom / predicate rows never survive progression
            raise MonitorError(
                f"residual formula contains a bare atom {formula_of(fid)!s}; "
                "atoms are always resolved during progression"
            )
        else:
            lo = lo - d if lo > d else 0
            if hi != IV_INF:
                hi = hi - d if hi > d else 0
            if kind == KIND_ALWAYS:
                shifted = id_always(kids[0], lo, hi)
            elif kind == KIND_EVENTUALLY:
                shifted = id_eventually(kids[0], lo, hi)
            else:
                shifted = id_until(kids[0], kids[1], lo, hi)
        out.append(shifted)
    return out


def _fill_rows(programs, first: int, count: int, res: list[int], trace, boundary: int):
    """Compute rows ``first .. first + len(programs)`` of the flat memo
    ``res[row * n + position]`` at positions ``range(count)``.

    Rows are filled in program order (ascending id = children first); a
    row reads its children at its own position and, for temporal kinds,
    its operands at every later position — which the caller has filled.
    """
    times = trace.times
    states = trace.states
    n = len(times)
    positions = range(count)
    windows: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    props_by_pos: list[frozenset[str]] | None = None
    valuation_by_pos = None

    def window(lo_bound: int, hi_bound: int) -> tuple[list[int], list[int]]:
        """Per-position ``[wlo, whi)`` position ranges for one interval.

        Offsets ``tau_j - tau_i in [lo, hi)`` form a contiguous block
        because timestamps are non-decreasing; one bisect pair per
        position, shared by every node carrying this interval.
        """
        cached = windows.get((lo_bound, hi_bound))
        if cached is not None:
            return cached
        wlo = [0] * count
        whi = [0] * count
        for i in positions:
            base_time = times[i]
            low = bisect_left(times, base_time + lo_bound, i)
            wlo[i] = low
            whi[i] = (
                n
                if hi_bound == IV_INF
                else bisect_left(times, base_time + hi_bound, low)
            )
        windows[(lo_bound, hi_bound)] = (wlo, whi)
        return wlo, whi

    for idx, (kind, payload, extra) in enumerate(programs, first):
        base = idx * n
        if kind == KIND_ATOM:
            if props_by_pos is None:
                props_by_pos = [states[i].props for i in positions]
            for i in positions:
                res[base + i] = TRUE_ID if payload in props_by_pos[i] else FALSE_ID
        elif kind == KIND_NOT:
            cbase = payload * n
            for i in positions:
                res[base + i] = id_lnot(res[cbase + i])
        elif kind == KIND_AND:
            cbases = [c * n for c in payload]
            for i in positions:
                res[base + i] = id_land([res[cb + i] for cb in cbases])
        elif kind == KIND_OR:
            cbases = [c * n for c in payload]
            for i in positions:
                res[base + i] = id_lor([res[cb + i] for cb in cbases])
        elif kind == KIND_ALWAYS or kind == KIND_EVENTUALLY:
            cbase = payload * n
            operand, iv_lo, iv_hi = extra
            wlo, whi = window(iv_lo, iv_hi)
            for i in positions:
                parts = res[cbase + wlo[i] : cbase + whi[i]]
                remaining = boundary - times[i]
                if iv_hi == IV_INF or iv_hi > remaining:
                    s_lo = iv_lo - remaining
                    if s_lo < 0:
                        s_lo = 0
                    s_hi = IV_INF if iv_hi == IV_INF else iv_hi - remaining
                    if kind == KIND_ALWAYS:
                        parts.append(id_always(operand, s_lo, s_hi))
                    else:
                        parts.append(id_eventually(operand, s_lo, s_hi))
                res[base + i] = (
                    id_land(parts) if kind == KIND_ALWAYS else id_lor(parts)
                )
        elif kind == KIND_UNTIL:
            lpos, rpos = payload
            lbase = lpos * n
            rbase = rpos * n
            left, right, iv_lo, iv_hi = extra
            wlo, whi = window(iv_lo, iv_hi)
            for i in positions:
                remaining = boundary - times[i]
                tail_due = iv_hi == IV_INF or iv_hi > remaining
                disjuncts: list[int] = []
                left_so_far: list[int] = []
                lo_w = wlo[i]
                hi_w = whi[i]
                # Past the window only the tail residual still reads
                # the left operands, and one false left operand folds
                # every later disjunct (the tail included) to false,
                # which id_lor would drop: stop there.
                for j in range(i, n if tail_due else hi_w):
                    if lo_w <= j < hi_w:
                        left_so_far.append(res[rbase + j])
                        disjuncts.append(id_land(left_so_far))
                        left_so_far.pop()
                    held = res[lbase + j]
                    if held == FALSE_ID:
                        break
                    left_so_far.append(held)
                else:
                    if tail_due:
                        s_lo = iv_lo - remaining
                        if s_lo < 0:
                            s_lo = 0
                        s_hi = IV_INF if iv_hi == IV_INF else iv_hi - remaining
                        left_so_far.append(id_until(left, right, s_lo, s_hi))
                        disjuncts.append(id_land(left_so_far))
                res[base + i] = id_lor(disjuncts)
        elif kind == KIND_PRED:
            if valuation_by_pos is None:
                valuation_by_pos = [states[i].valuation for i in positions]
            for i in positions:
                res[base + i] = TRUE_ID if payload(valuation_by_pos[i]) else FALSE_ID
        else:  # constants: payload is the id itself
            res[base : base + count] = [payload] * count


def _observe(fid: int, d: int, state, memo: dict[int, int], memo0: dict[int, int]) -> int:
    """Residual ``fid`` re-anchored forward by ``d`` and progressed over
    the one observation ``state``, with the boundary at that
    observation's own time.

    This is :func:`_shifted` fused into :func:`_fill_rows` at ``n = 1``,
    so the re-anchored residual is never interned.  At ``n = 1`` every
    window is position 0 if it starts at 0 and empty otherwise, and every
    tail is the re-anchored node itself.  The time drops out, so one
    ``memo`` (``fid -> result``) per ``(state, d)`` serves every visit;
    ``memo0`` is the state's ``d = 0`` one, for temporal operands.
    """
    rid = memo.get(fid)
    if rid is not None:
        return rid
    kind = ARENA.kinds[fid]
    if kind == KIND_TRUE or kind == KIND_FALSE:
        rid = fid
    elif kind == KIND_ATOM:
        rid = TRUE_ID if ARENA.names[fid] in state.props else FALSE_ID
    elif kind == KIND_PRED:
        rid = TRUE_ID if formula_of(fid).predicate(state.valuation) else FALSE_ID
    elif kind == KIND_NOT:
        child = ARENA.child_ids[ARENA.child_off[fid]]
        rid = id_lnot(_observe(child, d, state, memo, memo0))
    elif kind == KIND_AND:
        rid = id_land([_observe(c, d, state, memo, memo0) for c in ARENA.children(fid)])
    elif kind == KIND_OR:
        rid = id_lor([_observe(c, d, state, memo, memo0) for c in ARENA.children(fid)])
    else:
        lo, hi = ARENA.iv_lo[fid], ARENA.iv_hi[fid]
        lo = lo - d if lo > d else 0
        if hi != IV_INF:
            hi = hi - d if hi > d else 0
        if hi == 0:  # the window elapsed in the re-anchoring
            rid = TRUE_ID if kind == KIND_ALWAYS else FALSE_ID
        elif kind == KIND_UNTIL:
            off = ARENA.child_off[fid]
            left = ARENA.child_ids[off]
            right = ARENA.child_ids[off + 1]
            disjuncts = [id_land([_observe(right, 0, state, memo0, memo0)])] if lo == 0 else []
            held = _observe(left, 0, state, memo0, memo0)
            if held != FALSE_ID:
                disjuncts.append(id_land([held, id_until(left, right, lo, hi)]))
            rid = id_lor(disjuncts)
        else:
            operand = ARENA.child_ids[ARENA.child_off[fid]]
            parts = [_observe(operand, 0, state, memo0, memo0)] if lo == 0 else []
            if kind == KIND_ALWAYS:
                parts.append(id_always(operand, lo, hi))
                rid = id_land(parts)
            else:
                parts.append(id_eventually(operand, lo, hi))
                rid = id_lor(parts)
    memo[fid] = rid
    return rid


class ColumnarSegmentProgressor:
    """Batch-progress one carried residual column over segment traces.

    Built once per segment from the merged ``(root id, count)`` pairs;
    reused for every trace the segment enumerates.  The plan has two
    parts, because the verdict reads only position 0 of a root:

    * the **body** — every node under at least one temporal operator.
      An anchor shift moves outermost windows only, so the body is the
      same under every shift: compiled once per kernel, computed at every
      position (temporal rows read their operands at later positions);
    * a **head** per distinct anchor shift ``d`` — the roots re-anchored
      by ``d`` and their ``NOT/AND/OR`` top level down to the first
      temporal node, computed at position 0 only, ending in a *grouped
      root table*: one ``(row, summed count)`` entry per distinct shifted
      root (many carried roots differ only in a window the shift has
      already elapsed).

    Body rows are shared across the traces as well.  ``res[node, i]``
    reads the trace only from position ``i`` on — the suffix's states,
    its timestamps, and the boundary — so two traces that end in the
    same suffix have the same rows there, whatever their shifts.
    Suffixes are hash-consed back to front into small ints, and the body
    column of every suffix a pass computed is kept for the kernel's
    lifetime; a later trace computes only the positions before its
    longest known suffix.  Head rows are never kept: they belong to a
    whole trace under one shift, not to a suffix.  A state is keyed by
    identity (the enumerator hands every trace through one cut the same
    :class:`~repro.mtl.trace.State`) and pinned by the table, so a key
    can never outlive the object it names.

    A narrow column (:func:`_steps_forward`) takes the other strategy in
    :meth:`progress_trace`: it walks the trace *forward*, re-anchoring
    the column to each observation's time and progressing it over that
    one observation (:func:`_observe`, memoised per pinned state), and
    keeps the previous trace's path — one ``(id, count)`` column per
    depth.  A trace recomputes only the positions after its longest
    common prefix with that path, which in DFS order is the previous
    trace's longest shared prefix; the last column is re-anchored to the
    boundary.  :meth:`progress_roots` always runs the backward pass.
    """

    __slots__ = (
        "_pairs",
        "_roots_key",
        "_body",
        "_heads",
        "_suffix_ids",
        "_pinned_states",
        "_columns",
        "_cached_cells",
        "_columns_reused",
        "_columns_computed",
        "_head_rows_computed",
        "_roots_scattered",
        "_forward",
        "_shifts",
        "_observed",
        "_path_shift",
        "_path",
        "_steps_computed",
        "_positions_shared",
    )

    def __init__(self, pairs: list[tuple[int, int]]) -> None:
        self._pairs = pairs
        self._roots_key = tuple(fid for fid, _ in pairs)
        self._forward = _steps_forward(self._roots_key)
        #: Forward state: (id, d) -> id re-anchored to the boundary by d;
        #: id(state) -> (state, d -> its :func:`_observe` memo), the state
        #: pinned beside its memos; the last trace walked, as its shift and
        #: a (state, time, column after it) step per position.
        self._shifts: dict[tuple[int, int], int] = {}
        self._observed: dict[int, tuple] = {}
        self._path_shift: int | None = None
        self._path: list[tuple] = []
        self._steps_computed = 0
        self._positions_shared = 0
        #: (body programs, id -> body row, shift rows of the top level,
        #: each root's shift row), compiled on first use.
        self._body: tuple | None = None
        #: shift -> (head programs, each root's row, grouped root table).
        #: Both are per-instance views of the process-wide
        #: :data:`_PLAN_CACHE` (no lock per trace).
        self._heads: dict[int, tuple[list[tuple], list[int], list[tuple[int, int]]]] = {}
        #: (id(state), time, what follows) -> suffix id, where what follows
        #: is the next suffix's id or, after the last position, the
        #: (boundary,) the rows are computed under.
        self._suffix_ids: dict[tuple, int] = {}
        #: suffix id -> its column: one result id per body node.
        self._columns: list[tuple[int, ...]] = []
        #: The first state of every stored suffix, kept alive so that its
        #: ``id()`` stays its own for as long as a key holds it.
        self._pinned_states: list = []
        self._cached_cells = 0
        self._columns_reused = 0
        self._columns_computed = 0
        self._head_rows_computed = 0
        self._roots_scattered = 0

    @property
    def columns_reused(self) -> int:
        """(trace, position) body columns served from an earlier pass."""
        return self._columns_reused

    @property
    def columns_computed(self) -> int:
        """(trace, position) body columns the node loops had to compute."""
        return self._columns_computed

    @property
    def head_rows_computed(self) -> int:
        """Head rows computed: each trace's head once, at position 0."""
        return self._head_rows_computed

    @property
    def roots_scattered(self) -> int:
        """Grouped-root-table entries read: one per (trace, distinct
        shifted root), however many carried roots share it."""
        return self._roots_scattered

    @property
    def cached_cells(self) -> int:
        """Cells charged to the suffix cache (at most the fixed cap)."""
        return self._cached_cells

    @property
    def steps_forward(self) -> bool:
        """Whether :meth:`progress_trace` steps this column forward."""
        return self._forward

    @property
    def steps_computed(self) -> int:
        """(trace, position) forward steps computed."""
        return self._steps_computed

    @property
    def positions_shared(self) -> int:
        """(trace, position) forward steps served from the previous path."""
        return self._positions_shared

    # -- anchor shift (id level) ------------------------------------------------

    def shift_root(self, fid: int, d: int) -> int:
        """Re-anchor residual ``fid`` forward by ``d`` time units (see
        :func:`_shifted`; the kernel shifts all its roots in one pass)."""
        if d == 0:
            return fid
        # A root is the largest id of its own closure: the last row.
        return _shifted(_shift_rows(_reachable([fid], top_level=True)), d)[-1]

    # -- plan compilation -------------------------------------------------------

    def _compile_body(self):
        """The shift-independent part: the body programs, and the roots'
        top level laid out for :func:`_shifted`."""
        top = _reachable(self._roots_key, top_level=True)
        body = _reachable(
            c for fid in top if ARENA.kinds[fid] in TEMPORAL_KINDS for c in ARENA.children(fid)
        )
        local = {fid: row for row, fid in enumerate(body)}
        return (
            _programs(body, local, local),
            local,
            _shift_rows(top),
            [bisect_left(top, fid) for fid in self._roots_key],
        )

    def _compile_head(self, shift: int) -> tuple[list[tuple], list[int]]:
        """The head under ``shift``: the shifted roots' top level in
        ascending-id (= topological) order, rows numbered after the
        body's, and the row of every root."""
        body_programs, body_local, shift_rows, root_rows = self._body
        if shift == 0:
            roots = self._roots_key
        else:
            shifted = _shifted(shift_rows, shift)
            roots = [shifted[k] for k in root_rows]
        head = _reachable(roots, top_level=True)
        local = {fid: row for row, fid in enumerate(head, len(body_programs))}
        return _programs(head, local, body_local), [local[fid] for fid in roots]

    def _head(self, shift: int):
        if self._body is None:
            self._body = _shared_plan((self._roots_key, None), self._compile_body)
        programs, root_rows = _shared_plan(
            (self._roots_key, shift), lambda: self._compile_head(shift)
        )
        grouped: dict[int, int] = {}
        for row, (_, count) in zip(root_rows, self._pairs):
            grouped[row] = grouped.get(row, 0) + count
        head = self._heads[shift] = (programs, root_rows, list(grouped.items()))
        return head

    # -- the batch pass ---------------------------------------------------------

    def _pass(self, trace: TimedTrace, shift: int, boundary: int, budget):
        """Fill the flat memo for ``trace``; returns ``(res, n, head)``."""
        head = self._heads.get(shift) or self._head(shift)
        body_programs = self._body[0]
        width = len(body_programs)
        if budget is not None:
            budget.step(width + len(head[0]))
        times = trace.times
        states = trace.states
        n = len(times)
        body_cells = width * n
        res = [0] * (body_cells + len(head[0]) * n)

        # Walk the suffixes back to front for as long as an earlier pass
        # left their columns behind, prefilling those positions; what is
        # left to compute is a prefix, range(fresh).  ``link`` names the
        # suffix that follows position i: after the last position, the
        # boundary the rows are computed under.
        suffix_ids = self._suffix_ids
        columns = self._columns
        link: tuple[int] | int = (boundary,)
        fresh = n
        for i in range(n - 1, -1, -1):
            sid = suffix_ids.get((id(states[i]), times[i], link))
            if sid is None:
                break
            res[i:body_cells:n] = columns[sid]
            link = sid
            fresh = i
        self._columns_reused += n - fresh
        self._columns_computed += fresh
        _fill_rows(body_programs, 0, fresh, res, trace, boundary)

        # The body is complete: keep its columns, latest position first
        # (so a known suffix always has its own suffixes known), until the
        # cell budget is spent — after that nothing more is kept; results
        # are the same, later traces just compute more.
        cost = width + _ENTRY_CELLS
        for i in range(fresh - 1, -1, -1):
            if self._cached_cells + cost > _MAX_CACHED_CELLS:
                break
            state = states[i]
            sid = len(columns)
            suffix_ids[(id(state), times[i], link)] = sid
            link = sid
            columns.append(tuple(res[i:body_cells:n]))
            self._pinned_states.append(state)
            self._cached_cells += cost

        _fill_rows(head[0], width, 1, res, trace, boundary)
        self._head_rows_computed += len(head[0])
        return res, n, head

    def progress_trace(
        self, trace: TimedTrace, shift: int, boundary: int, budget=None
    ) -> list[tuple[int, int]]:
        """Progress every carried residual over ``trace`` in one pass.

        Returns the merged ``(residual id, summed count)`` pairs, one per
        distinct result — what the trace adds to the segment's outcome.
        ``budget`` (a :class:`~repro.progression.budget.Budget`) is
        stepped once per program row so a cancel lands within one
        checkpoint interval.

        Positions whose suffix (states, times, under this ``boundary``)
        an earlier trace already went through are served from the
        kernel's suffix cache; the result is the same either way.  The
        cache is written only after the body pass completes.  A forward
        kernel steps the budget once per computed step, by the column's
        width, and serves the positions it shares with the previous trace
        from that trace's path.
        """
        if self._forward:
            return self._walk(trace, shift, boundary, budget)
        res, n, (_, _, grouped) = self._pass(trace, shift, boundary, budget)
        self._roots_scattered += len(grouped)
        merged: dict[int, int] = {}
        for row, count in grouped:
            fid = res[row * n]
            merged[fid] = merged.get(fid, 0) + count
        return list(merged.items())

    def progress_roots(self, trace: TimedTrace, shift: int, boundary: int) -> list[int]:
        """The result id of every carried root, aligned with the column
        (tests; the production loop reads the grouped table instead)."""
        res, n, (_, root_rows, _) = self._pass(trace, shift, boundary, None)
        return [res[row * n] for row in root_rows]

    # -- the forward walk -------------------------------------------------------

    def _walk(self, trace: TimedTrace, shift: int, boundary: int, budget):
        """:meth:`progress_trace` for a forward kernel."""
        states, times = trace.states, trace.times
        path = self._path
        if shift != self._path_shift:
            self._path_shift = shift
            path.clear()
        depth = 0
        limit = min(len(times), len(path))
        while depth < limit and path[depth][0] is states[depth] and path[depth][1] == times[depth]:
            depth += 1
        del path[depth:]
        self._positions_shared += depth
        # Before position 0 the column is the carried one, at the anchor.
        _, time, column = path[-1] if depth else (None, times[0] - shift, self._pairs)
        observed = self._observed
        for state, now in zip(states[depth:], times[depth:]):
            if budget is not None:
                budget.step(len(column))
            pinned = observed.get(id(state))
            if pinned is None:
                if len(observed) >= _MAX_PINNED_STATES:
                    observed.clear()
                pinned = observed[id(state)] = (state, {0: {}})
            memos = pinned[1]
            d = now - time
            memo = memos.get(d)
            if memo is None:
                memo = memos[d] = {}
            merged: dict[int, int] = {}
            for fid, count in column:
                rid = memo.get(fid)
                if rid is None:
                    rid = _observe(fid, d, state, memo, memos[0])
                merged[rid] = merged.get(rid, 0) + count
            column = list(merged.items())
            time = now
            path.append((state, now, column))
            self._steps_computed += 1
        # Re-anchor the last column to the boundary.
        d = boundary - time
        shifts = self._shifts
        merged = {}
        for fid, count in column:
            if d:
                key = (fid, d)
                fid = shifts.get(key)
                if fid is None:
                    fid = shifts[key] = self.shift_root(key[0], d)
            merged[fid] = merged.get(fid, 0) + count
        return list(merged.items())
