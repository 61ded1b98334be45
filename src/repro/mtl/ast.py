"""Abstract syntax trees for metric temporal logic (MTL) formulas.

The grammar follows the paper (Section II-B):

    phi ::= p | !phi | phi1 | phi2 | phi1 U_I phi2

with the usual derived operators kept as first-class nodes because the
progression algorithms (Section IV) treat them directly:

    F_I phi  ("eventually")   =  true U_I phi
    G_I phi  ("always")       =  !F_I !phi

``phi1 -> phi2`` and ``phi1 & phi2`` desugar to ``!phi1 | phi2`` and
``!(!phi1 | !phi2)`` would lose readability, so conjunction is also a
first-class n-ary node; implication desugars at construction time.

All nodes are immutable and hashable, and the smart constructors
hash-cons ("intern") them: structurally equal formulas built through
:func:`atom`/:func:`lnot`/:func:`land`/:func:`lor`/:func:`until`/
:func:`eventually`/:func:`always` are the *same object*, so the hot
monitoring loop's residual-dict operations run on cached hashes and
identity equality instead of re-walking formula trees.  Directly
constructed nodes (``Not(x)``) still compare structurally; pass them
through :func:`intern_formula` to canonicalize.  Interned instances are
held weakly, so residuals from a long-lived monitoring service are
garbage-collected once no monitor carries them.
"""

from __future__ import annotations

import os
import threading
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.errors import FormulaError
from repro.mtl.interval import INF, Interval

#: Canonical instance per structural equivalence class, held weakly so
#: formulas no monitor references any more can be collected.  Keys are
#: ``(node class, structural fields)``; the lock only guards insertion
#: (lookups ride on the GIL).  The *structural record* of every formula
#: ever interned lives in the append-only :class:`InternArena` below —
#: an id freed by GC is re-issued to the same structure if it is ever
#: rebuilt, so intern ids are stable per structure for the process
#: lifetime.
_INTERN: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# The intern arena: flat columnar storage of every interned formula.
#
# The hot monitoring loop (progressing thousands of carried residuals over
# every enumerated segment trace) runs entirely on dense int ids indexed
# into these parallel arrays — no Formula objects, no structural hashing,
# no isinstance dispatch.  Formula objects remain the API-boundary
# representation and are reconstructible on demand from the arena rows.
# ---------------------------------------------------------------------------

#: Node-kind codes stored in the arena's ``kinds`` column.
KIND_TRUE = 0
KIND_FALSE = 1
KIND_ATOM = 2
KIND_PRED = 3
KIND_NOT = 4
KIND_AND = 5
KIND_OR = 6
KIND_UNTIL = 7
KIND_EVENTUALLY = 8
KIND_ALWAYS = 9

#: ``iv_hi`` column encoding of an unbounded interval end (``INF``).
IV_INF = -1

#: Kinds whose rows carry a meaningful interval (``iv_lo``/``iv_hi``).
TEMPORAL_KINDS = frozenset({KIND_UNTIL, KIND_EVENTUALLY, KIND_ALWAYS})


class InternArena:
    """Append-only columnar record of every interned formula.

    One row per structural equivalence class, identified by its dense
    intern id.  Parallel columns:

    * ``kinds[fid]`` — the ``KIND_*`` code (``bytearray``);
    * ``iv_lo[fid]`` / ``iv_hi[fid]`` — interval bounds for temporal
      kinds (``iv_hi`` is :data:`IV_INF` for unbounded windows, both 0
      for non-temporal rows);
    * ``child_ids[child_off[fid]:child_off[fid+1]]`` — the children's
      ids (flat ``array('q')`` plus an offsets column);
    * ``names[fid]`` — the atom name for atom/predicate rows;
    * ``refs[fid]`` — a weakref to the canonical :class:`Formula`
      object, or ``None`` until one is (re)built;
    * ``closed[fid]`` — memoized end-of-trace verdict for
      :func:`repro.progression.progressor.close` (0 unknown, 1 False,
      2 True — valid forever, close is purely structural).

    ``by_key`` is the id-keyed intern table and the source of truth for
    structural identity: a node's key is built from its kind and its
    *children's ids* (children are always interned first, so every
    child id is strictly smaller than its parent's — ascending id order
    is a topological order, which the columnar progression kernel
    relies on).  Rows are never removed; the canonical *objects* stay
    weakly held and collectable, and a structure rebuilt after its
    object died gets its old id back.

    Mutation happens only under the module intern lock; readers ride on
    the GIL (``by_key`` is populated last, after every column append).
    """

    __slots__ = (
        "kinds",
        "iv_lo",
        "iv_hi",
        "child_off",
        "child_ids",
        "names",
        "refs",
        "closed",
        "by_key",
    )

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.iv_lo = array("q")
        self.iv_hi = array("q")
        self.child_off = array("q", (0,))
        self.child_ids = array("q")
        self.names: list[str | None] = []
        self.refs: list[weakref.ref | None] = []
        self.closed = bytearray()
        self.by_key: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def children(self, fid: int) -> array:
        """The child ids of row ``fid`` (empty for leaves)."""
        return self.child_ids[self.child_off[fid] : self.child_off[fid + 1]]

    def interval(self, fid: int) -> Interval:
        """The interval of a temporal row, decoded."""
        lo = self.iv_lo[fid]
        hi = self.iv_hi[fid]
        if hi == 0 and lo == 0:
            return Interval.empty()
        return Interval(lo, INF if hi == IV_INF else hi)

    def append_row(
        self,
        key: tuple,
        kind: int,
        children: tuple[int, ...],
        iv_lo: int = 0,
        iv_hi: int = 0,
        name: str | None = None,
    ) -> int:
        """Append one row (caller holds the intern lock) and return its id."""
        fid = len(self.kinds)
        self.kinds.append(kind)
        self.iv_lo.append(iv_lo)
        self.iv_hi.append(iv_hi)
        self.child_ids.extend(children)
        self.child_off.append(len(self.child_ids))
        self.names.append(name)
        self.refs.append(None)
        self.closed.append(0)
        self.by_key[key] = fid  # last: readers only see complete rows
        return fid

    def row_id(
        self,
        key: tuple,
        kind: int,
        children: tuple[int, ...],
        iv_lo: int = 0,
        iv_hi: int = 0,
        name: str | None = None,
    ) -> int:
        """The id of the row with this structure, appending it if new.

        Object-free: rows created here have no :class:`Formula` until
        :func:`formula_of` materializes one at an API boundary.
        """
        fid = self.by_key.get(key)
        if fid is not None:
            return fid
        with _INTERN_LOCK:
            fid = self.by_key.get(key)
            if fid is None:
                fid = self.append_row(key, kind, children, iv_lo, iv_hi, name)
        return fid


#: The process-wide arena.  Append-only; safe to alias its columns.
ARENA = InternArena()


def _reset_intern_lock_after_fork() -> None:
    """Give forked children a fresh intern lock.

    Worker pools may fork from one thread while another thread is
    mid-``_intern_node``; the child would inherit the lock in its held
    state and deadlock on its first formula construction.  The table itself is GIL-consistent at fork time.
    """
    global _INTERN_LOCK
    _INTERN_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # not available on Windows (spawn-only)
    os.register_at_fork(after_in_child=_reset_intern_lock_after_fork)


def _encode_interval(interval: Interval) -> tuple[int, int]:
    """An interval as the arena's ``(iv_lo, iv_hi)`` int pair."""
    end = interval.end
    return interval.start, (IV_INF if end == INF else end)


def _node_signature(node: "Formula") -> tuple[tuple, int, tuple[int, ...], int, int, str | None]:
    """``(arena key, kind, child ids, iv_lo, iv_hi, name)`` for a node.

    Requires the node's children to be interned already (their ids form
    the key — that is what makes arena keys O(children) to build and
    hash instead of O(subtree)).
    """
    cls = node.__class__
    # Constants first: they are interned at module load, before the other
    # node classes below even exist.
    if cls is TrueConst:
        return (KIND_TRUE,), KIND_TRUE, (), 0, 0, None
    if cls is FalseConst:
        return (KIND_FALSE,), KIND_FALSE, (), 0, 0, None
    if cls is Atom:
        return (KIND_ATOM, node.name), KIND_ATOM, (), 0, 0, node.name
    if cls is PredicateAtom:
        return (KIND_PRED, node.name), KIND_PRED, (), 0, 0, node.name
    if cls is Not:
        cid = node.operand._intern_id
        return (KIND_NOT, cid), KIND_NOT, (cid,), 0, 0, None
    if cls is And or cls is Or:
        kind = KIND_AND if cls is And else KIND_OR
        cids = tuple(op._intern_id for op in node.operands)
        return (kind,) + cids, kind, cids, 0, 0, None
    if cls is Until:
        lo, hi = _encode_interval(node.interval)
        lid = node.left._intern_id
        rid = node.right._intern_id
        return (KIND_UNTIL, lid, rid, lo, hi), KIND_UNTIL, (lid, rid), lo, hi, None
    if cls is Eventually or cls is Always:
        kind = KIND_EVENTUALLY if cls is Eventually else KIND_ALWAYS
        lo, hi = _encode_interval(node.interval)
        cid = node.operand._intern_id
        return (kind, cid, lo, hi), kind, (cid,), lo, hi, None
    raise TypeError(f"unknown formula node: {node!r}")


def _intern_node(node: "Formula") -> "Formula":
    """Return the canonical instance structurally equal to ``node``."""
    children = node.children()
    if children and any(child._intern_id is None for child in children):
        canonical = tuple(intern_formula(child) for child in children)
        if any(new is not old for new, old in zip(canonical, children)):
            node = node._rebuild(canonical)
            if node._intern_id is not None:
                return node
    key = (node.__class__, node._key_fields())
    found = _INTERN.get(key)
    if found is not None:
        return found
    with _INTERN_LOCK:
        found = _INTERN.get(key)
        if found is not None:
            return found
        arena_key, kind, cids, iv_lo, iv_hi, name = _node_signature(node)
        fid = ARENA.by_key.get(arena_key)
        if fid is None:
            fid = ARENA.append_row(arena_key, kind, cids, iv_lo, iv_hi, name)
        else:
            ref = ARENA.refs[fid]
            live = ref() if ref is not None else None
            if live is not None:
                # The canonical object exists but fell out of the object
                # cache key we looked up (e.g. it was built through
                # formula_of): heal the cache and reuse it.
                _INTERN[key] = live
                return live
        object.__setattr__(node, "_intern_id", fid)
        ARENA.refs[fid] = weakref.ref(node)
        _INTERN[key] = node
        return node


def _mk(cls, *fields) -> "Formula":
    """Interning constructor: look the node up before building it."""
    node = _INTERN.get((cls, fields))
    if node is not None:
        return node
    return _intern_node(cls(*fields))


def intern_formula(formula: "Formula") -> "Formula":
    """The canonical (interned) instance equal to ``formula``.

    Recursively canonicalizes directly constructed subtrees; formulas
    built through the smart constructors come back unchanged.  Interned
    formulas compare by identity, carry a cached hash, and expose a
    process-unique :func:`intern_id` indexing their arena row.
    """
    if formula._intern_id is not None:
        return formula
    return _intern_node(formula)


def intern_id(formula: "Formula") -> int:
    """Dense arena id of the formula's structural equivalence class.

    Cheap total order for deterministic tie-breaking (sorting by it
    instead of stringifying formulas) and the index the columnar
    progression kernel runs on; ids are stable per
    structure within a process (even across GC of the object) but *not*
    across processes or runs.
    """
    node = formula if formula._intern_id is not None else intern_formula(formula)
    return node._intern_id


def interned_count() -> int:
    """Number of live interned formula *objects* (diagnostics and tests).

    Arena rows are append-only and never reclaimed; this counts the
    canonical objects still alive, which shrinks under GC.
    """
    return len(_INTERN)


def formula_of(fid: int) -> "Formula":
    """The canonical :class:`Formula` for an arena id (the API-boundary
    inverse of :func:`intern_id`).

    Dereferences the arena's weakref when the canonical object is
    alive; otherwise rebuilds the object tree from the arena rows and
    re-registers it under the same id.  Predicate-atom rows cannot be
    rebuilt (the predicate callable is not part of the structural
    record) — but a residual referencing one transitively keeps the
    object alive, so this only raises for formulas nothing references.
    """
    ref = ARENA.refs[fid]
    if ref is not None:
        obj = ref()
        if obj is not None:
            return obj
    kind = ARENA.kinds[fid]
    if kind == KIND_TRUE:
        return TRUE
    if kind == KIND_FALSE:
        return FALSE
    if kind == KIND_PRED:
        raise FormulaError(
            f"predicate atom {ARENA.names[fid]!r} (arena id {fid}) has no live "
            "object; predicates are not reconstructible from the arena"
        )
    if kind == KIND_ATOM:
        node: Formula = Atom(ARENA.names[fid])
    elif kind == KIND_NOT:
        node = Not(formula_of(ARENA.child_ids[ARENA.child_off[fid]]))
    elif kind == KIND_AND:
        node = And(tuple(formula_of(c) for c in ARENA.children(fid)))
    elif kind == KIND_OR:
        node = Or(tuple(formula_of(c) for c in ARENA.children(fid)))
    elif kind == KIND_UNTIL:
        off = ARENA.child_off[fid]
        node = Until(
            formula_of(ARENA.child_ids[off]),
            formula_of(ARENA.child_ids[off + 1]),
            ARENA.interval(fid),
        )
    elif kind == KIND_EVENTUALLY:
        node = Eventually(formula_of(ARENA.child_ids[ARENA.child_off[fid]]), ARENA.interval(fid))
    elif kind == KIND_ALWAYS:
        node = Always(formula_of(ARENA.child_ids[ARENA.child_off[fid]]), ARENA.interval(fid))
    else:
        raise FormulaError(f"unknown arena kind {kind} at id {fid}")
    with _INTERN_LOCK:
        ref = ARENA.refs[fid]
        obj = ref() if ref is not None else None
        if obj is not None:
            return obj
        # Not entered in the object cache: a constructor that misses it
        # finds this object by its arena row and heals the entry.
        object.__setattr__(node, "_intern_id", fid)
        ARENA.refs[fid] = weakref.ref(node)
    return node


def _restore_interned(cls, args) -> "Formula":
    """Unpickle hook: rebuild and re-intern in the receiving process."""
    return intern_formula(cls(*args))


class Formula:
    """Base class for all MTL formula nodes."""

    #: subclasses override; used for cheap structural dispatch
    arity: int = 0

    #: lazily cached structural hash (instances shadow via object.__setattr__)
    _hash: int | None = None

    #: set exactly once when the node is interned; None = not canonical
    _intern_id: int | None = None

    def _key_fields(self) -> tuple:
        """The structural identity of this node (children + parameters)."""
        raise NotImplementedError

    def _build_args(self) -> tuple:
        """Constructor arguments that reproduce this node (pickling)."""
        return self._key_fields()

    def _rebuild(self, children: tuple["Formula", ...]) -> "Formula":
        """This node with its children replaced (leaves return self)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return self._key_fields() == other._key_fields()

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.__class__.__name__, self._key_fields()))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (_restore_interned, (self.__class__, self._build_args()))

    def children(self) -> tuple["Formula", ...]:
        """The direct subformulas of this node."""
        return ()

    # -- structural measures ----------------------------------------------

    def size(self) -> int:
        """Number of AST nodes (the paper's "number of sub-formulas")."""
        return 1 + sum(child.size() for child in self.children())

    def temporal_depth(self) -> int:
        """Maximum nesting depth of temporal operators.

        The paper observes (Fig 5a) that runtime depends on this depth.
        """
        inner = max((child.temporal_depth() for child in self.children()), default=0)
        return inner + (1 if self.is_temporal() else 0)

    def is_temporal(self) -> bool:
        """True for U/F/G nodes."""
        return isinstance(self, (Until, Eventually, Always))

    def atoms(self) -> frozenset["Atom"]:
        """All atomic propositions occurring in the formula."""
        found: set[Atom] = set()
        for node in self.walk():
            if isinstance(node, Atom):
                found.add(node)
        return frozenset(found)

    def walk(self) -> Iterator["Formula"]:
        """Pre-order iteration over all nodes of the AST."""
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    # -- operator sugar -----------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return land(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return lor(self, other)

    def __invert__(self) -> "Formula":
        return lnot(self)

    def implies(self, other: "Formula") -> "Formula":
        """``self -> other``, desugared to ``!self | other``."""
        return lor(lnot(self), other)


@dataclass(frozen=True, eq=False)
class TrueConst(Formula):
    """The constant ``true``."""

    def _key_fields(self) -> tuple:
        return ()

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return self

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, eq=False)
class FalseConst(Formula):
    """The constant ``false``."""

    def _key_fields(self) -> tuple:
        return ()

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return self

    def __str__(self) -> str:
        return "false"


#: Interned singletons — always compare equal to fresh instances, but
#: reusing these keeps formula construction allocation-free on the hot
#: simplification path.
TRUE = _intern_node(TrueConst())
FALSE = _intern_node(FalseConst())

#: Arena ids of the constants — the columnar kernel's verdict sentinels.
#: Interned first, so these are always 0 and 1.
TRUE_ID: int = TRUE._intern_id
FALSE_ID: int = FALSE._intern_id


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    """An atomic proposition, identified by name.

    Names are free-form; the blockchain specs use dotted, argumented names
    such as ``apr.asset_redeemed(bob)``.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise FormulaError("atom name must be non-empty")

    def _key_fields(self) -> tuple:
        return (self.name,)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return self

    def holds_in(self, props: frozenset[str], valuation: Mapping[str, float]) -> bool:
        """Truth of this atom in a state (propositional membership)."""
        return self.name in props

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class PredicateAtom(Atom):
    """An atom whose truth is a predicate over a state's numeric valuation.

    This implements the paper's remark (Section V-A) that for formulas
    involving non-boolean variables (e.g. ``x1 + x2 <= 7``, or the payoff
    sums in the blockchain specs) the labelling function mu is updated
    accordingly.  Equality and hashing use the name only, so two predicate
    atoms with the same name are the same proposition; keep names unique.
    """

    predicate: Callable[[Mapping[str, float]], bool] = field(compare=False, hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.predicate is None:
            raise FormulaError(f"predicate atom {self.name!r} needs a predicate")

    def _build_args(self) -> tuple:
        # Reconstruction needs the predicate; identity is the name alone.
        return (self.name, self.predicate)

    def holds_in(self, props: frozenset[str], valuation: Mapping[str, float]) -> bool:
        return bool(self.predicate(valuation))

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True, eq=False)
class Not(Formula):
    """Negation ``!phi``."""

    operand: Formula
    arity = 1

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def _key_fields(self) -> tuple:
        return (self.operand,)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return Not(children[0])

    def __str__(self) -> str:
        return f"!{_paren(self.operand)}"


@dataclass(frozen=True, eq=False)
class And(Formula):
    """N-ary conjunction. Use :func:`land` to build simplified instances."""

    operands: tuple[Formula, ...]
    arity = -1

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise FormulaError("And requires at least two operands")

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def _key_fields(self) -> tuple:
        return (self.operands,)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return And(children)

    def __str__(self) -> str:
        return " & ".join(_paren(op) for op in self.operands)


@dataclass(frozen=True, eq=False)
class Or(Formula):
    """N-ary disjunction. Use :func:`lor` to build simplified instances."""

    operands: tuple[Formula, ...]
    arity = -1

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise FormulaError("Or requires at least two operands")

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def _key_fields(self) -> tuple:
        return (self.operands,)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return Or(children)

    def __str__(self) -> str:
        return " | ".join(_paren(op) for op in self.operands)


@dataclass(frozen=True, eq=False)
class Until(Formula):
    """``phi1 U_I phi2`` — phi2 within I, phi1 at every state before it."""

    left: Formula
    right: Formula
    interval: Interval
    arity = 2

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def _key_fields(self) -> tuple:
        return (self.left, self.right, self.interval)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return Until(children[0], children[1], self.interval)

    def __str__(self) -> str:
        return f"{_paren(self.left)} U{self.interval} {_paren(self.right)}"


@dataclass(frozen=True, eq=False)
class Eventually(Formula):
    """``F_I phi`` — phi at some state whose offset falls in I."""

    operand: Formula
    interval: Interval
    arity = 1

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def _key_fields(self) -> tuple:
        return (self.operand, self.interval)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return Eventually(children[0], self.interval)

    def __str__(self) -> str:
        return f"F{self.interval} {_paren(self.operand)}"


@dataclass(frozen=True, eq=False)
class Always(Formula):
    """``G_I phi`` — phi at every state whose offset falls in I."""

    operand: Formula
    interval: Interval
    arity = 1

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def _key_fields(self) -> tuple:
        return (self.operand, self.interval)

    def _rebuild(self, children: tuple[Formula, ...]) -> Formula:
        return Always(children[0], self.interval)

    def __str__(self) -> str:
        return f"G{self.interval} {_paren(self.operand)}"


def _paren(formula: Formula) -> str:
    """Parenthesise compound operands for unambiguous printing."""
    if isinstance(formula, (And, Or, Until)):
        return f"({formula})"
    return str(formula)


# ---------------------------------------------------------------------------
# Smart constructors.
#
# These apply only *local*, constant-folding simplifications; they are what
# the progression rules (Section IV) rely on for the "trivial cases" of
# disjunction/conjunction progression.  Deeper rewriting lives in
# repro.mtl.rewrite.
# ---------------------------------------------------------------------------


def atom(name: str) -> Atom:
    """Build an (interned) atomic proposition."""
    return _mk(Atom, name)


def lnot(operand: Formula) -> Formula:
    """Simplifying negation: folds constants and double negation."""
    if isinstance(operand, TrueConst):
        return FALSE
    if isinstance(operand, FalseConst):
        return TRUE
    if isinstance(operand, Not):
        return operand.operand
    return _mk(Not, operand)


def land(*operands: Formula) -> Formula:
    """Simplifying n-ary conjunction.

    Folds constants, flattens nested conjunctions, deduplicates operands
    while preserving first-occurrence order, and detects ``p & !p``.
    """
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for op in operands:
        if isinstance(op, FalseConst):
            return FALSE
        if isinstance(op, TrueConst):
            continue
        parts = op.operands if isinstance(op, And) else (op,)
        for part in parts:
            if part in seen:
                continue
            seen.add(part)
            flat.append(part)
    for op in flat:
        if lnot(op) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return _mk(And, tuple(flat))


def lor(*operands: Formula) -> Formula:
    """Simplifying n-ary disjunction (dual of :func:`land`)."""
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for op in operands:
        if isinstance(op, TrueConst):
            return TRUE
        if isinstance(op, FalseConst):
            continue
        parts = op.operands if isinstance(op, Or) else (op,)
        for part in parts:
            if part in seen:
                continue
            seen.add(part)
            flat.append(part)
    for op in flat:
        if lnot(op) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _mk(Or, tuple(flat))


def implies(left: Formula, right: Formula) -> Formula:
    """``left -> right`` desugared to ``!left | right``."""
    return lor(lnot(left), right)


def until(left: Formula, right: Formula, interval: Interval | None = None) -> Formula:
    """``left U_I right``; interval defaults to ``[0, inf)``."""
    interval = interval if interval is not None else Interval.always()
    if interval.is_empty():
        return FALSE
    return _mk(Until, left, right, interval)


def eventually(operand: Formula, interval: Interval | None = None) -> Formula:
    """``F_I operand``; interval defaults to ``[0, inf)``.

    Folding is finite-trace-aware: an empty window can never produce a
    witness (``false``), and ``F_I false`` is ``false``.  ``F_I true`` is
    deliberately *not* folded to ``true``: the strong semantics demands
    some state whose offset lands in ``I``, and a residual formula may end
    up evaluated against an empty remainder (where it must close to
    ``false``).
    """
    interval = interval if interval is not None else Interval.always()
    if interval.is_empty():
        return FALSE
    if isinstance(operand, FalseConst):
        return FALSE
    return _mk(Eventually, operand, interval)


def always(operand: Formula, interval: Interval | None = None) -> Formula:
    """``G_I operand``; interval defaults to ``[0, inf)``.

    Dual folding: an empty window is vacuously satisfied and ``G_I true``
    is ``true``.  ``G_I false`` is deliberately *not* folded to ``false``:
    the weak semantics holds vacuously when no state ever lands in ``I``
    (in particular on an empty remainder, where residuals close to
    ``true``).
    """
    interval = interval if interval is not None else Interval.always()
    if interval.is_empty():
        return TRUE
    if isinstance(operand, TrueConst):
        return TRUE
    return _mk(Always, operand, interval)


# Short aliases used pervasively by the spec modules.
F = eventually
G = always
U = until


# ---------------------------------------------------------------------------
# Id-level smart constructors.
#
# These are the arena-row counterparts of the object constructors above and
# MUST mirror their simplification semantics exactly — the columnar
# progression kernel builds residuals through them, and the differential
# harness asserts bit-identical residual structures against the object
# path.  They never materialize Formula objects; new structures become
# bare arena rows via :meth:`InternArena.row_id`.  Intervals travel as
# encoded ``(lo, hi)`` int pairs (``hi`` may be :data:`IV_INF`); an empty
# window is ``hi != IV_INF and hi <= lo``.
# ---------------------------------------------------------------------------


def id_lnot(x: int) -> int:
    """Id-level :func:`lnot`: folds constants and double negation."""
    kind = ARENA.kinds[x]
    if kind == KIND_TRUE:
        return FALSE_ID
    if kind == KIND_FALSE:
        return TRUE_ID
    if kind == KIND_NOT:
        return ARENA.child_ids[ARENA.child_off[x]]
    return ARENA.row_id((KIND_NOT, x), KIND_NOT, (x,))


def _id_complement_in(flat: list[int], seen: set[int]) -> bool:
    """True when some member's negation is also a member.

    Mirrors the object path's ``lnot(op) in seen`` check without
    allocating: ``!x`` either is ``x``'s child (when ``x`` is a Not) or
    is the already-interned ``Not(x)`` row — a negation row that was
    never interned cannot be in ``seen``.
    """
    kinds = ARENA.kinds
    child_ids = ARENA.child_ids
    child_off = ARENA.child_off
    by_key = ARENA.by_key
    for x in flat:
        if kinds[x] == KIND_NOT:
            neg: int | None = child_ids[child_off[x]]
        else:
            neg = by_key.get((KIND_NOT, x))
        if neg is not None and neg in seen:
            return True
    return False


def id_land(ids) -> int:
    """Id-level :func:`land`: folds, flattens, dedups, detects ``p & !p``."""
    flat: list[int] = []
    seen: set[int] = set()
    kinds = ARENA.kinds
    for x in ids:
        kind = kinds[x]
        if kind == KIND_FALSE:
            return FALSE_ID
        if kind == KIND_TRUE:
            continue
        parts = ARENA.children(x) if kind == KIND_AND else (x,)
        for part in parts:
            if part in seen:
                continue
            seen.add(part)
            flat.append(part)
    if _id_complement_in(flat, seen):
        return FALSE_ID
    if not flat:
        return TRUE_ID
    if len(flat) == 1:
        return flat[0]
    return ARENA.row_id((KIND_AND, *flat), KIND_AND, tuple(flat))


def id_lor(ids) -> int:
    """Id-level :func:`lor` (dual of :func:`id_land`)."""
    flat: list[int] = []
    seen: set[int] = set()
    kinds = ARENA.kinds
    for x in ids:
        kind = kinds[x]
        if kind == KIND_TRUE:
            return TRUE_ID
        if kind == KIND_FALSE:
            continue
        parts = ARENA.children(x) if kind == KIND_OR else (x,)
        for part in parts:
            if part in seen:
                continue
            seen.add(part)
            flat.append(part)
    if _id_complement_in(flat, seen):
        return TRUE_ID
    if not flat:
        return FALSE_ID
    if len(flat) == 1:
        return flat[0]
    return ARENA.row_id((KIND_OR, *flat), KIND_OR, tuple(flat))


def id_until(left: int, right: int, lo: int, hi: int) -> int:
    """Id-level :func:`until` on an encoded interval."""
    if hi != IV_INF and hi <= lo:
        return FALSE_ID
    return ARENA.row_id(
        (KIND_UNTIL, left, right, lo, hi), KIND_UNTIL, (left, right), lo, hi
    )


def id_eventually(operand: int, lo: int, hi: int) -> int:
    """Id-level :func:`eventually` (``F false`` folds, ``F true`` does not)."""
    if hi != IV_INF and hi <= lo:
        return FALSE_ID
    if ARENA.kinds[operand] == KIND_FALSE:
        return FALSE_ID
    return ARENA.row_id(
        (KIND_EVENTUALLY, operand, lo, hi), KIND_EVENTUALLY, (operand,), lo, hi
    )


def id_always(operand: int, lo: int, hi: int) -> int:
    """Id-level :func:`always` (``G true`` folds, ``G false`` does not)."""
    if hi != IV_INF and hi <= lo:
        return TRUE_ID
    if ARENA.kinds[operand] == KIND_TRUE:
        return TRUE_ID
    return ARENA.row_id(
        (KIND_ALWAYS, operand, lo, hi), KIND_ALWAYS, (operand,), lo, hi
    )
