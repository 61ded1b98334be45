"""Formula interning (hash-consing): identity, pickling, and semantics.

The hot monitoring loop keys residual dicts and progression memos on
interned formulas; these tests pin the interning contract — smart
constructors return canonical instances, direct construction still
compares structurally, pickling re-interns, and interning never changes
a verdict (the differential property lives in
``tests/monitor/test_differential.py::test_interned_equals_structural``).
"""

from __future__ import annotations

import gc
import pickle

from repro.mtl.ast import (
    FALSE,
    TRUE,
    And,
    Atom,
    Eventually,
    Formula,
    Not,
    Or,
    PredicateAtom,
    Until,
    atom,
    eventually,
    formula_of,
    intern_formula,
    intern_id,
    interned_count,
    land,
    lnot,
    lor,
    until,
)
from repro.mtl.interval import Interval
from repro.mtl.parser import parse


def _module_level_predicate(valuation) -> bool:
    return True


def structural_clone(formula: Formula) -> Formula:
    """Rebuild a formula through raw constructors, bypassing interning."""
    if isinstance(formula, (type(TRUE), type(FALSE))):
        return type(formula)()
    if isinstance(formula, PredicateAtom):
        return PredicateAtom(formula.name, formula.predicate)
    if isinstance(formula, Atom):
        return Atom(formula.name)
    if isinstance(formula, Not):
        return Not(structural_clone(formula.operand))
    if isinstance(formula, And):
        return And(tuple(structural_clone(op) for op in formula.operands))
    if isinstance(formula, Or):
        return Or(tuple(structural_clone(op) for op in formula.operands))
    if isinstance(formula, Until):
        return Until(
            structural_clone(formula.left),
            structural_clone(formula.right),
            formula.interval,
        )
    if isinstance(formula, Eventually):
        return Eventually(structural_clone(formula.operand), formula.interval)
    return type(formula)(structural_clone(formula.operand), formula.interval)


class TestConstructorInterning:
    def test_atoms_are_shared(self):
        assert atom("p") is atom("p")
        assert atom("p") is not atom("q")

    def test_composites_are_shared(self):
        a = land(atom("p"), eventually(atom("q"), Interval.bounded(0, 5)))
        b = land(atom("p"), eventually(atom("q"), Interval.bounded(0, 5)))
        assert a is b

    def test_parser_output_is_interned(self):
        assert parse("G[0,4) (a | b)") is parse("G[0,4) (a | b)")

    def test_operator_sugar_is_interned(self):
        assert (atom("a") & atom("b")) is land(atom("a"), atom("b"))
        assert (~atom("a")) is lnot(atom("a"))

    def test_constants_are_singletons(self):
        assert lnot(TRUE) is FALSE
        assert land() is TRUE
        assert lor() is FALSE


class TestStructuralCompatibility:
    def test_direct_construction_compares_structurally(self):
        direct = Not(Atom("p"))
        assert direct == lnot(atom("p"))
        assert hash(direct) == hash(lnot(atom("p")))
        assert direct is not lnot(atom("p"))

    def test_intern_formula_canonicalizes_deep_trees(self):
        direct = And((Atom("p"), Until(Atom("a"), Atom("b"), Interval.bounded(0, 4))))
        canonical = intern_formula(direct)
        assert canonical == direct
        assert canonical is intern_formula(structural_clone(direct))
        assert canonical is land(atom("p"), until(atom("a"), atom("b"), Interval.bounded(0, 4)))

    def test_intern_formula_idempotent(self):
        f = parse("(F[0,5) a) & (F[0,9) b)")
        assert intern_formula(f) is f

    def test_atom_vs_predicate_atom_stay_distinct(self):
        plain = atom("p")
        predicate = intern_formula(PredicateAtom("p", lambda v: True))
        assert plain != predicate
        assert plain is not predicate

    def test_predicate_atoms_intern_by_name(self):
        first = intern_formula(PredicateAtom("payoff", lambda v: True))
        second = intern_formula(PredicateAtom("payoff", lambda v: False))
        assert first is second  # names identify the proposition (documented)


class TestInternIds:
    def test_ids_are_unique_and_stable(self):
        f = parse("a U[0,6) b")
        g = parse("F[0,8) b")
        assert intern_id(f) == intern_id(f)
        assert intern_id(f) != intern_id(g)
        assert intern_id(structural_clone(f)) == intern_id(f)

    def test_ids_give_a_deterministic_order(self):
        specs = [parse("a"), parse("F[0,3) b"), parse("G[0,4) (a | b)")]
        by_id = sorted(specs, key=intern_id)
        assert sorted(reversed(specs), key=intern_id) == by_id


class TestPickling:
    def test_unpickle_reinterns(self):
        f = parse("(F[0,5) a) & (G[0,9) (b | c))")
        assert pickle.loads(pickle.dumps(f)) is f

    def test_unpickled_direct_nodes_come_back_canonical(self):
        direct = Not(Atom("p"))
        restored = pickle.loads(pickle.dumps(direct))
        assert restored == direct
        assert restored is lnot(atom("p"))

    def test_predicate_atom_pickles_with_predicate(self):
        # Module-level predicates pickle (closures never did, pre- or
        # post-interning); the restored node re-interns by name.
        node = intern_formula(PredicateAtom("probe", _module_level_predicate))
        restored = pickle.loads(pickle.dumps(node))
        assert restored is node
        assert restored.predicate is _module_level_predicate

    def test_carried_dict_roundtrip_preserves_counts(self):
        carried = {parse("F[0,5) a"): 3, parse("G[0,2) b"): 1}
        restored = pickle.loads(pickle.dumps(carried))
        assert restored == carried
        assert all(key is pickle.loads(pickle.dumps(key)) for key in restored)


class TestLifecycle:
    def test_unreferenced_formulas_are_collected(self):
        before = interned_count()
        bulk = [atom(f"gc_probe_{i}") for i in range(200)]
        assert interned_count() >= before + 200
        del bulk
        gc.collect()
        assert interned_count() < before + 200

    def test_a_formula_rebuilt_from_the_arena_is_the_canonical_one(self):
        """``formula_of`` rebuilds a collected formula from its arena rows
        without entering it in the object cache; the constructors,
        re-interning and unpickling still find that very object."""

        def build() -> Formula:
            return eventually(land(atom("rebuilt_a"), atom("rebuilt_b")), Interval.bounded(0, 5))

        fid = intern_id(build())
        gc.collect()
        rebuilt = formula_of(fid)
        assert intern_id(rebuilt) == fid
        assert build() is rebuilt
        assert intern_formula(structural_clone(rebuilt)) is rebuilt
        assert pickle.loads(pickle.dumps(rebuilt)) is rebuilt
