"""Wff parsing, truth-table entailment, and the logic backend."""

import gc
import weakref

import pytest

from desire_kernel import events, logic
from desire_kernel.core import CapacityError, InputError
from desire_kernel.logic import And, Atom, Implies, Not, Or, parse_wff


@pytest.fixture(scope="module")
def lp():
    return logic.LogicUniverse(("p",), depth=2)


@pytest.fixture(scope="module")
def lpq():
    return logic.LogicUniverse(("p", "q"), depth=2)


# -- parsing and printing ----------------------------------------------

def test_parse_basic_connectives():
    assert parse_wff("p | ~p") == Or(Atom("p"), Not(Atom("p")))
    assert parse_wff("p & q -> p") == Implies(And(Atom("p"), Atom("q")), Atom("p"))
    assert parse_wff("~p & q") == And(Not(Atom("p")), Atom("q"))
    assert parse_wff("p -> q -> r") == Implies(Implies(Atom("p"), Atom("q")), Atom("r"))


def test_canonical_printing_is_idempotent():
    for text in ["p | ~p", "(p -> q) & (q -> p)", "~(p | q)", "p & (q | r)"]:
        printed = str(parse_wff(text))
        assert str(parse_wff(printed)) == printed


def test_parse_errors_carry_positions():
    with pytest.raises(InputError, match="position 4"):
        parse_wff("p & | q")
    with pytest.raises(InputError):
        parse_wff("(p | q")
    with pytest.raises(InputError):
        parse_wff("p ?")
    with pytest.raises(InputError):
        parse_wff("")


# -- semantics ----------------------------------------------------------

def test_models_mask_by_valuation_index():
    atoms = ("p", "q")
    # valuation i assigns atom k the truth value of bit k of i
    assert logic.models_mask(atoms, Atom("p")) == 0b1010
    assert logic.models_mask(atoms, Atom("q")) == 0b1100
    assert logic.models_mask(atoms, And(Atom("p"), Atom("q"))) == 0b1000
    assert logic.models_mask(atoms, Or(Atom("p"), Not(Atom("p")))) == 0b1111


def test_models_mask_requires_declared_atoms():
    with pytest.raises(InputError):
        logic.models_mask(("p",), Atom("q"))


def test_entailment():
    atoms = ("p", "q")
    assert logic.entails(atoms, [parse_wff("p | q"), parse_wff("~p")], parse_wff("q"))
    assert logic.entails(atoms, [], parse_wff("p | ~p"))
    assert not logic.entails(atoms, [parse_wff("p")], parse_wff("q"))


# -- the backend universe ----------------------------------------------

def test_universe_separates_tautologies_and_contradictions(lp):
    u = lp.universe
    assert u.always_desirable_mask == lp._theory_mask(lp._all_models)
    assert u.forbidden_mask == sum(
        1 << i for i, m in enumerate(lp.model_masks) if m == 0
    )
    assert u.always_desirable_mask and u.forbidden_mask


def test_closure_implements_modus_ponens():
    lu = logic.LogicUniverse(("p", "q"), depth=2)
    closed = lu.closure_wffs([parse_wff("p"), parse_wff("p -> q")])
    assert Atom("q") in closed
    assert parse_wff("p & q") in closed
    assert parse_wff("~p") not in closed


def test_closure_of_nothing_is_the_tautologies(lp):
    closed = lp.closure_wffs([])
    assert closed
    for w in closed:
        assert logic.entails(lp.atoms, [], w)


def test_inconsistent_premises_close_onto_forbidden_things(lp):
    mask = (1 << lp.wff_index(Atom("p"))) | (1 << lp.wff_index(parse_wff("~p")))
    assert lp.universe.closure(mask) & lp.universe.forbidden_mask


def test_dropped_universes_are_freed():
    # a cache on the class would keep every instance alive
    refs = []
    for _ in range(3):
        lu = logic.LogicUniverse(("p", "q"), depth=2)
        lu.universe.closure(1)
        refs.append(weakref.ref(lu))
        del lu
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_coherent_sdts_are_the_theories_of_valuation_sets(lp):
    C = set(events.coherent_sdts(lp.universe))
    assert C == {lp._theory_mask(v) for v in range(1, lp._all_models + 1)}
    assert len(C) == 3  # Th(p), Th(~p), and the tautologies


def test_universe_without_contradictions_admits_the_total_theory():
    lu = logic.LogicUniverse(("p",), depth=1)  # too shallow to write p & ~p
    assert lu.universe.forbidden_mask == 0
    assert lu.universe.full_mask in events.coherent_sdts(lu.universe)


def test_wff_capacity_errors(lp):
    with pytest.raises(CapacityError):
        lp.wff_index(parse_wff("~~~p"))  # depth 3
    with pytest.raises(CapacityError):
        logic.LogicUniverse(("p", "q"), depth=2, max_things=10)


# -- disjunction extraction --------------------------------------------

def test_fold_disjunction(lp):
    mask = (1 << lp.wff_index(Atom("p"))) | (1 << lp.wff_index(parse_wff("~p")))
    assert str(logic.fold_disjunction(lp, mask)) in ("p | ~p", "~p | p")
    with pytest.raises(InputError):
        logic.fold_disjunction(lp, 0)


def test_disjunction_sdt_matches_the_entailment_oracle(lpq):
    u = lpq.universe
    members = [
        (1 << lpq.wff_index(Atom("p"))) | (1 << lpq.wff_index(Atom("q"))),
    ]
    D = logic.disjunction_sdt(lpq, members)
    premise = parse_wff("p | q")
    assert D >> lpq.wff_index(premise) & 1
    for i in [lpq.wff_index(w) for w in (Atom("p"), Atom("q"), parse_wff("p & q"),
                                         premise, parse_wff("p | ~p"))]:
        assert bool(D >> i & 1) == logic.entails(lpq.atoms, [premise], lpq.wffs[i])


def test_disjunction_sdt_of_the_bottom_family(lp):
    # closing the empty family only asserts the tautologies
    D = logic.disjunction_sdt(lp, [])
    assert D == lp.universe.always_desirable_mask


def test_disjunction_sdt_rejects_inconsistent_families(lp):
    p = 1 << lp.wff_index(Atom("p"))
    np = 1 << lp.wff_index(parse_wff("~p"))
    contradiction = 1 << lp.wff_index(parse_wff("p & ~p"))
    with pytest.raises(InputError):
        logic.disjunction_sdt(lp, [contradiction])
    # asserting p and ~p desirable separately leaves no compatible theory
    with pytest.raises(InputError):
        logic.disjunction_sdt(lp, [p, np])
    # one statement "p or ~p holds a desirable wff" is fine: D is the ⊤s
    assert logic.disjunction_sdt(lp, [p | np]) == lp.universe.always_desirable_mask


def test_disjunction_sdt_refuses_unrepresentable_disjunctions(lpq):
    # p xor q is the one truth table depth 2 cannot write down
    xor_family = (1 << lpq.wff_index(parse_wff("p & ~q"))) | (
        1 << lpq.wff_index(parse_wff("~p & q"))
    )
    with pytest.raises(CapacityError):
        logic.disjunction_sdt(lpq, [xor_family])


def test_wff_families_need_not_be_conjunctive(lp):
    # the statements "p is desirable" and "~p is desirable" close to a
    # family containing {p, ~p} without any non-tautological singleton
    u = lp.universe
    p = 1 << lp.wff_index(Atom("p"))
    np = 1 << lp.wff_index(parse_wff("~p"))
    member = p | np
    compatible = events.event_members(u, events.event_of(u, [member]))
    assert len(compatible) == 2  # Th(p) and Th(~p); the ⊤-theory misses both
    D = logic.disjunction_sdt(lp, [member])
    assert all(member & theory for theory in compatible)  # {p,~p} is desirable
    assert not member & D  # but neither wff is desirable on its own


# -- Lindenbaum quotient -----------------------------------------------

def test_lindenbaum_partition(lp):
    classes = logic.lindenbaum_quotient(lp)
    assert len(classes) == 4  # bottom, p, ~p, top
    assert sum(len(c.members) for c in classes) == lp.universe.size
    assert classes[0].valuations == 0
    assert classes[-1].valuations == lp._all_models


def test_lindenbaum_operations(lpq):
    classes = logic.lindenbaum_quotient(lpq)
    p = logic.models_mask(lpq.atoms, Atom("p"))
    pq = logic.models_mask(lpq.atoms, parse_wff("p & q"))
    assert logic.lindenbaum_class_of(classes, p & pq).valuations == pq  # absorption
    comp = logic.lindenbaum_class_of(classes, lpq._all_models & ~p)
    assert logic.entails(lpq.atoms, [comp.representative], parse_wff("~p"))
    with pytest.raises(CapacityError):
        logic.lindenbaum_class_of(classes, 1 << 40)


def test_atoms_must_be_distinct():
    with pytest.raises(InputError):
        logic.LogicUniverse(("p", "p"), depth=1)
    with pytest.raises(InputError):
        logic.LogicUniverse((), depth=1)
