"""Universes, closure operators, and coherent sets of things."""

import pytest
from hypothesis import given, settings, strategies as st

from desire_kernel.core import (
    Backend,
    CapacityError,
    InconsistencyError,
    InputError,
    RuleSet,
    Table,
    Universe,
    never_desirable_things,
    parse_universe,
)


def test_closure_applies_rules_to_fixpoint(u1):
    assert u1.closure(u1.mask_of(["a", "b"])) == u1.mask_of(["a", "b", "c"])


def test_closure_is_idempotent_on_closed_sets(u1):
    closed = u1.closure(u1.mask_of(["a", "b"]))
    assert u1.closure(closed) == closed


def test_closure_of_empty_set_collects_unconditional_rules(u2):
    assert u2.closure(0) == u2.mask_of(["a"])
    assert u2.always_desirable_mask == u2.mask_of(["a"])


def test_closure_rejects_unknown_things(u1):
    with pytest.raises(InputError):
        u1.mask_of(["d"])
    with pytest.raises(InputError):
        u1.closure(1 << 10)


def test_coherent_requires_closedness(u1):
    assert not u1.is_coherent_sdt(u1.mask_of(["a", "b"]))  # cl adds c
    assert u1.is_coherent_sdt(u1.mask_of(["a", "c"]))


def test_coherent_requires_avoiding_forbidden(u2):
    assert not u2.is_coherent_sdt(u2.mask_of(["a", "c"]))


def test_consistency_looks_through_the_closure(u1, u2):
    assert not u2.is_consistent_sdt(u2.mask_of(["b"]))  # cl({b}) contains c
    assert u1.is_consistent_sdt(u1.mask_of(["a", "b"]))
    assert u1.is_consistent_sdt(0)
    assert u2.is_consistent_sdt(0)


def test_enumeration_lists_all_coherent_sets(u1, u2):
    names = [u1.names_of(D) for D in u1.enumerate_coherent_sdts()]
    assert names == [
        (), ("a",), ("b",), ("c",), ("a", "c"), ("b", "c"), ("a", "b", "c"),
    ]
    assert [u2.names_of(D) for D in u2.enumerate_coherent_sdts()] == [("a",)]


def test_rule_closure_with_axioms_duplicates_and_present_conclusions():
    a, b, c, d = 0b0001, 0b0010, 0b0100, 0b1000
    rules = RuleSet((
        (0, a), (0, a),  # a duplicated axiom
        (a | b, c), (a | b, c),  # a duplicated rule
        (c, a),  # its conclusion is an axiom, so always present
        (b, b),  # concludes one of its own premises
        (c | d, b),  # fires only once c has been derived
    ))
    u = Universe(["a", "b", "c", "d"], rules)
    assert u.closure(0) == a
    assert u.closure(b) == a | b | c
    assert u.closure(d) == a | d
    assert u.closure(c | d) == a | b | c | d
    assert u.closure(a | b | c | d) == a | b | c | d


def test_enumeration_makes_at_most_C_times_T_closure_calls():
    # twelve things: a chain t0 -> t1 -> ... -> t5, t6 t7 -> t11 with t11
    # forbidden, and t8 t9 t10 free; 2^12 masks but only 168 coherent sets
    names = [f"t{i}" for i in range(12)]
    rules = tuple((1 << i, 1 << (i + 1)) for i in range(5)) + ((0b11 << 6, 1 << 11),)
    plain = Universe(names, RuleSet(rules), forbidden=["t11"])
    calls = 0

    def close(mask):
        nonlocal calls
        calls += 1
        return plain.closure(mask)

    u = Universe(names, Backend(close), forbidden=["t11"])
    calls = 0
    C = u.enumerate_coherent_sdts()
    assert C == [s for s in plain.subsets() if plain.is_coherent_sdt(s)]
    assert len(C) == 7 * 3 * 8  # chain tails x (not both t6 and t7) x free
    assert calls <= len(C) * u.size + 1
    # C is cached: the diagnostics that read it make no further closure calls
    made = calls
    assert u.sdt_closure_via_intersection(0) == 0
    assert never_desirable_things(u) == 0
    assert calls == made


def test_table_universe_with_forbidden_things_enumerates_as_the_scan():
    # the closure of a -> b and b c -> d as a table, with d forbidden
    def close(mask):
        if mask & 0b0001:
            mask |= 0b0010
        if mask & 0b0110 == 0b0110:
            mask |= 0b1000
        return mask

    u = Universe(["a", "b", "c", "d"], Table(tuple(close(m) for m in range(16))), forbidden=["d"])
    scanned = [s for s in u.subsets() if u.is_coherent_sdt(s)]
    assert u.enumerate_coherent_sdts() == scanned
    assert [u.names_of(D) for D in scanned] == [(), ("b",), ("a", "b"), ("c",)]


def test_closure_via_intersection_agrees(u1, u2):
    assert u1.sdt_closure_via_intersection(u1.mask_of(["a", "b"])) == u1.mask_of(["a", "b", "c"])
    assert u1.sdt_closure_via_intersection(0) == 0
    assert u2.sdt_closure_via_intersection(0) == u2.mask_of(["a"])


def test_closure_via_intersection_reports_the_forbidden_witness(u2):
    with pytest.raises(InconsistencyError) as exc:
        u2.sdt_closure_via_intersection(u2.mask_of(["b"]))
    assert exc.value.witness == u2.mask_of(["c"])


def test_construction_rejects_forbidden_unconditional_things():
    with pytest.raises(InputError):
        Universe(["a"], RuleSet(((0, 0b1),)), forbidden=["a"])


def test_construction_rejects_duplicates_and_empty():
    with pytest.raises(InputError):
        Universe([], RuleSet(()))
    with pytest.raises(InputError):
        Universe(["a", "a"], RuleSet(()))


def test_table_closure_is_validated_eagerly():
    # identity on {∅,{a}} is a legal closure table
    Universe(["a"], Table((0, 1)))
    with pytest.raises(InputError):
        Universe(["a"], Table((1, 0)))  # not extensive at {a}
    with pytest.raises(InputError):
        Universe(["a", "b"], Table((0, 1)))  # wrong size
    with pytest.raises(InputError):
        Universe(["a", "b"], Table((0b11, 0b01, 0b10, 0b11)))  # cl(∅) ⊄ cl({a})


def test_table_closure_rejects_non_idempotent_maps():
    # cl(∅)={a} but cl({a})={a,b}: applying twice grows further
    with pytest.raises(InputError):
        Universe(["a", "b"], Table((0b01, 0b11, 0b11, 0b11)))


def test_subset_scan_is_guarded():
    wide = Universe([f"t{i}" for i in range(30)], RuleSet(()))
    with pytest.raises(CapacityError):
        wide.subsets()
    with pytest.raises(CapacityError, match="over 30 things exceeds the limit of 12 things"):
        wide.enumerate_coherent_sdts(limit=12)


def test_never_desirable_diagnostic():
    # a forces forbidden b, so a sits in no coherent SDT without being forbidden
    u = Universe(["a", "b"], RuleSet(((0b01, 0b10),)), forbidden=["b"])
    assert never_desirable_things(u) == u.mask_of(["a"])


def test_parse_universe_round_trip():
    u = parse_universe(
        """
        # comment
        things: a b c
        forbidden: c
        rule: -> a
        rule: b -> c
        """
    )
    assert u.things == ("a", "b", "c")
    assert u.forbidden_mask == u.mask_of(["c"])
    assert u.always_desirable_mask == u.mask_of(["a"])


@pytest.mark.parametrize(
    "text",
    [
        "rule: a -> b",  # no things line
        "things: a\nrule: a b",  # missing arrow
        "things: a\nrule: a -> b c",  # two conclusions
        "things: a\nrule: x -> a",  # unknown premise
        "things: a\nforbidden: z",  # unknown forbidden thing
        "things: a\nnonsense: 1",
        "things: a\njust text",
    ],
)
def test_parse_universe_rejects_malformed_input(text):
    with pytest.raises(InputError):
        parse_universe(text)


@st.composite
def rule_universes(draw):
    n = draw(st.integers(1, 4))
    full = (1 << n) - 1
    rules = draw(
        st.lists(
            st.tuples(st.integers(0, full), st.integers(0, n - 1)),
            max_size=6,
        )
    )
    return Universe(
        [chr(ord("a") + i) for i in range(n)],
        RuleSet(tuple((prem, 1 << c) for prem, c in rules)),
    )


@given(rule_universes(), st.data())
@settings(max_examples=60, deadline=None)
def test_closure_laws_hold_on_random_rule_universes(u, data):
    mask = data.draw(st.integers(0, u.full_mask))
    cl = u.closure(mask)
    assert mask & ~cl == 0  # extensive
    assert u.closure(cl) == cl  # idempotent
    other = data.draw(st.integers(0, u.full_mask))
    assert u.closure(mask & other) & ~u.closure(mask) == 0  # monotone


@given(rule_universes(), st.data())
@settings(max_examples=40, deadline=None)
def test_finitary_on_rule_universes(u, data):
    # cl(A) is the union of the closures of A's finite subsets; with A
    # itself finite its own term absorbs the union.
    mask = data.draw(st.integers(0, u.full_mask))
    union = 0
    sub = mask
    while True:
        union |= u.closure(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    assert union == u.closure(mask)
