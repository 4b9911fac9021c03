"""Events over the coherent SDTs and their bounded lattice."""

import gc
import weakref

import pytest

from desire_kernel import events
from desire_kernel.core import CapacityError, RuleSet, Universe


def members(u, event):
    return {u.names_of(D) for D in events.event_members(u, event)}


def test_basic_event_collects_the_compatible_sdts(u1):
    e = events.basic_event(u1, u1.mask_of(["c"]))
    assert members(u1, e) == {("c",), ("a", "c"), ("b", "c"), ("a", "b", "c")}


def test_empty_set_has_the_impossible_event(u1):
    assert events.basic_event(u1, 0) == 0


def test_sets_meeting_the_unconditional_closure_are_sure(u2):
    full = (1 << len(events.coherent_sdts(u2))) - 1
    assert events.basic_event(u2, u2.mask_of(["a"])) == full


def test_basic_event_matches_its_definition_on_every_set(u1, u2):
    for u in (u1, u2):
        C = events.coherent_sdts(u)
        for s in u.subsets():
            expected = sum(1 << i for i, D in enumerate(C) if s & D)
            assert events.basic_event(u, s) == expected


def test_event_caches_do_not_keep_universes_alive():
    refs = []
    for _ in range(3):
        u = Universe(["a", "b", "c"], RuleSet(((0b011, 0b100),)))
        events.event_of(u, [0b001, 0b110])
        refs.append(weakref.ref(u))
        del u
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_event_of_a_family_is_the_meet_of_basic_events(u1):
    e = events.event_of(u1, {u1.mask_of(["a"]), u1.mask_of(["b"])})
    assert members(u1, e) == {("a", "b", "c")}
    pair = events.event_of(u1, {u1.mask_of(["a", "b"])})
    assert pair == events.basic_event(u1, u1.mask_of(["a", "b"]))
    assert len(members(u1, pair)) == 5


def test_empty_family_has_the_sure_event(u1):
    C = events.coherent_sdts(u1)
    assert events.event_of(u1, frozenset()) == (1 << len(C)) - 1


def test_family_events_multiply_under_union(u1, u3):
    for u in (u1, u3):
        subsets = list(u.subsets())
        fams = [frozenset(), {subsets[1]}, set(subsets[1:3]), {u.full_mask}]
        for W1 in fams:
            for W2 in fams:
                assert events.event_of(u, set(W1) | set(W2)) == (
                    events.event_of(u, W1) & events.event_of(u, W2)
                )


def test_production_event_holds_the_selection_closures(u1, u2):
    e = events.production_event(u1, {u1.mask_of(["a"]), u1.mask_of(["b"])})
    assert members(u1, e) == {("a", "b", "c")}
    assert members(u1, events.production_event(u1, frozenset())) == {()}
    # cl({b}) meets the forbidden set, so nothing coherent is produced
    assert events.production_event(u2, {u2.mask_of(["b"])}) == 0


def test_statement_event_is_the_upset_of_the_production_event(u1, u2, u3):
    for u in (u1, u2, u3):
        subsets = [s for s in u.subsets() if s]
        fams = [frozenset()] + [{s} for s in subsets] + [set(subsets[:2])]
        for W in fams:
            assert events.event_of(u, W) == events.upset_in_C(
                u, events.production_event(u, W)
            )


def test_upset_of_the_bottom_sdt_is_everything(u1):
    C = events.coherent_sdts(u1)
    full = (1 << len(C)) - 1
    assert events.upset_in_C(u1, 1 << C.index(0)) == full
    top = 1 << C.index(u1.full_mask)
    assert events.upset_in_C(u1, top) == top


def test_event_members_match_the_conjunctive_models(u1):
    from desire_kernel import sds

    for W in [frozenset(), {u1.mask_of(["a", "b"])}, {u1.mask_of(["a"]), u1.mask_of(["c"])}]:
        expected = {
            D for D in events.coherent_sdts(u1) if W <= sds.sdsify(u1, D)
        }
        assert set(events.event_members(u1, events.event_of(u1, W))) == expected


def test_lattice_is_closed_and_bounded(u3):
    lattice = events.build_event_lattice(u3)
    assert lattice.bottom in lattice.elements and lattice.top in lattice.elements
    for a in lattice.elements:
        for b in lattice.elements:
            assert a | b in lattice.elements
            assert a & b in lattice.elements


def test_degenerate_lattice_has_only_the_bounds(u2):
    lattice = events.build_event_lattice(u2)
    assert lattice.elements == frozenset({0, lattice.top})


def test_lattice_upset(u3):
    lattice = events.build_event_lattice(u3)
    assert lattice.upset(lattice.top) == frozenset({lattice.top})
    assert lattice.upset(lattice.bottom) == lattice.elements


def test_lattice_guard():
    u = Universe([chr(ord("a") + i) for i in range(5)], RuleSet(()))  # |C| = 32
    with pytest.raises(CapacityError):
        events.build_event_lattice(u)


def test_format_event(u2):
    e = events.event_of(u2, frozenset())
    assert events.format_event(u2, e) == "[{a}]"
