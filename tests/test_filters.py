"""Filters on the event lattice and the representation maps."""

import pytest

from desire_kernel import events, filters, sds
from desire_kernel.core import InconsistencyError, InputError


@pytest.fixture
def lat1(u1):
    return events.build_event_lattice(u1)


@pytest.fixture
def lat3(u3):
    return events.build_event_lattice(u3)


def up(u, names):
    s = u.mask_of(names)
    return frozenset(t for t in u.subsets() if s & ~t == 0)


def test_filter_invariants_are_enforced(lat3):
    with pytest.raises(InputError):
        filters.LatticeFilter(lat3, frozenset())
    with pytest.raises(InputError):
        filters.LatticeFilter(lat3, frozenset({lat3.bottom}))  # misses supersets
    non_elements = frozenset({max(lat3.elements) + 1})
    with pytest.raises(InputError):
        filters.LatticeFilter(lat3, non_elements)


def test_generate_filter_from_the_top_base(lat1):
    base = filters.FilterBase(lat1, frozenset({lat1.top}))
    F = filters.generate_filter(base)
    assert F.members == frozenset({lat1.top})
    assert filters.is_proper(F) and F.members == lat1.upset(F.meet())


def test_generate_filter_from_a_statement_event(u1, lat1):
    e = events.event_of(u1, {u1.mask_of(["a"]), u1.mask_of(["b"])})
    F = filters.generate_filter(filters.FilterBase(lat1, frozenset({e})))
    assert F.members == lat1.upset(e)
    assert F.meet() == e


def test_filter_base_rejects_bottom_and_undirected_generators(u3, lat3):
    with pytest.raises(InputError):
        filters.FilterBase(lat3, frozenset({lat3.bottom}))
    a_event = events.basic_event(u3, u3.mask_of(["a"]))
    b_event = events.basic_event(u3, u3.mask_of(["b"]))
    # nothing in {A_a, A_b} sits below their meet
    with pytest.raises(InputError):
        filters.FilterBase(lat3, frozenset({a_event, b_event}))


def test_whole_lattice_is_improper(lat3):
    F = filters.LatticeFilter(lat3, lat3.elements)
    assert not filters.is_proper(F)
    with pytest.raises(InputError):
        filters.desirify(lat3.universe, F)
    with pytest.raises(InputError):
        filters.prime_decomposition(F)


def test_every_proper_filter_here_is_principal(lat1, lat3):
    for lattice in (lat1, lat3):
        for F in filters.enumerate_proper_filters(lattice):
            assert F.meet() in F.members and F.members == lattice.upset(F.meet())
            assert filters.is_proper(F)


def test_prime_filters_are_the_proper_filters_no_join_splits(lat1, lat3):
    for lattice in (lat1, lat3):
        def splits(F):
            return any(
                a | b in F.members and a not in F.members and b not in F.members
                for a in lattice.elements for b in lattice.elements
            )
        by_definition = {
            F.members for F in filters.enumerate_proper_filters(lattice) if not splits(F)
        }
        primes = filters.enumerate_prime_filters(lattice)
        assert {P.members for P in primes} == by_definition
        assert len(primes) == len(events.coherent_sdts(lattice.universe))
        for F in filters.enumerate_proper_filters(lattice):
            assert filters.is_prime(F) == (F.members in by_definition)


def test_bottom_filter_is_prime(u3, lat3):
    # every non-top event misses the smallest coherent SDT cl({}), so the
    # top is join-irreducible and its singleton filter splits every join
    F = filters.LatticeFilter(lat3, frozenset({lat3.top}))
    assert filters.is_prime(F)
    for a in lat3.elements:
        for b in lat3.elements:
            if a != lat3.top and b != lat3.top:
                assert a | b != lat3.top


def test_conjunctive_models_give_prime_filters(u1, lat1):
    K = sds.sdsify(u1, u1.mask_of(["a", "c"]))
    assert filters.is_prime(filters.filterize(u1, lat1, K))


def test_prime_decomposition_recovers_the_filter(lat1):
    for F in filters.enumerate_proper_filters(lat1):
        primes = filters.prime_decomposition(F)
        inter = frozenset(lat1.elements)
        for P in primes:
            assert filters.is_prime(P) and F.members <= P.members
            inter &= P.members
        assert inter == F.members


def test_filterize_round_trips_with_desirify(u1, lat1):
    K = sds.sds_closure(u1, {u1.mask_of(["a"]), u1.mask_of(["b"])})
    F = filters.filterize(u1, lat1, K)
    e = events.event_of(u1, {u1.mask_of(["a"]), u1.mask_of(["b"])})
    assert F.members == lat1.upset(e)
    assert filters.desirify(u1, F) == K


def test_desirify_round_trips_with_filterize(u1, lat1):
    for F in filters.enumerate_proper_filters(lat1):
        K = filters.desirify(u1, F)
        assert sds.check_sds_coherent(u1, K).ok
        assert filters.filterize(u1, lat1, K).members == F.members


def test_bottoms_and_tops_correspond(u1, lat1):
    bottom_filter = filters.filterize(u1, lat1, sds.bottom_sds(u1))
    assert bottom_filter.members == frozenset({lat1.top})
    assert filters.desirify(u1, bottom_filter) == sds.bottom_sds(u1)
    top_filter = filters.filterize(u1, lat1, sds.power_set(u1))
    assert top_filter.members == lat1.elements


def test_principal_filterize_agrees_with_filterize(u1, lat1):
    K = sds.sds_closure(u1, {u1.mask_of(["a", "b"])})
    E_K, pf = filters.principal_filterize(u1, lat1, K)
    F = filters.filterize(u1, lat1, K)
    assert pf.members == F.members
    assert E_K == F.meet()
    # the statement event pins down K through its compatible models
    inter = frozenset(u1.subsets())
    for D in events.event_members(u1, E_K):
        inter &= sds.sdsify(u1, D)
    assert inter == K


def test_principal_filterize_requires_consistency(u2):
    lattice = events.build_event_lattice(u2)
    with pytest.raises(InconsistencyError):
        filters.principal_filterize(u2, lattice, {u2.mask_of(["b"])})


def test_proper_filter_intersections_stay_proper(lat1):
    proper = filters.enumerate_proper_filters(lat1)
    for F1 in proper:
        for F2 in proper:
            inter = filters.LatticeFilter(lat1, F1.members & F2.members)
            assert filters.is_proper(inter)


def test_format_filter_flags(u1, lat1):
    K = sds.sdsify(u1, u1.mask_of(["a", "c"]))
    text = filters.format_filter(u1, filters.filterize(u1, lat1, K))
    assert text.splitlines()[-1] == "PRIME PROPER"
    split = filters.filterize(u1, lat1, up(u1, ["a", "b"]))  # {a}|{b} in, parts out
    assert filters.format_filter(u1, split).splitlines()[-1] == "PROPER"
    improper = filters.LatticeFilter(lat1, lat1.elements)
    assert filters.format_filter(u1, improper).splitlines()[-1] == "IMPROPER"
