"""Sets of desirable sets: axioms, production, closures, structure maps."""

import pytest

from desire_kernel import sds
from desire_kernel.core import InconsistencyError, InputError


def masks(u, names_list):
    return frozenset(u.mask_of(names) for names in names_list)


def nonempty(u):
    return frozenset(s for s in u.subsets() if s)


def up(u, names):
    s = u.mask_of(names)
    return frozenset(t for t in u.subsets() if s & ~t == 0)


# -- production ---------------------------------------------------------

def test_production_from_singletons_yields_all_hitting_sets(u1):
    # one selection map picks a and b; cl({a,b}) is everything
    produced = sds.production_step(u1, masks(u1, [["a"], ["b"]]))
    assert produced == nonempty(u1)


def test_production_from_one_pair_yields_its_supersets(u1):
    # selections pick a alone or b alone; cl adds nothing to either
    produced = sds.production_step(u1, masks(u1, [["a", "b"]]))
    assert produced == up(u1, ["a", "b"])


def test_production_of_empty_family_uses_the_unconditional_closure(u2):
    produced = sds.production_step(u2, frozenset())
    assert produced == frozenset(s for s in u2.subsets() if s & u2.mask_of(["a"]))


def test_production_rejects_an_empty_member(u1):
    with pytest.raises(InputError):
        sds.production_step(u1, frozenset({0}))
    with pytest.raises(InputError):
        sds.production_step_raw(u1, frozenset({0}))


def test_hitting_set_production_is_the_superset_closure_of_raw(u1):
    for W in [masks(u1, [["a"], ["b"]]), masks(u1, [["a", "b"], ["c"]])]:
        raw = sds.production_step_raw(u1, W)
        assert sds.production_step(u1, W) == sds.up_close(u1, raw)


# -- coherence checks ---------------------------------------------------

def test_all_nonempty_sets_are_coherent_in_a_free_universe(u1):
    assert sds.check_sds_coherent(u1, nonempty(u1)).ok


def test_upset_of_a_pair_is_coherent(u1):
    assert sds.check_sds_coherent(u1, up(u1, ["a", "b"])).ok


def test_lone_member_fails_the_superset_axiom(u1):
    verdict = sds.check_sds_coherent(u1, masks(u1, [["a", "b"]]))
    assert not verdict.ok
    assert verdict.axiom == "K2"
    s, bigger = verdict.witness
    assert s == u1.mask_of(["a", "b"]) and bigger & ~s


def test_empty_member_fails_immediately(u1):
    verdict = sds.check_sds_coherent(u1, frozenset({0, u1.full_mask}))
    assert verdict.axiom == "K1"


def test_unstripped_forbidden_member_fails(u2):
    K = sds.sdsify(u2, u2.mask_of(["a"]))
    broken = K - {u2.mask_of(["a", "c"])}
    verdict = sds.check_sds_coherent(u2, broken)
    assert not verdict.ok and verdict.axiom in ("K2", "K3")


def test_missing_always_desirable_singleton_fails(u2):
    verdict = sds.check_sds_coherent(u2, frozenset())
    assert verdict.axiom == "K4"
    assert verdict.witness == (u2.mask_of(["a"]),)


def test_sdfs_bottom_is_coherent(u2):
    # on a finite universe every SDS is an SDFS: one checker covers both
    F = frozenset(s for s in u2.subsets() if s & u2.mask_of(["a"]))
    assert sds.check_sds_coherent(u2, F).ok


def test_finite_and_full_modes_agree(u1, u2, u3):
    # finite coherence and coherence coincide here: the one checker's
    # verdict is the representation theorem's
    for u in (u1, u2, u3):
        for K in [frozenset(), nonempty(u), frozenset({u.full_mask}), frozenset({0})]:
            closed = K == sds.conjunctive_closure(u, K) and not sds.is_top(u, K)
            assert sds.check_sds_coherent(u, K).ok == closed


# -- closures -----------------------------------------------------------

def test_closure_of_two_singletons(u1):
    assert sds.sds_closure(u1, masks(u1, [["a"], ["b"]])) == nonempty(u1)


def test_closure_of_a_pair_statement(u1):
    assert sds.sds_closure(u1, masks(u1, [["a", "b"]])) == up(u1, ["a", "b"])


def test_closure_detects_inconsistency_as_the_top_value(u2):
    K = sds.sds_closure(u2, masks(u2, [["b"]]))
    assert sds.is_top(u2, K)
    assert K == sds.power_set(u2)


def test_conjunctive_closure_agrees_with_the_fixpoint(u1, u2):
    cases = [
        (u1, masks(u1, [["a"], ["b"]])),
        (u1, masks(u1, [["a", "b"]])),
        (u2, masks(u2, [["b"]])),
        (u2, frozenset()),
    ]
    for u, W in cases:
        assert sds.conjunctive_closure(u, W) == sds.sds_closure(u, W)


def test_empty_closure_is_the_bottom_sds(u2):
    bot = sds.sds_closure(u2, frozenset())
    assert bot == sds.bottom_sds(u2)
    assert bot == frozenset(s for s in u2.subsets() if s & u2.mask_of(["a"]))


# -- structure maps -----------------------------------------------------

def test_sdtify_reads_back_the_conjunctive_content(u1):
    D = u1.mask_of(["a", "c"])
    assert sds.sdtify(sds.sdsify(u1, D)) == D
    assert sds.sdtify(masks(u1, [["a", "b"]])) == 0


def test_sdsify_lists_the_sets_meeting_d(u2):
    assert sds.sdsify(u2, u2.mask_of(["a"])) == frozenset(
        s for s in u2.subsets() if s & u2.mask_of(["a"])
    )


def test_conjunctive_recognition(u1, u2):
    assert sds.is_conjunctive(u1, sds.sdsify(u1, u1.mask_of(["a", "c"])))
    assert not sds.is_conjunctive(u1, up(u1, ["a", "b"]))
    assert sds.is_conjunctive(u2, sds.bottom_sds(u2))
    assert sds.is_conjunctive(u1, frozenset())


def test_conjunctive_part_keeps_singleton_witnessed_members(u1):
    assert sds.conjunctive_part(u1, up(u1, ["a", "b"])) == frozenset()
    model = sds.sdsify(u1, u1.mask_of(["a"]))
    assert sds.conjunctive_part(u1, model) == model


def test_completeness(u1):
    assert sds.is_complete(sds.sdsify(u1, u1.mask_of(["a", "c"])))
    assert not sds.is_complete(up(u1, ["a", "b"]))  # {a}|{b} in, parts out
    assert sds.is_complete(frozenset())


def test_finite_universe_degeneracies(u1):
    # every member is finite, so the finitary part (supersets of finite
    # members) of a coherent SDS is the SDS itself
    K = up(u1, ["a", "b"])
    assert sds.up_close(u1, K) == K
    assert sds.up_close(u1, frozenset()) == frozenset()


def test_complete_extensions_intersect_to_the_closure(u1):
    K = up(u1, ["a", "b"])
    exts = sds.enumerate_complete_coherent_extensions(u1, K)
    assert all(K <= ext and sds.is_complete(ext) for ext in exts)
    inter = frozenset(u1.subsets())
    for ext in exts:
        inter &= ext
    assert inter == K
    assert frozenset(sds.sdsify(u1, u1.mask_of(["a", "c"]))) in exts


def test_complete_extensions_require_consistency(u2):
    with pytest.raises(InconsistencyError):
        sds.enumerate_complete_coherent_extensions(u2, masks(u2, [["b"]]))


def test_already_complete_sds_extends_itself(u1):
    K = sds.sdsify(u1, u1.mask_of(["a"]))
    assert K in sds.enumerate_complete_coherent_extensions(u1, K)


# -- serialization ------------------------------------------------------

def test_parse_sds(u1):
    W = sds.parse_sds(u1, "assert-set: a b\nassert-set: c\n# comment\n")
    assert W == masks(u1, [["a", "b"], ["c"]])
    with pytest.raises(InputError):
        sds.parse_sds(u1, "assert: a")
    with pytest.raises(InputError):
        sds.parse_sds(u1, "assert-set: z")


def test_format_sds(u1, u2):
    assert sds.format_sds(u2, sds.power_set(u2)) == "INCONSISTENT"
    text = sds.format_sds(u1, masks(u1, [["a", "b"], ["c"]]))
    assert text.splitlines() == ["a b", "c"]
