"""Acceptance gate: one printed PASS/FAIL line per criterion.

Every criterion is exact (no tolerances) and carries a wall-clock
target.  The wff-family conjunctivity criterion is stated as received
and is expected to FAIL: the family generated by asserting "{p, ~p}
holds a desirable wff" is finitely coherent but contains no
non-tautological singleton, so it is not the model of any single set of
desirable wffs.  The test serializes that counterexample; the companion
test pins down the corrected statement and passes.
"""

import random
import time
from fractions import Fraction

import pytest

from desire_kernel import events, filters, gambles, lawcheck, logic, sds
from desire_kernel.core import RuleSet, Universe

F = Fraction


def report(name: str, started: float, target: float, failure: str | None):
    elapsed = time.perf_counter() - started
    status = "FAIL" if failure else "PASS"
    line = f"{status} {name} ({elapsed:.1f}s, target {target:g}s)"
    if failure:
        line += f" counterexample: {failure}"
    print(line)
    assert failure is None, line
    assert elapsed < target, f"{name} exceeded the {target:g}s target: {elapsed:.1f}s"


def small_universes(seed: int, count: int, max_things: int = 3):
    rng = random.Random(seed)
    out = lawcheck.fixed_universes()
    for _ in range(count):
        out.append(lawcheck.random_universe(rng, max_things=max_things))
    return out


def families_up_to(u, size):
    return lawcheck._families_up_to(u, size)


def coherent_sdses(u):
    return lawcheck._all_finitely_coherent(u)


def fmt(u, family):
    return "{" + " ".join(u.format_set(s) for s in sorted(family)) + "}"


# -- criterion: closure laws -------------------------------------------

def test_closure_law_suite_on_random_universes():
    started = time.perf_counter()
    rng = random.Random(2024)
    failure = None
    for _ in range(200):
        u = lawcheck.random_universe(rng, max_things=5)
        for mask in u.subsets():
            cl = u.closure(mask)
            ok = mask & ~cl == 0 and u.closure(cl) == cl
            ok = ok and all(
                cl & ~u.closure(mask | (1 << t)) == 0 for t in range(u.size)
            )
            if ok and u.is_consistent_sdt(mask):
                ok = u.sdt_closure_via_intersection(mask) == cl
            if not ok and failure is None:
                failure = f"universe {u.things} set {u.format_set(mask)}"
        if failure:
            break
    report("closure-laws and intersection-closure agreement (200 universes)",
           started, 10, failure)


# -- criterion: order isomorphism --------------------------------------

def test_order_isomorphism_suite():
    started = time.perf_counter()
    universes = [
        u for u in small_universes(7, 12)
        if len(events.coherent_sdts(u)) <= 6
    ]
    assert universes
    failure = None
    for u in universes:
        lattice = events.build_event_lattice(u)
        proper = filters.enumerate_proper_filters(lattice)
        pairs = []
        for K in coherent_sdses(u):
            Fk = filters.filterize(u, lattice, K)
            checks = {
                "(i) proper filter": filters.is_proper(Fk),
                "(iii) back to the same statements": filters.desirify(u, Fk) == K,
                "(ix) prime iff complete": (
                    filters.is_prime(Fk) == sds.is_complete(K)
                ),
            }
            for label, ok in checks.items():
                if not ok and failure is None:
                    failure = f"universe {u.things} K {fmt(u, K)} item {label}"
            pairs.append((K, Fk))
        for Fp in proper:
            K = filters.desirify(u, Fp)
            if failure is None and not sds.check_sds_coherent(u, K).ok:
                failure = f"universe {u.things} item (ii): desirify not coherent"
            if failure is None and filters.filterize(u, lattice, K).members != Fp.members:
                failure = f"universe {u.things} item (iv): filterize(desirify) != id"
        for K1, F1 in pairs:
            for K2, F2 in pairs:
                if failure is None and (K1 <= K2) != (F1.members <= F2.members):
                    failure = (f"universe {u.things} items (v)/(vi): order not "
                               f"matched for {fmt(u, K1)} vs {fmt(u, K2)}")
        bottom = filters.filterize(u, lattice, sds.bottom_sds(u))
        top = filters.filterize(u, lattice, sds.power_set(u))
        if failure is None and bottom.members != frozenset({lattice.top}):
            failure = f"universe {u.things} item (vii): bottom mismatch"
        if failure is None and top.members != lattice.elements:
            failure = f"universe {u.things} item (viii): top mismatch"
    report("order isomorphism, nine items, statement families <-> filters",
           started, 60, failure)


# -- criterion: conjunctive representation -----------------------------

def test_conjunctive_representation_oracle():
    started = time.perf_counter()
    failure = None
    for u in small_universes(11, 10):
        for W in families_up_to(u, 3):
            fix = sds.sds_closure(u, W)
            conj = sds.conjunctive_closure(u, W)
            if fix != conj and failure is None:
                failure = f"universe {u.things} W {fmt(u, W)}"
            # the subfamily-union form collapses onto the single
            # intersection, since W is finite and absorbs its subfamilies
            members = sorted(W)
            union = set()
            for bits in range(1 << len(members)):
                V = frozenset(members[i] for i in range(len(members)) if bits >> i & 1)
                part = sds.conjunctive_closure(u, V)
                if not sds.is_top(u, part):
                    union |= part
            if not sds.is_top(u, conj) and union != set(conj) and failure is None:
                failure = f"universe {u.things} W {fmt(u, W)} (subfamily form)"
    report("conjunctive representation: fixpoint = event closure = union form",
           started, 60, failure)


# -- criterion: prime filter representation ----------------------------

def test_prime_filter_representation():
    started = time.perf_counter()
    failure = None
    lattices = 0
    for u in small_universes(23, 12):
        if len(events.coherent_sdts(u)) > 6:
            continue
        lattice = events.build_event_lattice(u)
        if len(lattice) > 32:
            continue
        lattices += 1
        for Fp in filters.enumerate_proper_filters(lattice):
            inter = frozenset(lattice.elements)
            for P in filters.prime_decomposition(Fp):
                inter &= P.members
            if inter != Fp.members and failure is None:
                failure = f"universe {u.things} filter min {Fp.meet()}"
        for W in families_up_to(u, 2):
            closure = sds.sds_closure(u, W)
            if sds.is_top(u, closure):
                continue
            pulled = frozenset(u.subsets())
            for ext in sds.enumerate_complete_coherent_extensions(u, W):
                pulled &= ext
            if pulled != closure and failure is None:
                failure = f"universe {u.things} W {fmt(u, W)} (pullback)"
    assert lattices
    report("prime filters intersect to every proper filter; pullback = closure",
           started, 60, failure)


# -- criterion: workhorse and consistency ------------------------------

def test_workhorse_and_consistency_suite():
    started = time.perf_counter()
    failure = None
    for u in lawcheck.fixed_universes():
        subsets = list(u.subsets())
        n = len(subsets)
        all_events = {}  # family bits -> event, exhaustively over P(P(T))
        for bits in range(1 << n):
            W = frozenset(subsets[i] for i in range(n) if bits >> i & 1)
            all_events[bits] = events.event_of(u, W)
        for K in coherent_sdses(u):
            kbits = sum(1 << subsets.index(s) for s in K)
            sub = kbits
            while True:  # every subfamily of K keeps a compatible model
                if all_events[sub] == 0 and failure is None:
                    failure = f"universe {u.things} K {fmt(u, K)} empty event"
                if sub == 0:
                    break
                sub = (sub - 1) & kbits
            sub = kbits
            while True:  # weaker events only ever describe members of K
                e1 = all_events[sub]
                for bits2, e2 in all_events.items():
                    if e1 & ~e2 == 0 and bits2 & ~kbits and failure is None:
                        W2 = frozenset(subsets[i] for i in range(n) if bits2 >> i & 1)
                        failure = (f"universe {u.things} K {fmt(u, K)} "
                                   f"W2 {fmt(u, W2)} escapes")
                if sub == 0:
                    break
                sub = (sub - 1) & kbits
    report("coherent families never go contradictory; event monotonicity",
           started, 10, failure)


# -- criterion: wff-family conjunctivity (known-false as stated) -------

def _wff_family_cases():
    for atoms in (("p",), ("p", "q")):
        lu = logic.LogicUniverse(atoms, depth=2)
        u = lu.universe
        C = list(events.coherent_sdts(u))
        coherent = frozenset(C)
        order = sorted(range(1, 1 << len(C)), key=lambda b: (b.bit_count(), b))
        for bits in order:
            S = [C[i] for i in range(len(C)) if bits >> i & 1]
            D_S = u.full_mask
            for theory in S:
                D_S &= theory
            yield lu, u, coherent, S, D_S


def _non_conjunctive_witness(u, S, D_S):
    """A family hitting every theory in S but avoiding their intersection.

    Exists exactly when no member of S is the intersection itself; its
    existence refutes family = model-of-D_S, since the family is a
    member of every compatible conjunctive model yet misses D_S.
    """
    if any(theory == D_S for theory in S):
        return None
    fam = 0
    for theory in S:
        outside = theory & ~D_S
        fam |= outside & -outside  # lowest-index wff outside the intersection
    assert all(fam & theory for theory in S) and not fam & D_S
    return fam


def test_wff_family_conjunctivity_as_stated():
    # Every coherent family of wff sets is an intersection of the models
    # of its compatible deductively closed theories; the claim under
    # test says each such family IS the model of the single theory D_S
    # of member-disjunctions.  That is false as soon as S has no
    # smallest member, and this test is expected to fail on the first
    # such S, printing the counterexample.
    started = time.perf_counter()
    failure = None
    for lu, u, coherent, S, D_S in _wff_family_cases():
        # membership in the enumerated coherent SDTs is the exact check
        if D_S not in coherent and failure is None:
            failure = f"atoms {lu.atoms}: member-disjunction set not coherent"
        witness = _non_conjunctive_witness(u, S, D_S)
        if witness is not None and failure is None:
            names = ", ".join(u.names_of(witness))
            theories = "; ".join(
                "Th(%s)" % " ".join(u.names_of(t & ~D_S)[:1]) for t in S
            )
            failure = (
                f"atoms {lu.atoms}: family generated by {{{names}}} is finitely "
                f"coherent (= intersection of the models of {theories}) but has "
                f"no non-tautological singleton, so it is not the model of its "
                f"member-disjunction set"
            )
    report("every finitely coherent family of wff sets is a single-theory model",
           started, 60, failure)


def test_wff_family_conjunctivity_corrected():
    # What does hold: the member-disjunction set D_S is always a
    # coherent theory (the intersection of the compatible ones), and
    # the family collapses to the model of D_S exactly when S has a
    # smallest member.
    started = time.perf_counter()
    failure = None
    for lu, u, coherent, S, D_S in _wff_family_cases():
        if D_S not in coherent and failure is None:
            failure = f"atoms {lu.atoms}: member-disjunction set not coherent"
        witness = _non_conjunctive_witness(u, S, D_S)
        collapses = witness is None
        if collapses != (D_S in S) and failure is None:
            failure = f"atoms {lu.atoms}: collapse detected without a smallest theory"
    report("member-disjunction set is coherent; collapse iff a smallest theory",
           started, 60, failure)


# -- criterion: decision suite vs vertex oracle ------------------------

def _random_gamble(rng, dim):
    return tuple(F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(dim))


def test_decision_suite_against_the_vertex_oracle():
    started = time.perf_counter()
    rng = random.Random(13)
    failure = None
    for _ in range(120):
        dim = rng.randint(1, 3)
        while True:
            constraints = tuple(
                (_random_gamble(rng, dim), rng.choice(["<=", ">="]),
                 F(rng.randint(-4, 4), rng.randint(1, 4)))
                for _ in range(rng.randint(0, 2))
            )
            try:
                M = gambles.CredalSet(dim, constraints)
                break
            except Exception:
                continue
        H = tuple({_random_gamble(rng, dim) for _ in range(rng.randint(1, 4))})
        admissible = gambles.e_admissible(M, H)
        for u in H:
            shifted = tuple(tuple(a - b for a, b in zip(h, u)) for h in H if h != u)
            oracle = bool(gambles.enumerate_vertices(M, extra_ub=shifted))
            if (u in admissible) != oracle and failure is None:
                failure = f"M {M.constraints} H {H} u {u} (vertex oracle)"
            if any(gambles.dominates(h, u) for h in H) and u in admissible \
                    and failure is None:
                failure = f"M {M.constraints} H {H} u {u} (dominated yet kept)"
            if gambles.rejects(M, H, u) != (u not in admissible) and failure is None:
                failure = f"M {M.constraints} H {H} u {u} (rejection translation)"
    report("E-admissibility = vertex oracle; dominance; rejection translation "
           "(120 instances)", started, 30, failure)


# -- criterion: mutation self-test -------------------------------------

@pytest.mark.parametrize("axiom", ["K1", "K2", "K3", "K4", "K5"])
def test_mutation_self_test(axiom):
    started = time.perf_counter()
    results = lawcheck.run_suites(["sds"], seed=0, budget="tiny", mutate=axiom)
    failed = [r for r in results if not r.passed]
    failure = None
    if not failed:
        failure = f"disabling {axiom} went unnoticed by every law"
    elif not all(r.counterexample for r in failed):
        failure = f"a law failed without serializing a counterexample"
    report(f"disabling {axiom} trips at least one law with a counterexample",
           started, 30, failure)


# -- criterion: finite-mode = full-mode (documentation test) -----------

def test_finite_mode_and_full_mode_coincide():
    # The infinite-universe gap between finite coherence and coherence
    # cannot exist here: every closure operator on a finite universe is
    # finitary, so the one checker, which decides K5 by the
    # representation theorem, must return the verdict of the axioms'
    # own least fixpoint (K is coherent iff it is its own fixpoint
    # closure and not the top) on every instance.
    started = time.perf_counter()
    rng = random.Random(5)
    failure = None
    u3 = lawcheck.fixed_universes()[2]
    subsets = list(u3.subsets())
    all_K = [
        frozenset(subsets[i] for i in range(len(subsets)) if bits >> i & 1)
        for bits in range(1 << len(subsets))
    ]
    cases = [(u3, K) for K in all_K]
    for _ in range(20):
        u = lawcheck.random_universe(rng, max_things=3)
        K = frozenset(rng.randrange(u.full_mask + 1) for _ in range(rng.randint(0, 4)))
        cases.append((u, K))
    for u, K in cases:
        verdict = sds.check_sds_coherent(u, K)
        represented = K == sds.sds_closure(u, K) and not sds.is_top(u, K)
        if verdict.ok != represented and failure is None:
            failure = f"universe {u.things} K {fmt(u, K)}"
    report("finite and full coherence coincide: checker = fixpoint-closure verdict",
           started, 10, failure)
