"""Property suites verifying the algebraic laws behind every module.

Each check is deterministic under a fixed seed, counts the cases it
examined, and serializes a minimal counterexample on failure.  The
suites are shared between the CLI `lawcheck` command and the test
suite; the `mutate` hook disables one coherence axiom in the engine so
the harness can prove its own checks are load-bearing.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import events, filters, gambles, logic, sds
from .core import CapacityError, InputError, RuleSet, Universe

__all__ = [
    "CheckResult",
    "BUDGETS",
    "SUITES",
    "fixed_universes",
    "random_universe",
    "run_core_suite",
    "run_sds_suite",
    "run_filters_suite",
    "run_logic_suite",
    "run_gambles_suite",
    "run_suites",
]

BUDGETS = {"tiny": 1, "default": 4, "full": 10}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} cases={self.cases}"
        if self.counterexample:
            out += f" counterexample: {self.counterexample}"
        return out


class _Check:
    """Accumulates cases; only the first failure formats its counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failure: str | None = None

    def ensure(self, ok: bool, witness: Callable[[], str]):
        self.cases += 1
        if not ok and self.failure is None:
            self.failure = witness()

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.failure is None, self.cases, self.failure)


class _Checks(list):
    """The checks of one suite, reported in the order they were made."""

    def new(self, name: str) -> _Check:
        self.append(_Check(name))
        return self[-1]

    def results(self) -> list[CheckResult]:
        return [c.result() for c in self]


def fixed_universes() -> list[Universe]:
    """Three hand-picked universes covering rules, forbidden things, freeness."""
    u1 = Universe(["a", "b", "c"], RuleSet(((0b011, 0b100),)))
    u2 = Universe(["a", "b", "c"], RuleSet(((0, 0b001), (0b010, 0b100))), forbidden=["c"])
    u3 = Universe(["a", "b"], RuleSet(()))
    return [u1, u2, u3]


def random_universe(rng: random.Random, max_things: int = 5) -> Universe:
    """A random rule-based universe; retries until T+ avoids T-."""
    while True:
        n = rng.randint(1, max_things)
        names = [chr(ord("a") + i) for i in range(n)]
        full = (1 << n) - 1
        rules = tuple(
            (rng.randint(0, full), 1 << rng.randrange(n))
            for _ in range(rng.randint(0, n + 2))
        )
        forbidden = [names[i] for i in range(n) if rng.random() < 0.25]
        try:
            return Universe(names, RuleSet(rules), forbidden)
        except InputError:
            continue


def _masks(u, masks) -> str:
    return "{" + " ".join(u.format_set(m) for m in sorted(masks)) + "}"


# -- core --------------------------------------------------------------

def _scan_coherent(u: Universe) -> list[int]:
    """Oracle for Close-by-One: every closed mask avoiding the forbidden things, by a 2^|T| scan."""
    return [s for s in u.subsets() if u.is_coherent_sdt(s)]


def _sweep_closure(rules, mask: int) -> int:
    """Oracle for LinClosure: re-sweep every rule until nothing changes."""
    result = mask
    changed = True
    while changed:
        changed = False
        for premises, conclusion in rules:
            if premises & result == premises and conclusion & ~result:
                result |= conclusion
                changed = True
    return result


def run_core_suite(seed: int, budget: str = "default", mutate: str | None = None):
    rng = random.Random(seed)
    rounds = 50 * BUDGETS[budget]
    checks = _Checks()
    laws = checks.new("closure-operator-laws (extensive, monotone, idempotent)")
    inter = checks.new("closure equals intersection of including coherent SDTs")
    cbo = checks.new("Close-by-One enumeration = 2^|T| scan of closed consistent masks")
    lin = checks.new("LinClosure = sweep fixpoint of the rules")
    for u in fixed_universes() + [random_universe(rng) for _ in range(rounds)]:
        rules = u.closure_spec.rules
        for mask in u.subsets():
            cl = u.closure(mask)
            c1 = mask & ~cl == 0
            c3 = u.closure(cl) == cl
            c2 = all(
                cl & ~u.closure(mask | (1 << t)) == 0 for t in range(u.size)
            )
            laws.ensure(c1 and c2 and c3, lambda: f"universe {u.things} rules {u.closure_spec} set {u.format_set(mask)}")
            lin.ensure(
                cl == _sweep_closure(rules, mask),
                lambda: f"universe {u.things} rules {u.closure_spec} set {u.format_set(mask)}",
            )
            if u.is_consistent_sdt(mask):
                inter.ensure(
                    u.sdt_closure_via_intersection(mask) == cl,
                    lambda: f"universe {u.things} set {u.format_set(mask)}",
                )
        enumerated = u.enumerate_coherent_sdts()
        scanned = _scan_coherent(u)
        cbo.ensure(
            enumerated == scanned,
            lambda: f"universe {u.things} rules {u.closure_spec} forbidden {u.format_set(u.forbidden_mask)}: "
            f"enumerated {' '.join(map(u.format_set, enumerated))}, scanned {' '.join(map(u.format_set, scanned))}",
        )
    return checks.results()


# -- sds / events ------------------------------------------------------

def _skip_for(mutate: str | None) -> frozenset[str]:
    if mutate is None:
        return frozenset()
    axiom = mutate[1:]
    if mutate[:1] != "K" or axiom not in sds.AXIOM_NAMES:
        raise InputError(f"unknown axiom {mutate!r}; use K1..K5")
    return frozenset({axiom})


def _small_universes(rng, count: int) -> list[Universe]:
    out = list(fixed_universes())
    for _ in range(count):
        out.append(random_universe(rng, max_things=3))
    return out


def _families_up_to(u, size: int):
    """All SDSes over u with at most `size` members (empty set allowed)."""
    return [frozenset(c) for k in range(size + 1) for c in combinations(u.subsets(), k)]


def run_sds_suite(seed: int, budget: str = "default", mutate: str | None = None):
    rng = random.Random(seed)
    skip = _skip_for(mutate)
    universes = _small_universes(rng, 2 * BUDGETS[budget])
    checks = _Checks()
    fix_vs_conj = checks.new("conjunctive representation: fixpoint closure = event-based closure")
    closed_coherent = checks.new("closure of consistent input passes the coherence check")
    production_oracle = checks.new("hitting-set production = superset closure of raw products")
    representation = checks.new("K1-K5 verdict = (K is its own fixpoint closure and not top)")
    k5_witness = checks.new("K5 witness is sound: a minimal subfamily of K whose fixpoint closure holds the missing set")
    bottom = checks.new("smallest coherent SDS = sets meeting the always-desirable things")
    top_reject = checks.new("the full power set (inconsistency sentinel) never passes the checker")
    conj_char = checks.new("conjunctive models: coherent, complete, round-trip to their SDT")
    complete_models = checks.new("complete coherent SDSes are exactly the conjunctive models")
    embedding = checks.new("order embedding: D1 within D2 iff S(D1) within S(D2)")
    two_systems = checks.new("statement event = upset of production event")
    workhorse = checks.new("event monotonicity forces membership monotonicity")
    consistency = checks.new("events of subfamilies of a coherent SDS are non-empty")
    binary_conn = checks.new("event members are the SDTs whose model includes W")
    for u in universes:
        families = _families_up_to(u, 3)
        sample = families if len(families) <= 400 else rng.sample(families, 400)
        for W in sample:
            try:
                closure = sds.sds_closure(u, W, skip_axioms=skip)
            except CapacityError:
                continue  # mutated production paths can outgrow the caps
            conj = sds.conjunctive_closure(u, W)
            fix_vs_conj.ensure(
                closure == conj,
                lambda: f"universe {u.things} W {_masks(u, W)}: fixpoint {_masks(u, closure)} != events {_masks(u, conj)}",
            )
            if not sds.is_top(u, conj):
                verdict = sds.check_sds_coherent(u, conj, skip_axioms=skip)
                closed_coherent.ensure(
                    bool(verdict),
                    lambda: f"universe {u.things} W {_masks(u, W)} closure rejected: {verdict.detail}",
                )
        for W in sample:
            if 0 in W or not W:
                continue
            try:
                step = sds.production_step(u, W)
                raw = sds.production_step_raw(u, W)
            except CapacityError:
                continue  # raw product space too large for this family
            production_oracle.ensure(
                step == sds.up_close(u, raw),
                lambda: f"universe {u.things} W {_masks(u, W)}",
            )
        # Random families, and every K1-K4 closed family: the closure of
        # its (at most three) minimal members, which reaches K5 unless
        # production adds nothing.
        candidates = [
            frozenset(rng.sample(list(u.subsets()), rng.randint(0, u.full_mask + 1)))
            for _ in range(10)
        ] + sorted({sds.sds_closure(u, W, skip_axioms={"5"}) for W in sample}, key=sorted)
        for K in candidates:
            verdict = sds.check_sds_coherent(u, K, skip_axioms=skip)
            representation.ensure(
                verdict.ok == (K == sds.sds_closure(u, K, skip_axioms=skip) and not sds.is_top(u, K)),
                lambda: f"universe {u.things} K {_masks(u, K)}",
            )
            if verdict.axiom == "K5":
                k5_witness.ensure(
                    _k5_witness_sound(u, K, verdict.witness),
                    lambda: f"universe {u.things} K {_masks(u, K)}: {verdict.detail}",
                )
        top_verdict = sds.check_sds_coherent(u, sds.power_set(u), skip_axioms=skip)
        top_reject.ensure(not top_verdict.ok, lambda: f"universe {u.things}")
        bot = sds.bottom_sds(u)
        bottom.ensure(
            bot == sds.sds_closure(u, frozenset(), skip_axioms=skip)
            and bool(sds.check_sds_coherent(u, bot, skip_axioms=skip)),
            lambda: f"universe {u.things}",
        )
        C = events.coherent_sdts(u)
        for D in C:
            model = sds.sdsify(u, D)
            ok = (
                bool(sds.check_sds_coherent(u, model, skip_axioms=skip))
                and sds.is_conjunctive(u, model)
                and sds.is_complete(model)
                and sds.sdtify(model) == D
            )
            conj_char.ensure(ok, lambda: f"universe {u.things} D {u.format_set(D)}")
        for D1 in C:
            for D2 in C:
                embedding.ensure(
                    (D1 & ~D2 == 0) == (sds.sdsify(u, D1) <= sds.sdsify(u, D2)),
                    lambda: f"universe {u.things} D1 {u.format_set(D1)} D2 {u.format_set(D2)}",
                )
        for W in sample:
            if 0 in W:
                continue
            e = events.event_of(u, W)
            two_systems.ensure(
                e == events.upset_in_C(u, events.production_event(u, W)),
                lambda: f"universe {u.things} W {_masks(u, W)}",
            )
            binary_conn.ensure(
                set(events.event_members(u, e))
                == {D for D in C if all(s & D for s in W)},
                lambda: f"universe {u.things} W {_masks(u, W)}",
            )
        coherent_sdses = _all_finitely_coherent(u)
        models = {sds.sdsify(u, D) for D in C}
        for K in coherent_sdses:
            complete_models.ensure(
                sds.is_complete(K) == (K in models),
                lambda: f"universe {u.things} K {_masks(u, K)}",
            )
        small = [W for W in _families_up_to(u, 2)]
        for K in coherent_sdses:
            for W in small:
                if W <= K:
                    consistency.ensure(
                        events.event_of(u, W) != 0,
                        lambda: f"universe {u.things} K {_masks(u, K)} W {_masks(u, W)}",
                    )
            for W1 in small:
                if not W1 <= K:
                    continue
                e1 = events.event_of(u, W1)
                for W2 in small:
                    if e1 & ~events.event_of(u, W2) == 0:
                        workhorse.ensure(
                            W2 <= K,
                            lambda: f"universe {u.things} K {_masks(u, K)} W1 {_masks(u, W1)} W2 {_masks(u, W2)}",
                        )
    return checks.results()


def _k5_witness_sound(u: Universe, K, witness) -> bool:
    """The witness family lies in K, its fixpoint closure holds the
    missing set s, and dropping any one member loses s."""
    family, s, _compatible = witness
    return (
        set(family) <= K
        and s not in K
        and s in sds.sds_closure(u, family)
        and not any(s in sds.sds_closure(u, set(family) - {f}) for f in family)
    )


def _all_finitely_coherent(u: Universe) -> list[frozenset[int]]:
    """Every finitely coherent SDS, by brute scan over all SDSes (tiny scale)."""
    if u.full_mask + 1 > 8:
        raise InputError("exhaustive SDS scan only at 3 things or fewer")
    subsets = list(u.subsets())
    n = len(subsets)
    out = []
    for bits in range(1 << n):
        K = frozenset(subsets[i] for i in range(n) if bits >> i & 1)
        if sds.check_sds_coherent(u, K).ok:
            out.append(K)
    return out


# -- filters -----------------------------------------------------------

def _pairwise_event_lattice(u: Universe) -> frozenset[int]:
    """Oracle: close the single-thing events and the bounds under pairwise
    union and intersection until nothing new appears."""
    top = (1 << len(events.coherent_sdts(u))) - 1
    elements = {0, top}
    for t in range(u.size):
        elements.add(events.basic_event(u, 1 << t))
    while True:
        new = set()
        for a in elements:
            for b in elements:
                if a < b:
                    if a | b not in elements:
                        new.add(a | b)
                    if a & b not in elements:
                        new.add(a & b)
        if not new:
            break
        elements |= new
    return frozenset(elements)


def run_filters_suite(seed: int, budget: str = "default", mutate: str | None = None):
    rng = random.Random(seed)
    universes = _small_universes(rng, BUDGETS[budget])
    universes = [u for u in universes if len(events.coherent_sdts(u)) <= 7]
    checks = _Checks()
    lattice_oracle = checks.new("event lattice = up-sets of C = pairwise closure of the basic events")
    filter_axioms = checks.new("generated filters are upward closed and meet closed")
    intersection_structure = checks.new("intersections of proper filters are proper filters")
    iso_forward = checks.new("order iso (i): filterize of a finitely coherent SDS is a proper filter")
    iso_backward = checks.new("order iso (ii): desirify of a proper filter is finitely coherent")
    iso_round1 = checks.new("order iso (iii): desirify after filterize is the identity")
    iso_round2 = checks.new("order iso (iv): filterize after desirify is the identity")
    iso_mono1 = checks.new("order iso (v): filterize preserves inclusion")
    iso_mono2 = checks.new("order iso (vi): desirify preserves inclusion")
    iso_bottom = checks.new("order iso (vii)+(viii): bottoms and tops correspond")
    iso_prime = checks.new("order iso (ix): prime filter iff complete SDS")
    principal = checks.new("principal filter of the statement event = filterize")
    prime_rep = checks.new("prime filter decomposition intersects back to the filter")
    prime_pullback = checks.new("complete coherent extensions intersect to the closure")
    for u in universes:
        lattice = events.build_event_lattice(u)
        lattice_oracle.ensure(
            lattice.elements == _pairwise_event_lattice(u),
            lambda: f"universe {u.things} rules {u.closure_spec}",
        )
        proper = filters.enumerate_proper_filters(lattice)
        for F in proper:
            filter_axioms.ensure(filters.is_proper(F), lambda: f"universe {u.things} filter {sorted(F.members)}")
            base = filters.FilterBase(lattice, frozenset({F.meet()}))
            filter_axioms.ensure(
                filters.generate_filter(base).members == F.members,
                lambda: f"universe {u.things} base {F.meet()}",
            )
        for F1 in proper:
            for F2 in proper:
                both = F1.members & F2.members
                inter = filters.LatticeFilter(lattice, both)
                intersection_structure.ensure(
                    filters.is_proper(inter),
                    lambda: f"universe {u.things} filters {sorted(F1.members)} {sorted(F2.members)}",
                )
        coherent_sdses = _all_finitely_coherent(u)
        pairs = []
        for K in coherent_sdses:
            F = filters.filterize(u, lattice, K)
            pairs.append((K, F))
            iso_forward.ensure(
                filters.is_proper(F) and any(F.members == P.members for P in proper),
                lambda: f"universe {u.things} K {_masks(u, K)}",
            )
            back = filters.desirify(u, F)
            iso_round1.ensure(back == K, lambda: f"universe {u.things} K {_masks(u, K)}")
            iso_prime.ensure(
                filters.is_prime(F) == sds.is_complete(K),
                lambda: f"universe {u.things} K {_masks(u, K)}",
            )
            E_K, pf = filters.principal_filterize(u, lattice, K)
            principal.ensure(
                pf.members == F.members and E_K == F.meet(),
                lambda: f"universe {u.things} K {_masks(u, K)}",
            )
        for F in proper:
            K = filters.desirify(u, F)
            iso_backward.ensure(
                sds.check_sds_coherent(u, K).ok,
                lambda: f"universe {u.things} filter min {F.meet()}",
            )
            iso_round2.ensure(
                filters.filterize(u, lattice, K).members == F.members,
                lambda: f"universe {u.things} filter min {F.meet()}",
            )
        for K1, F1 in pairs:
            for K2, F2 in pairs:
                if K1 <= K2:
                    iso_mono1.ensure(
                        F1.members <= F2.members,
                        lambda: f"universe {u.things} K1 {_masks(u, K1)} K2 {_masks(u, K2)}",
                    )
                if F1.members <= F2.members:
                    iso_mono2.ensure(
                        filters.desirify(u, F1) <= filters.desirify(u, F2),
                        lambda: f"universe {u.things}",
                    )
        bottom_filter = filters.filterize(u, lattice, sds.bottom_sds(u))
        iso_bottom.ensure(
            bottom_filter.members == frozenset({lattice.top})
            and filters.desirify(u, bottom_filter) == sds.bottom_sds(u)
            and filters.filterize(u, lattice, sds.power_set(u)).members == lattice.elements,
            lambda: f"universe {u.things}",
        )
        for F in proper:
            primes = filters.prime_decomposition(F)
            meet = frozenset(lattice.elements)
            for P in primes:
                meet &= P.members
            prime_rep.ensure(
                meet == F.members,
                lambda: f"universe {u.things} filter min {F.meet()}",
            )
        for W in _families_up_to(u, 2):
            closure = sds.sds_closure(u, W)
            if sds.is_top(u, closure):
                continue
            exts = sds.enumerate_complete_coherent_extensions(u, W)
            inter = frozenset(u.subsets())
            for ext in exts:
                inter &= ext
            prime_pullback.ensure(
                inter == closure,
                lambda: f"universe {u.things} W {_masks(u, W)}",
            )
    return checks.results()


# -- logic -------------------------------------------------------------

def run_logic_suite(seed: int, budget: str = "default", mutate: str | None = None):
    rng = random.Random(seed)
    checks = _Checks()
    closure_laws = checks.new("semantic closure is extensive, monotone, idempotent")
    theories = checks.new("coherent SDTs are exactly the theories of non-empty valuation sets")
    conjunctivity = checks.new("theory intersections are coherent; conjunctive exactly at a smallest theory")
    disjunction = checks.new("singleton closure membership = disjunction entailment; families imply it")
    lindenbaum = checks.new("equivalence classes partition the universe; theory classes form filters")
    for atoms, depth in [(("p",), 2), (("p", "q"), 2)]:
        lu = logic.LogicUniverse(atoms, depth)
        u = lu.universe
        all_v = lu._all_models
        for v in range(1, all_v + 1):
            t = lu._theory_mask(v)
            closure_laws.ensure(u.closure(t) == t, lambda: f"atoms {atoms} valuations {v:#x}")
        for _ in range(40 * BUDGETS[budget]):
            mask = rng.getrandbits(u.size) & u.full_mask
            cl = u.closure(mask)
            ok = mask & ~cl == 0 and u.closure(cl) == cl
            t = rng.randrange(u.size)
            ok = ok and cl & ~u.closure(mask | (1 << t)) == 0
            closure_laws.ensure(ok, lambda: f"atoms {atoms} mask sample")
        C = set(events.coherent_sdts(u))
        expected = {lu._theory_mask(v) for v in range(1, all_v + 1)}
        theories.ensure(
            C == expected and all(u.is_coherent_sdt(D) for D in C),
            lambda: f"atoms {atoms}",
        )
        # A family of theories describes the sets hitting each of them.
        # Their intersection D_S is always a coherent theory, and the
        # description collapses to "sets hitting D_S" exactly when some
        # member of the family IS the intersection; otherwise picking one
        # thing per theory from outside D_S exhibits a hitting set none of
        # whose elements is desirable on its own.
        C_list = sorted(C)
        subsets_of_C = (
            [frozenset(S) for bits in range(1, 1 << len(C_list))
             for S in [[D for i, D in enumerate(C_list) if bits >> i & 1]]]
            if len(C_list) <= 4
            else [frozenset(rng.sample(C_list, rng.randint(1, len(C_list))))
                  for _ in range(20 * BUDGETS[budget])]
        )
        for S in subsets_of_C:
            D_S = u.full_mask
            for theory in S:
                D_S &= theory
            ok = u.is_coherent_sdt(D_S)
            if any(theory == D_S for theory in S):
                picks = [rng.choice([i for i in range(u.size) if theory >> i & 1])
                         for theory in S]
                fam = sum(1 << i for i in set(picks))
                ok = ok and fam & D_S  # hits every theory, so hits the smallest
            else:
                fam = 0
                for theory in S:
                    outside = theory & ~D_S
                    fam |= 1 << (outside.bit_length() - 1)
                ok = ok and all(fam & theory for theory in S) and not fam & D_S
            conjunctivity.ensure(bool(ok), lambda: f"atoms {atoms} theories {len(S)}")
        # Cross-check with the entailment oracle on explicit small families:
        # a single wff follows from a desirable family exactly when the
        # family's disjunction entails it; a desirable family of wffs only
        # guarantees the entailment direction.
        wff_pool = [i for i in range(u.size)]
        for _ in range(20 * BUDGETS[budget]):
            members = frozenset(
                sum(1 << i for i in rng.sample(wff_pool, rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))
            )
            if any(m == 0 for m in members):
                continue
            e = events.event_of(u, members)
            if e == 0:
                continue
            compat = events.event_members(u, e)
            try:
                D = logic.disjunction_sdt(lu, members)
            except CapacityError:
                continue  # a generator's disjunction has no wff at this depth
            premise = [logic.fold_disjunction(lu, m) for m in members]
            for i in rng.sample(wff_pool, 5):
                entailed = logic.entails(lu.atoms, premise, lu.wffs[i])
                disjunction.ensure(
                    bool(D >> i & 1) == entailed,
                    lambda: f"atoms {atoms} family {_masks(u, members)} wff {lu.wffs[i]}",
                )
            for _ in range(5):
                probe = sum(1 << i for i in rng.sample(wff_pool, rng.randint(1, 2)))
                in_closure = all(probe & theory for theory in compat)
                entailed = logic.entails(lu.atoms, premise, logic.fold_disjunction(lu, probe))
                disjunction.ensure(
                    entailed if in_closure else True,
                    lambda: f"atoms {atoms} family {_masks(u, members)} probe {u.format_set(probe)}",
                )
        classes = logic.lindenbaum_quotient(lu)
        seen = set()
        for c in classes:
            seen.update(str(w) for w in c.members)
        lindenbaum.ensure(
            len(seen) == u.size and len({c.valuations for c in classes}) == len(classes),
            lambda: f"atoms {atoms}",
        )
        class_tables = {c.valuations for c in classes}
        for D in C:
            tables = {lu.model_masks[i] for i in range(u.size) if D >> i & 1}
            proper_filter = (
                0 not in tables
                and all(
                    t2 in tables
                    for t1 in tables
                    for t2 in class_tables
                    if t1 & ~t2 == 0
                )
                and all(t1 & t2 in tables if t1 & t2 in class_tables else True
                        for t1 in tables for t2 in tables)
            )
            lindenbaum.ensure(proper_filter, lambda: f"atoms {atoms} theory classes")
    return checks.results()


# -- gambles -----------------------------------------------------------

def _random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 8))


def _random_gamble(rng, dim) -> tuple:
    return tuple(_random_fraction(rng) for _ in range(dim))


def _random_credal(rng, dim) -> gambles.CredalSet:
    while True:
        constraints = tuple(
            (_random_gamble(rng, dim), rng.choice(["<=", ">="]), _random_fraction(rng))
            for _ in range(rng.randint(0, 2))
        )
        try:
            return gambles.CredalSet(dim, constraints)
        except InputError:
            continue


def run_gambles_suite(seed: int, budget: str = "default", mutate: str | None = None):
    rng = random.Random(seed)
    rounds = 25 * BUDGETS[budget]
    checks = _Checks()
    cone_laws = checks.new("cone membership survives rescaling and addition")
    od_axioms = checks.new("consistent statements never extend to a non-positive gamble")
    vertex_agreement = checks.new("E-admissibility agrees with the vertex-enumeration oracle")
    dominance = checks.new("strictly dominated options are always rejected")
    translation = checks.new("rejection via shifted gamble sets = complement of E-admissibility")
    sen_alpha = checks.new("rejections only grow when the option set grows")
    for _ in range(rounds):
        dim = rng.randint(1, 3)
        D = gambles.GambleStatementSet(
            dim, tuple(_random_gamble(rng, dim) for _ in range(rng.randint(0, 3)))
        )
        g = _random_gamble(rng, dim)
        inside = gambles.natural_extension_contains(D, g)
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = tuple(lam * v for v in g)
        cone_laws.ensure(
            gambles.natural_extension_contains(D, scaled) == inside,
            lambda: f"D {D.desirable} g {g} lambda {lam}",
        )
        if inside:
            h = _random_gamble(rng, dim)
            if gambles.natural_extension_contains(D, h):
                total = tuple(a + b for a, b in zip(g, h))
                cone_laws.ensure(
                    gambles.natural_extension_contains(D, total),
                    lambda: f"D {D.desirable} g {g} h {h}",
                )
        if gambles.is_consistent_gambles(D):
            neg = tuple(-abs(v) - 1 for v in _random_gamble(rng, dim))
            od_axioms.ensure(
                not gambles.natural_extension_contains(D, neg),
                lambda: f"D {D.desirable} neg {neg}",
            )
            od_axioms.ensure(
                not gambles.natural_extension_contains(D, tuple([Fraction(0)] * dim)),
                lambda: f"D {D.desirable}",
            )
        pos = tuple(abs(v) + 1 for v in _random_gamble(rng, dim))
        od_axioms.ensure(
            gambles.natural_extension_contains(D, pos),
            lambda: f"D {D.desirable} pos {pos}",
        )
    for _ in range(rounds):
        dim = rng.randint(1, 3)
        M = _random_credal(rng, dim)
        H = tuple({_random_gamble(rng, dim) for _ in range(rng.randint(1, 4))})
        admissible = gambles.e_admissible(M, H)
        for u in H:
            shifted = tuple(
                tuple(a - b for a, b in zip(h, u)) for h in H if h != u
            )
            oracle = bool(gambles.enumerate_vertices(M, extra_ub=shifted))
            vertex_agreement.ensure(
                (u in admissible) == oracle,
                lambda: f"M {M.constraints} H {H} u {u}",
            )
            if any(gambles.dominates(h, u) for h in H):
                dominance.ensure(u not in admissible, lambda: f"M {M.constraints} H {H} u {u}")
            translation.ensure(
                gambles.rejects(M, H, u) == (u not in admissible),
                lambda: f"M {M.constraints} H {H} u {u}",
            )
        if len(H) > 1:
            H1 = H[:-1]
            r1 = {u for u in H1 if gambles.rejects(M, H1, u)}
            r2 = {u for u in H if gambles.rejects(M, H, u)}
            sen_alpha.ensure(r1 <= r2, lambda: f"M {M.constraints} H1 {H1} H {H}")
    return checks.results()


SUITES = {
    "core": run_core_suite,
    "sds": run_sds_suite,
    "filters": run_filters_suite,
    "logic": run_logic_suite,
    "gambles": run_gambles_suite,
}


def run_suites(names, seed: int, budget: str = "default", mutate: str | None = None):
    if budget not in BUDGETS:
        raise InputError(f"unknown budget {budget!r}; choose from {sorted(BUDGETS)}")
    results = []
    for name in names:
        try:
            suite = SUITES[name]
        except KeyError:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
        results.extend(suite(seed, budget, mutate))
    return results
