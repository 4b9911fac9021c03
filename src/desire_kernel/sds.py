"""Sets of desirable sets of things (SDSes).

An SDS is represented as a frozenset of thing masks.

Finite universes: every set of things is finite and every closure
operator is finitary, so distinctions the theory draws for infinite
universes are identities here and have one entry point each.  Every
SDS is an SDFS (a set of desirable finite sets), and its finite and
finitary parts are the SDS itself.  Coherence and finite coherence
coincide (`check_sds_coherent`).  A coherent SDS is fixed by its
compatible coherent SDTs (`conjunctive_closure`), and the complete
coherent SDSes are exactly their conjunctive models (`sdsify`).

Inconsistency is a value: the closure operators return the full power
set (the top of the closed-SDS lattice) instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import CapacityError, InconsistencyError, InputError, Universe
from . import events

__all__ = [
    "Verdict",
    "selection_maps",
    "production_step",
    "production_step_raw",
    "check_sds_coherent",
    "sds_closure",
    "conjunctive_closure",
    "power_set",
    "is_top",
    "sdtify",
    "sdsify",
    "is_conjunctive",
    "conjunctive_part",
    "is_complete",
    "up_close",
    "bottom_sds",
    "enumerate_complete_coherent_extensions",
    "parse_sds",
    "format_sds",
]

AXIOM_NAMES = ("1", "2", "3", "4", "5")

# Enumerating selection maps over a family W costs prod(|s| for s in W);
# refuse beyond this many maps.
MAX_SELECTIONS = 1 << 16


@dataclass(frozen=True)
class Verdict:
    """Outcome of a coherence check: ok, or the first violated axiom with witness."""

    ok: bool
    axiom: str | None = None
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def selection_maps(family: tuple[int, ...]):
    """All ways of picking one thing (as a singleton mask) from each member."""
    choices = [tuple(_bits(member)) for member in family]
    count = 1
    for c in choices:
        count *= len(c)
        if count > MAX_SELECTIONS:
            raise CapacityError(f"selection space exceeds {MAX_SELECTIONS} maps")
    return product(*choices)


def _production_constraints(u: Universe, family: tuple[int, ...]) -> frozenset[int]:
    """Deduplicated closures cl(sigma(W)) over all selection maps sigma."""
    masks = set()
    for sigma in selection_maps(family):
        picked = 0
        for bit in sigma:
            picked |= bit
        masks.add(u.closure(picked))
    return frozenset(masks)


def production_step(u: Universe, W) -> frozenset[int]:
    """Sets derivable from the family W by production, in hitting-set form.

    Returns every s that meets cl(sigma(W)) for each selection map sigma;
    this is exactly the upward closure of the sets of per-selection picks.
    The empty family is allowed and yields the sets meeting cl({}).
    """
    family = tuple(sorted(set(W)))
    if 0 in family:
        raise InputError("the empty set admits no selection map")
    constraints = _production_constraints(u, family)
    return frozenset(
        s for s in u.subsets() if all(s & m for m in constraints)
    )


def production_step_raw(u: Universe, W) -> frozenset[int]:
    """Raw production: one set of per-selection picks per choice function.

    Every produced set has one element t in cl(sigma(W)) for each
    selection map sigma.  Upward closure of this family recovers
    production_step; the hitting-set form is only equivalent in the
    presence of the superset axiom.
    """
    family = tuple(sorted(set(W)))
    if 0 in family:
        raise InputError("the empty set admits no selection map")
    # One pick per selection map; accumulate the partial unions instead
    # of expanding the full choice product (there are only 2^|T| results).
    out = {0}
    for sigma in selection_maps(family):
        picked = 0
        for bit in sigma:
            picked |= bit
        choices = tuple(_bits(u.closure(picked)))
        out = {s | bit for s in out for bit in choices}
    return frozenset(out)


def check_sds_coherent(u: Universe, K, *, skip_axioms=frozenset()) -> Verdict:
    """Check axioms K1-K5; the first violated axiom is named with a witness.

    `skip_axioms` names axiom numbers ("1".."5") to bypass; it exists so
    the self-test harness can verify that each axiom is load-bearing.
    """
    skip = frozenset(skip_axioms)
    members = frozenset(K)
    for s in members:
        u.check_mask(s)
    if "1" not in skip and 0 in members:
        return Verdict(False, "K1", (0,), "the empty set is a member")
    if "2" not in skip:
        for s in members:
            rest = u.full_mask & ~s
            sub = rest
            while True:
                bigger = s | sub
                if bigger not in members:
                    return Verdict(
                        False, "K2", (s, bigger),
                        f"{u.format_set(s)} is a member but superset {u.format_set(bigger)} is not",
                    )
                if sub == 0:
                    break
                sub = (sub - 1) & rest
    if "3" not in skip:
        for s in members:
            stripped = s & ~u.forbidden_mask
            if stripped not in members:
                return Verdict(
                    False, "K3", (s, stripped),
                    f"member {u.format_set(s)} stripped of forbidden things is missing",
                )
    if "4" not in skip:
        for bit in _bits(u.always_desirable_mask):
            if bit not in members:
                return Verdict(
                    False, "K4", (bit,),
                    f"singleton {u.format_set(bit)} of an always-desirable thing is missing",
                )
    if "5" not in skip:
        ordered = sorted(members)
        n = len(ordered)
        if n > 16:
            raise CapacityError(f"production scan over 2^{n} subfamilies refused")
        # Subfamilies in order of increasing size, for small witnesses.
        subsets = sorted(range(1, 1 << n), key=lambda b: (b.bit_count(), b))
        for bits in subsets:
            family = tuple(ordered[i] for i in range(n) if bits >> i & 1)
            if 0 in family:
                continue  # covered by axiom 1
            if "2" in skip:
                # Without the superset axiom the hitting-set shortcut is
                # unjustified; fall back to the raw per-choice products.
                produced = production_step_raw(u, family)
            else:
                produced = production_step(u, family)
            per_sigma = tuple(sorted(_production_constraints(u, family)))
            for s in sorted(produced):
                if s not in members:
                    return Verdict(
                        False, "K5", (family, s, per_sigma),
                        f"family {[u.format_set(f) for f in family]} produces "
                        f"{u.format_set(s)}, which is missing",
                    )
    return Verdict(True)


def power_set(u: Universe) -> frozenset[int]:
    """The top sentinel: every subset of things."""
    return frozenset(u.subsets())


def is_top(u: Universe, K) -> bool:
    return len(K) == u.full_mask + 1


def sds_closure(u: Universe, W, *, skip_axioms=frozenset()) -> frozenset[int]:
    """Least fixpoint of the coherence axioms over W; top if inconsistent.

    Brute force: iterates superset closure, forbidden stripping,
    always-desirable singletons, and production over every subfamily of
    the current set, until stable.  Only viable on very small universes;
    it is the oracle that `lawcheck` holds `conjunctive_closure` to.
    """
    skip = frozenset(skip_axioms)
    K = set(W)
    for s in K:
        u.check_mask(s)
    if "4" not in skip:
        K.update(_bits(u.always_desirable_mask))
    while True:
        added = set()
        if "3" not in skip:
            for s in K:
                stripped = s & ~u.forbidden_mask
                if stripped not in K:
                    added.add(stripped)
        if "2" not in skip:
            for s in K:
                rest = u.full_mask & ~s
                sub = rest
                while True:
                    bigger = s | sub
                    if bigger not in K:
                        added.add(bigger)
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
        if not added and "5" not in skip:
            ordered = sorted(K)
            n = len(ordered)
            if n > 16:
                raise CapacityError(f"closure fixpoint over 2^{n} subfamilies refused")
            step = production_step_raw if "2" in skip else production_step
            for bits in range(1, 1 << n):
                family = tuple(ordered[i] for i in range(n) if bits >> i & 1)
                if 0 in family:
                    continue
                produced = step(u, family) - K
                if produced:
                    added |= produced
                    break
        if not added:
            break
        K |= added
    if 0 in K and "1" not in skip:
        return power_set(u)
    return frozenset(K)


def conjunctive_closure(u: Universe, W) -> frozenset[int]:
    """Closure of W via its compatible coherent SDTs; top if none remain.

    Every consistent W closes to the intersection of the conjunctive
    models of the coherent SDTs compatible with it.  (In general the
    closure is the union of these intersections over the finite
    subfamilies of W; here W itself is finite and its own term absorbs
    the rest.)
    """
    compatible = events.event_members(u, events.event_of(u, W))
    if not compatible:
        return power_set(u)
    return frozenset(
        s for s in u.subsets() if all(s & d for d in compatible)
    )


def sdtify(K) -> int:
    """Things whose singletons are members: the conjunctive content of K."""
    mask = 0
    for s in K:
        if s and s & (s - 1) == 0:
            mask |= s
    return mask


def sdsify(u: Universe, D: int) -> frozenset[int]:
    """All sets of things meeting D: the conjunctive model of the SDT D."""
    u.check_mask(D)
    return frozenset(s for s in u.subsets() if s & D)


def is_conjunctive(u: Universe, K) -> bool:
    """Every member contains a thing whose singleton is also a member."""
    return frozenset(K) == sdsify(u, sdtify(K)) if K else True


def conjunctive_part(u: Universe, K) -> frozenset[int]:
    """Members witnessed by a desirable singleton; a conservative approximation."""
    D = sdtify(K)
    return frozenset(s for s in K if s & D)


def is_complete(K) -> bool:
    """No member splits: if a union is desirable, one of the parts is."""
    members = frozenset(K)
    for s in members:
        # Check every 2-partition s = s1 | s2 (overlaps reduce to these).
        sub = s
        while True:
            s1 = sub
            s2 = s & ~sub
            if s1 not in members and s2 not in members:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & s
    return True


def up_close(u: Universe, F) -> frozenset[int]:
    """All supersets of members of F."""
    out = set()
    for s in F:
        u.check_mask(s)
        rest = u.full_mask & ~s
        sub = rest
        while True:
            out.add(s | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return frozenset(out)


def bottom_sds(u: Universe) -> frozenset[int]:
    """The smallest coherent SDS: sets meeting the always-desirable things."""
    return sdsify(u, u.always_desirable_mask)


def enumerate_complete_coherent_extensions(u: Universe, K) -> list[frozenset[int]]:
    """All complete coherent supersets of K.

    On a finite universe the complete coherent SDSes are exactly the
    conjunctive models of the coherent SDTs, so these are the models
    that include K.
    """
    members = frozenset(K)
    if not events.event_of(u, members):
        raise InconsistencyError("no coherent SDT is compatible with K", 0)
    found = set()
    for D in u.enumerate_coherent_sdts():
        model = sdsify(u, D)
        if members <= model:
            found.add(model)
    return sorted(found, key=lambda f: sorted(f))


def parse_sds(u: Universe, text: str) -> frozenset[int]:
    """Parse `assert-set: a b` statement lines into an SDS."""
    members = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep or key.strip() != "assert-set":
            raise InputError(f"line {lineno}: expected 'assert-set: <things>'")
        try:
            members.add(u.mask_of(value.split()))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return frozenset(members)


def format_sds(u: Universe, K) -> str:
    """One set per line in canonical mask order; `INCONSISTENT` for the top."""
    if is_top(u, K):
        return "INCONSISTENT"
    return "\n".join(" ".join(u.names_of(s)) for s in sorted(K))
