"""Filters on the event lattice and the SDS representation maps.

A filter is stored as an explicit frozenset of lattice elements (event
masks); bases are accepted as an ingestion format.  The lattice order
is event inclusion, so upward closure and meets are set operations.
The lattice is finite, so every filter is the principal filter of its
meet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InconsistencyError, InputError, Universe
from .events import EventLattice, basic_event, event_of, upset_in_C

__all__ = [
    "LatticeFilter",
    "FilterBase",
    "generate_filter",
    "is_proper",
    "is_prime",
    "enumerate_proper_filters",
    "enumerate_prime_filters",
    "prime_decomposition",
    "filterize",
    "desirify",
    "principal_filterize",
    "format_filter",
]


@dataclass(frozen=True)
class LatticeFilter:
    """Non-empty, upward-closed, meet-closed subset of an event lattice."""

    lattice: EventLattice
    members: frozenset[int]

    def __post_init__(self):
        if not self.members:
            raise InputError("a filter is non-empty")
        if not self.members <= self.lattice.elements:
            raise InputError("filter members must be lattice elements")
        for a in self.members:
            for b in self.lattice.elements:
                if a & ~b == 0 and b not in self.members:
                    raise InputError("not upward closed: missing a superset element")
            for b in self.members:
                if a & b not in self.members:
                    raise InputError("not closed under meets")

    def __contains__(self, event: int) -> bool:
        return event in self.members

    def __len__(self) -> int:
        return len(self.members)

    def meet(self) -> int:
        """The meet of all members; lies in the filter on a finite lattice."""
        out = self.lattice.top
        for a in self.members:
            out &= a
        return out


@dataclass(frozen=True)
class FilterBase:
    """Generators for a proper filter: non-bottom, directed downwards."""

    lattice: EventLattice
    generators: frozenset[int]

    def __post_init__(self):
        if not self.generators:
            raise InputError("a filter base is non-empty")
        if not self.generators <= self.lattice.elements:
            raise InputError("generators must be lattice elements")
        if self.lattice.bottom in self.generators:
            raise InputError("the bottom element generates an improper filter")
        for a in self.generators:
            for b in self.generators:
                lower = a & b
                if not any(c & ~lower == 0 for c in self.generators):
                    raise InputError(
                        "not directed downwards: no generator below a pairwise meet"
                    )


def generate_filter(base: FilterBase) -> LatticeFilter:
    """The upward closure of the base; proper since no generator is bottom."""
    members = frozenset(
        e for e in base.lattice.elements
        if any(g & ~e == 0 for g in base.generators)
    )
    return LatticeFilter(base.lattice, members)


def is_proper(F: LatticeFilter) -> bool:
    return F.lattice.bottom not in F.members


def is_prime(F: LatticeFilter) -> bool:
    """Proper, and containing a join forces containing one of the parts.

    The lattice is the up-sets of (C, within), whose join-irreducible
    elements are the principal up-sets, so F is prime exactly when its
    meet is the up-set of one coherent SDT: that of its first member,
    which is minimal since C is ordered by mask.
    """
    meet = F.meet()
    return meet != 0 and upset_in_C(F.lattice.universe, meet & -meet) == meet


def enumerate_proper_filters(lattice: EventLattice) -> list[LatticeFilter]:
    """Every proper filter, as the up-set of each non-bottom element."""
    out = []
    for e in sorted(lattice.elements):
        if e != lattice.bottom:
            out.append(LatticeFilter(lattice, lattice.upset(e)))
    return out


def enumerate_prime_filters(lattice: EventLattice) -> list[LatticeFilter]:
    """One prime filter per coherent SDT D: the events containing D."""
    u = lattice.universe
    # The sure event has one bit per coherent SDT.
    meets = sorted(upset_in_C(u, 1 << i) for i in range(lattice.top.bit_length()))
    return [LatticeFilter(lattice, lattice.upset(m)) for m in meets]


def prime_decomposition(F: LatticeFilter) -> list[LatticeFilter]:
    """All prime filters including F; their intersection recovers F."""
    if not is_proper(F):
        raise InputError("prime decomposition requires a proper filter")
    return [P for P in enumerate_prime_filters(F.lattice) if F.members <= P.members]


def filterize(u: Universe, lattice: EventLattice, K) -> LatticeFilter:
    """The events of the finite subfamilies of K.

    Events multiply under family union, so these are exactly the meets
    of the per-member basic events, seeded with the sure event.
    """
    members = {lattice.top}
    for s in K:
        members.add(basic_event(u, s))
    while True:
        new = {a & b for a in members for b in members} - members
        if not new:
            break
        members |= new
    return LatticeFilter(lattice, frozenset(members))


def desirify(u: Universe, F: LatticeFilter) -> frozenset[int]:
    """The sets of things whose basic event lies in the filter."""
    if not is_proper(F):
        raise InputError("desirify requires a proper filter")
    return frozenset(s for s in u.subsets() if basic_event(u, s) in F.members)


def principal_filterize(u: Universe, lattice: EventLattice, K) -> tuple[int, LatticeFilter]:
    """The event of all of K and its principal filter; requires consistent K.

    For coherent K this coincides with filterize: the single event E_K
    is the smallest member and already determines the whole filter.
    """
    E_K = event_of(u, K)
    if E_K == 0:
        raise InconsistencyError("inconsistent: no coherent SDT is compatible with K", 0)
    if E_K not in lattice.elements:
        raise InputError("E_K is not a lattice element; lattice built for another universe?")
    return E_K, LatticeFilter(lattice, lattice.upset(E_K))


def format_filter(u: Universe, F: LatticeFilter) -> str:
    """Smallest member first, then all members canonically, then flags."""
    from .events import format_event

    lines = [format_event(u, e) for e in sorted(F.members, key=lambda e: (e.bit_count(), e))]
    flags = ["PRIME"] if is_prime(F) else []
    flags.append("PROPER" if is_proper(F) else "IMPROPER")
    lines.append(" ".join(flags))
    return "\n".join(lines)
