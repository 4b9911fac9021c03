"""Events over the coherent SDTs of a universe, and their bounded lattice.

An event is a set of coherent SDTs, stored as a bitmask over the
canonical enumeration of C (all coherent SDTs in increasing thing-mask
order).  Joins are bitwise or, meets bitwise and, so the lattice of
events is distributive by construction.
"""

from __future__ import annotations

from .core import CapacityError, Universe, _bits

__all__ = [
    "coherent_sdts",
    "event_members",
    "basic_event",
    "event_of",
    "production_event",
    "upset_in_C",
    "EventLattice",
    "build_event_lattice",
    "format_event",
]

DEFAULT_C_LIMIT = 12


def coherent_sdts(u: Universe) -> tuple[int, ...]:
    """The canonical enumeration of C, cached on the universe by `core`."""
    if u._coherent is None:
        u.enumerate_coherent_sdts()
    return u._coherent


def event_members(u: Universe, event: int) -> tuple[int, ...]:
    """The coherent SDTs (as thing masks) belonging to an event mask."""
    C = coherent_sdts(u)
    return tuple(C[i] for i in range(len(C)) if event >> i & 1)


def basic_event(u: Universe, s: int) -> int:
    """A_s: the coherent SDTs compatible with 's holds a desirable thing'.

    A_s is the union of the single-thing events A_{t} over t in s.  Each
    A_{t} is built on first use and kept on the universe next to C.
    """
    u.check_mask(s)
    if u._thing_events is None:
        u._thing_events = [None] * u.size
    thing_events = u._thing_events
    event = 0
    for t in _bits(s):
        if thing_events[t] is None:
            C = coherent_sdts(u)
            thing_events[t] = int("".join("1" if D >> t & 1 else "0" for D in reversed(C)), 2)
        event |= thing_events[t]
    return event


def event_of(u: Universe, W) -> int:
    """E_W: the coherent SDTs compatible with every statement in W."""
    C = coherent_sdts(u)
    event = (1 << len(C)) - 1
    for s in W:
        event &= basic_event(u, s)
    return event


def upset_in_C(u: Universe, event: int) -> int:
    """All coherent SDTs extending some member of the event."""
    C = coherent_sdts(u)
    out = 0
    for i, D in enumerate(C):
        if event >> i & 1:
            for j, E in enumerate(C):
                if D & ~E == 0:
                    out |= 1 << j
    return out


def production_event(u: Universe, W) -> int:
    """The coherent SDTs of the form cl(sigma(W)) for a selection map sigma.

    Its upset in C equals event_of(u, W): what can be produced from W
    pins down exactly which coherent SDTs remain compatible with it.
    """
    from .sds import _production_constraints  # deferred: sds imports this module

    family = tuple(sorted(set(W)))
    C = coherent_sdts(u)
    index = {D: i for i, D in enumerate(C)}
    event = 0
    if 0 in family:
        return 0
    for closed in _production_constraints(u, family):
        i = index.get(closed)
        if i is not None:
            event |= 1 << i
    return event


class EventLattice:
    """All events of the form E_W, closed under union and intersection."""

    def __init__(self, u: Universe, elements: frozenset[int]):
        self.universe = u
        self.elements = elements
        self.top = (1 << len(coherent_sdts(u))) - 1
        self.bottom = 0

    def __contains__(self, event: int) -> bool:
        return event in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def upset(self, event: int) -> frozenset[int]:
        """Lattice elements above the given one (its principal filter)."""
        return frozenset(e for e in self.elements if event & ~e == 0)


def build_event_lattice(u: Universe, limit: int = DEFAULT_C_LIMIT) -> EventLattice:
    """The lattice generated by the basic events: the up-sets of (C, within).

    Each basic event is an up-set, and each principal up-set is the meet
    of the single-thing events A_{t} for t in its generator, so the
    generated lattice is every up-set (Birkhoff's representation).  C is
    ordered by mask, a linear extension of inclusion, so scanning it
    from the top down decides each SDT after all of its strict
    supersets.  The number of up-sets can reach 2^|C|, hence the limit.
    """
    C = coherent_sdts(u)
    if len(C) > limit:
        raise CapacityError(f"lattice construction limited to {limit} coherent SDTs, got {len(C)}")
    upsets = [0]
    for i in reversed(range(len(C))):
        above = upset_in_C(u, 1 << i) & ~(1 << i)
        upsets += [e | 1 << i for e in upsets if above & ~e == 0]
    return EventLattice(u, frozenset(upsets))


def format_event(u: Universe, event: int) -> str:
    """Bracketed list of the member SDTs in canonical order."""
    return "[%s]" % " ".join(u.format_set(D) for D in event_members(u, event))
