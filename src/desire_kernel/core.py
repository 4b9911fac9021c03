"""Finite thing-universes, closure operators, and coherent sets of desirable things.

Things are interned to dense indices; every set of things is a bitmask
(int) over those indices.  All operations are pure functions over
immutable values, so universes are safe to share between threads.

Both algorithms scale with their output, not with 2^|T|.  A rule set
closes a mask by LinClosure (Beeri & Bernstein, ACM TODS 1979): each
rule fires at most once, when its last premise arrives, so one closure
is linear in the total size of the rules.  The coherent SDTs C are
enumerated by Close-by-One (Kuznetsov 1993; Ganter's NextClosure
1984) in at most |C|·|T| closure calls, and cached on the universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = [
    "CapacityError",
    "InconsistencyError",
    "InputError",
    "ClosureSpec",
    "RuleSet",
    "Table",
    "Backend",
    "Universe",
    "parse_universe",
    "never_desirable_things",
]

DEFAULT_ENUMERATION_LIMIT = 20


class InputError(ValueError):
    """Malformed input: unknown identifiers, bad files, invalid specs."""


class CapacityError(RuntimeError):
    """An operation would exceed a configured combinatorial bound."""


class InconsistencyError(ValueError):
    """A consistent set was required; carries the forbidden witness mask."""

    def __init__(self, message: str, witness: int):
        super().__init__(message)
        self.witness = witness


class ClosureSpec:
    """Abstract closure-operator specification; see RuleSet, Table, Backend."""

    def operator(self, universe: "Universe") -> Callable[[int], int]:
        raise NotImplementedError

    def validate(self, universe: "Universe") -> None:
        """Check C1 (extensive), C2 (monotone), C3 (idempotent)."""
        raise NotImplementedError


@dataclass(frozen=True)
class RuleSet(ClosureSpec):
    """Finite productions (premises -> conclusion); closure is their least fixpoint.

    Least-fixpoint operators are extensive, monotone, idempotent and
    finitary by construction, so validation is a no-op.  The operator is
    LinClosure: watch lists (the rules each thing is a premise of) and
    premise counts are built once per universe; a close call counts down
    the premises of each rule as things arrive and fires the rule from a
    queue when its count reaches zero, so each rule fires at most once.
    """

    rules: tuple[tuple[int, int], ...]  # (premises mask, conclusion mask)

    def operator(self, universe):
        axioms = 0  # conclusions of premise-free rules: in every closure
        counts: list[int] = []
        conclusions: list[int] = []
        watch: list[list[int]] = [[] for _ in range(universe.size)]
        for premises, conclusion in self.rules:
            if not premises:
                axioms |= conclusion
                continue
            for t in _bits(premises):
                watch[t].append(len(counts))
            counts.append(premises.bit_count())
            conclusions.append(conclusion)

        def close(mask: int) -> int:
            result = mask | axioms
            missing = counts.copy()
            queue = _bits(result)
            while queue:
                for r in watch[queue.pop()]:
                    missing[r] -= 1
                    if not missing[r]:
                        new = conclusions[r] & ~result
                        if new:
                            result |= new
                            queue += _bits(new)
            return result

        return close

    def validate(self, universe):
        pass


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Table(ClosureSpec):
    """Explicit closure table over every subset; only for small universes."""

    mapping: tuple[int, ...]  # mapping[mask] = cl(mask)

    MAX_THINGS = 16

    def operator(self, universe):
        mapping = self.mapping
        return lambda mask: mapping[mask]

    def validate(self, universe):
        n = universe.size
        if n > self.MAX_THINGS:
            raise CapacityError(f"table closure limited to {self.MAX_THINGS} things, got {n}")
        if len(self.mapping) != 1 << n:
            raise InputError(f"table must cover all {1 << n} subsets, got {len(self.mapping)}")
        full = (1 << n) - 1
        for mask, closed in enumerate(self.mapping):
            if closed & ~full:
                raise InputError(f"cl({mask:b}) = {closed:b} leaves the universe")
            if mask & ~closed:
                raise InputError(f"C1 violated: {mask:b} not within cl = {closed:b}")
            if self.mapping[closed] != closed:
                raise InputError(f"C3 violated: cl not idempotent at {mask:b}")
        # Monotonicity via single-element steps: A <= A|{t} for all A, t
        # is equivalent to full C2 by transitivity along subset chains.
        for mask in range(1 << n):
            closed = self.mapping[mask]
            for t in range(n):
                bigger = mask | (1 << t)
                if closed & ~self.mapping[bigger]:
                    raise InputError(
                        f"C2 violated: cl({mask:b}) not within cl({bigger:b})"
                    )


@dataclass(frozen=True)
class Backend(ClosureSpec):
    """Opaque closure hook, supplied by the logic or gambles backends.

    `close` maps a thing mask to its closed mask.  `enumerate_coherent`,
    when given, replaces Close-by-One for coherent-set enumeration
    (backends often know a cheaper characterisation).
    """

    close: Callable[[int], int]
    enumerate_coherent: Callable[["Universe"], list[int]] | None = None
    name: str = "backend"

    def __hash__(self):
        return hash((id(self.close), self.name))

    def operator(self, universe):
        return self.close

    def validate(self, universe):
        pass


class Universe:
    """A finite set of things with a closure operator and forbidden things.

    Construction validates that T+ = cl({}) is disjoint from T- and that
    at least one coherent set of desirable things exists.
    """

    def __init__(self, things: Sequence[str], closure_spec: ClosureSpec, forbidden: Iterable[str] = ()):
        if not things:
            raise InputError("universe needs at least one thing")
        if len(set(things)) != len(things):
            raise InputError("duplicate thing identifiers")
        self.things: tuple[str, ...] = tuple(things)
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.things)}
        self.size = len(self.things)
        self.full_mask = (1 << self.size) - 1
        self.closure_spec = closure_spec
        closure_spec.validate(self)
        self._close = closure_spec.operator(self)
        self._closure_cache: dict[int, int] = {}
        # C in canonical order, once enumerated, and the single-thing
        # events A_{t} over it, filled in on demand by the events module.
        self._coherent: tuple[int, ...] | None = None
        self._thing_events: list[int | None] | None = None
        self.forbidden_mask = self.mask_of(forbidden)
        self.always_desirable_mask = self.closure(0)  # T+
        if self.always_desirable_mask & self.forbidden_mask:
            raise InputError("cl({}) intersects the forbidden set: no coherent SDT exists")

    # -- set plumbing -------------------------------------------------

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.index[name]
            except KeyError:
                raise InputError(f"unknown thing identifier: {name!r}") from None
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(t for i, t in enumerate(self.things) if mask >> i & 1)

    def format_set(self, mask: int) -> str:
        return "{%s}" % " ".join(self.names_of(mask))

    def check_mask(self, mask: int) -> int:
        if mask & ~self.full_mask:
            raise InputError(f"mask {mask:#x} contains things outside the universe")
        return mask

    MAX_SCAN_THINGS = 24

    def subsets(self) -> range:
        """All thing masks; guarded, since the range has 2^|T| entries."""
        if self.size > self.MAX_SCAN_THINGS:
            raise CapacityError(
                f"exhaustive subset scan over 2^{self.size} masks refused"
            )
        return range(self.full_mask + 1)

    # -- closure and coherence ----------------------------------------

    def closure(self, mask: int) -> int:
        """cl(mask): extensive, monotone, idempotent."""
        self.check_mask(mask)
        cached = self._closure_cache.get(mask)
        if cached is None:
            cached = self._closure_cache[mask] = self._close(mask)
        return cached

    def is_coherent_sdt(self, mask: int) -> bool:
        """Closed and disjoint from the forbidden set."""
        self.check_mask(mask)
        return self.closure(mask) == mask and not mask & self.forbidden_mask

    def is_consistent_sdt(self, mask: int) -> bool:
        """cl(mask) avoids the forbidden set, i.e. extends to a coherent SDT."""
        return not self.closure(mask) & self.forbidden_mask

    def enumerate_coherent_sdts(self, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[int]:
        """All coherent SDTs in canonical bitmask order, by Close-by-One.

        The search starts from T+ = cl({}) and extends a closed set A by
        one thing i past its branch point, keeping B = cl(A | {i}) when
        B avoids the forbidden things and adds no thing below i.  By
        monotonicity every extension of a B that meets the forbidden
        things meets them too, so that branch is cut; the second test
        (canonicity) reaches each closed set exactly once.  Each coherent
        SDT makes at most |T| closure calls.  C is cached on the
        universe; the |T| limit is checked on every call.
        """
        spec = self.closure_spec
        hook = spec.enumerate_coherent if isinstance(spec, Backend) else None
        if hook is None and self.size > limit:
            raise CapacityError(
                f"enumeration of coherent sets over {self.size} things exceeds the limit of {limit} things"
            )
        if self._coherent is None:
            self._coherent = tuple(hook(self) if hook else sorted(self._close_by_one()))
        return list(self._coherent)

    def _close_by_one(self) -> list[int]:
        close, forbidden, n = self._close, self.forbidden_mask, self.size
        found = []
        stack = [(self.always_desirable_mask, 0)]
        while stack:
            closed, branch = stack.pop()
            found.append(closed)
            for i in range(branch, n):
                if closed >> i & 1:
                    continue
                bigger = close(closed | 1 << i)
                if not bigger & forbidden and not (bigger & ~closed) & ((1 << i) - 1):
                    stack.append((bigger, i + 1))
        return found

    def sdt_closure_via_intersection(self, mask: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
        """Intersection of all coherent SDTs that include mask; equals closure(mask)."""
        closed = self.closure(mask)
        witness = closed & self.forbidden_mask
        if witness:
            raise InconsistencyError(
                f"inconsistent set: closure meets forbidden things {self.format_set(witness)}",
                witness,
            )
        result = self.full_mask
        for sdt in self.enumerate_coherent_sdts(limit):
            if sdt & mask == mask:
                result &= sdt
        return result


def never_desirable_things(universe: Universe, limit: int = DEFAULT_ENUMERATION_LIMIT) -> int:
    """Diagnostic: things in no coherent SDT yet not forbidden (kept, not removed)."""
    union = 0
    for sdt in universe.enumerate_coherent_sdts(limit):
        union |= sdt
    return universe.full_mask & ~union & ~universe.forbidden_mask


def parse_universe(text: str) -> Universe:
    """Parse the line-oriented universe format.

    things: a b c
    forbidden: c
    rule: -> a
    rule: b -> c
    """
    things: list[str] = []
    forbidden: list[str] = []
    raw_rules: list[tuple[int, list[str], str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "things":
            things.extend(value.split())
        elif key == "forbidden":
            forbidden.extend(value.split())
        elif key == "rule":
            if "->" not in value:
                raise InputError(f"line {lineno}: rule needs '->'")
            left, _, right = value.partition("->")
            conclusion = right.split()
            if len(conclusion) != 1:
                raise InputError(f"line {lineno}: rule needs exactly one conclusion")
            raw_rules.append((lineno, left.split(), conclusion[0]))
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    if not things:
        raise InputError("no 'things:' line found")
    index = {t: i for i, t in enumerate(things)}
    rules = []
    for lineno, premises, conclusion in raw_rules:
        try:
            premise_mask = 0
            for p in premises:
                premise_mask |= 1 << index[p]
            conclusion_mask = 1 << index[conclusion]
        except KeyError as exc:
            raise InputError(f"line {lineno}: unknown thing identifier {exc.args[0]!r}") from None
        rules.append((premise_mask, conclusion_mask))
    for name in forbidden:
        if name not in index:
            raise InputError(f"unknown forbidden thing {name!r}")
    return Universe(things, RuleSet(tuple(rules)), forbidden)
