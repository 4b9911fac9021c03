"""Seeded inputs: rule universes, statement families, gambles, credal sets
and option sets, written in the formats the CLI reads.

Every generator takes an explicit `random.Random`; `rng_for` derives one
from the run seed and a label, so the same seed gives the same inputs in
any process (string seeding does not depend on PYTHONHASHSEED).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import forward_closure


def rng_for(seed, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- rule universes ----------------------------------------------------

@dataclass(frozen=True)
class RuleUniverse:
    things: tuple[str, ...]
    rules: tuple[tuple[int, int], ...]  # (premises mask, conclusion index)
    forbidden: int  # mask

    @property
    def size(self) -> int:
        return len(self.things)

    def names(self, mask: int) -> list[str]:
        return [self.things[i] for i in bits_of(mask)]

    def closure(self, mask: int) -> int:
        return forward_closure(self.size, self.rules, mask)

    def text(self) -> str:
        lines = ["things: " + " ".join(self.things)]
        if self.forbidden:
            lines.append("forbidden: " + " ".join(self.names(self.forbidden)))
        for premises, conclusion in self.rules:
            lines.append(f"rule: {' '.join(self.names(premises))} -> {self.things[conclusion]}")
        return "\n".join(lines) + "\n"


def rule_universe(rng: random.Random, n: int, rules_per_thing: float,
                  max_premises: int, axioms: int = 1, forbidden: int = 1,
                  derivable_forbidden: bool = True) -> RuleUniverse:
    """n things, about n * rules_per_thing rules with 1..max_premises premises.

    `axioms` rules have no premises, so cl({}) is non-empty; `forbidden`
    things are drawn from outside cl({}), so a coherent set always exists.
    Without `derivable_forbidden` they are also drawn from things no rule
    concludes, so only a set that names one of them is inconsistent.
    """
    things = tuple(f"t{i}" for i in range(n))
    rules = []
    for i in rng.sample(range(n), min(axioms, n)):
        rules.append((0, i))
    for _ in range(round(n * rules_per_thing)):
        k = rng.randint(1, min(max_premises, n - 1))
        chosen = rng.sample(range(n), k + 1)
        premises = 0
        for i in chosen[1:]:
            premises |= 1 << i
        rules.append((premises, chosen[0]))
    always = forward_closure(n, rules, 0)
    outside = [i for i in range(n) if not always >> i & 1]
    if not derivable_forbidden:
        concluded = {c for _p, c in rules}
        outside = [i for i in outside if i not in concluded]
    forbid = 0
    for i in rng.sample(outside, min(forbidden, len(outside))):
        forbid |= 1 << i
    return RuleUniverse(things, tuple(rules), forbid)


def random_set(rng: random.Random, n: int, lo: int, hi: int) -> int:
    mask = 0
    for i in rng.sample(range(n), rng.randint(lo, min(hi, n))):
        mask |= 1 << i
    return mask


def family(rng: random.Random, n: int, members: int, lo: int = 1, hi: int = 3) -> frozenset[int]:
    """A statement family: `members` distinct non-empty sets of lo..hi things."""
    out = set()
    while len(out) < members:
        out.add(random_set(rng, n, lo, hi))
    return frozenset(out)


def sds_text(u: RuleUniverse, W) -> str:
    return "".join(f"assert-set: {' '.join(u.names(s))}\n" for s in sorted(W))


def set_arg(u: RuleUniverse, mask: int) -> str:
    return ",".join(u.names(mask))


# -- gambles -----------------------------------------------------------

def rational(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def gamble(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(rational(rng) for _ in range(dim))


def distinct_gambles(rng: random.Random, dim: int, count: int) -> list[tuple[Fraction, ...]]:
    out: list[tuple[Fraction, ...]] = []
    while len(out) < count:
        g = gamble(rng, dim)
        if g not in out:
            out.append(g)
    return out


def gamble_text(named: dict[str, tuple]) -> str:
    return "".join(f"gamble {n}: {' '.join(str(v) for v in g)}\n" for n, g in named.items())


def credal_constraints(rng: random.Random, dim: int, count: int):
    """`count` random half-spaces, each with slack around one interior
    mass function, so the credal set is never empty."""
    weights = [rng.randint(1, 6) for _ in range(dim)]
    total = sum(weights)
    p0 = [Fraction(w, total) for w in weights]
    out = []
    for _ in range(count):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        value = sum(c * p for c, p in zip(coeffs, p0))
        slack = Fraction(rng.randint(1, 4), 10)
        if rng.random() < 0.5:
            out.append((coeffs, ">=", value - slack))
        else:
            out.append((coeffs, "<=", value + slack))
    return out


def credal_text(constraints) -> str:
    return "".join(
        f"constraint: {' '.join(str(c) for c in coeffs)} {rel} {rhs}\n"
        for coeffs, rel, rhs in constraints
    )
