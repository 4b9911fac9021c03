"""Propositional wffs, truth-table entailment, and the logic backend.

Wffs are ASTs over a declared atom set.  Semantics are truth tables: a
wff's models are a bitmask over the 2^|atoms| valuations, so entailment
is a couple of bit operations.  A LogicUniverse collects every wff up
to a syntactic depth bound (deduplicated by canonical printing) and
exposes deductive closure as a core Backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Backend, CapacityError, InputError, Universe

__all__ = [
    "Wff",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "parse_wff",
    "models_mask",
    "entails",
    "LogicUniverse",
    "fold_disjunction",
    "disjunction_sdt",
    "LindenbaumClass",
    "lindenbaum_quotient",
    "lindenbaum_class_of",
]


class Wff:
    """Base class for propositional formulas; subclasses are immutable."""

    PREC = 0

    def __str__(self):
        return self._print(0)

    def _print(self, outer: int) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __eq__(self, other):
        return type(self) is type(other) and str(self) == str(other)

    def __hash__(self):
        return hash((type(self), str(self)))


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Wff):
    name: str
    PREC = 5

    def _print(self, outer):
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class Not(Wff):
    arg: Wff
    PREC = 4

    def _print(self, outer):
        return "~" + self.arg._print(self.PREC)


class _Binary(Wff):
    OP = "?"

    def _print(self, outer):
        # Left-associative: the right child needs parentheses at equal
        # precedence, the left child only below it.
        left = self.left._print(self.PREC - 1)
        right = self.right._print(self.PREC)
        text = f"{left} {self.OP} {right}"
        return f"({text})" if self.PREC <= outer else text


@dataclass(frozen=True, eq=False, repr=False)
class And(_Binary):
    left: Wff
    right: Wff
    PREC = 3
    OP = "&"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Binary):
    left: Wff
    right: Wff
    PREC = 2
    OP = "|"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Binary):
    left: Wff
    right: Wff
    PREC = 1
    OP = "->"


class _Parser:
    """Recursive descent over `atom | ~wff | (wff op wff)` with precedence."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.i = 0

    def _tokenize(self):
        text, n = self.text, len(self.text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
            elif ch in "()~&|":
                self.tokens.append((ch, ch, pos))
                pos += 1
            elif text.startswith("->", pos):
                self.tokens.append(("->", "->", pos))
                pos += 2
            elif ch.isalpha() or ch == "_":
                start = pos
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                self.tokens.append(("atom", text[start:pos], start))
            else:
                raise InputError(f"syntax error at position {pos}: unexpected {ch!r}")
        self.tokens.append(("end", "", n))

    def _peek(self):
        return self.tokens[self.i]

    def _take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise InputError(f"syntax error at position {tok[2]}: expected {kind!r}, got {tok[1] or 'end of input'!r}")
        self.i += 1
        return tok

    def parse(self) -> Wff:
        wff = self._implies()
        tok = self._peek()
        if tok[0] != "end":
            raise InputError(f"syntax error at position {tok[2]}: unexpected {tok[1]!r}")
        return wff

    def _implies(self):
        left = self._or()
        while self._peek()[0] == "->":
            self._take("->")
            left = Implies(left, self._or())
        return left

    def _or(self):
        left = self._and()
        while self._peek()[0] == "|":
            self._take("|")
            left = Or(left, self._and())
        return left

    def _and(self):
        left = self._unary()
        while self._peek()[0] == "&":
            self._take("&")
            left = And(left, self._unary())
        return left

    def _unary(self):
        kind, value, pos = self._peek()
        if kind == "~":
            self._take("~")
            return Not(self._unary())
        if kind == "atom":
            self._take("atom")
            return Atom(value)
        if kind == "(":
            self._take("(")
            wff = self._implies()
            self._take(")")
            return wff
        raise InputError(f"syntax error at position {pos}: unexpected {value or 'end of input'!r}")


def parse_wff(text: str) -> Wff:
    return _Parser(text).parse()


def models_mask(atoms: tuple[str, ...], wff: Wff) -> int:
    """Bitmask over the 2^|atoms| valuations satisfying the wff.

    Valuation i assigns atom k the truth value of bit k of i.
    """
    index = {a: k for k, a in enumerate(atoms)}
    n = 1 << len(atoms)
    full = (1 << n) - 1

    def eval_mask(w: Wff) -> int:
        if isinstance(w, Atom):
            try:
                k = index[w.name]
            except KeyError:
                raise InputError(f"atom {w.name!r} not declared") from None
            return sum(1 << i for i in range(n) if i >> k & 1)
        if isinstance(w, Not):
            return full & ~eval_mask(w.arg)
        if isinstance(w, And):
            return eval_mask(w.left) & eval_mask(w.right)
        if isinstance(w, Or):
            return eval_mask(w.left) | eval_mask(w.right)
        if isinstance(w, Implies):
            return (full & ~eval_mask(w.left)) | eval_mask(w.right)
        raise InputError(f"unknown wff node {w!r}")

    return eval_mask(wff)


def entails(atoms, premises, conclusion: Wff) -> bool:
    """Every valuation satisfying all premises satisfies the conclusion."""
    atoms = tuple(atoms)
    common = (1 << (1 << len(atoms))) - 1
    for p in premises:
        common &= models_mask(atoms, p)
    return common & ~models_mask(atoms, conclusion) == 0


def _generate_wffs(atoms: tuple[str, ...], depth: int) -> list[Wff]:
    """All wffs up to the depth bound, deduplicated by canonical form."""
    by_level: list[list[Wff]] = [[Atom(a) for a in atoms]]
    seen = {str(w) for w in by_level[0]}
    for _ in range(depth):
        pool = [w for level in by_level for w in level]
        level: list[Wff] = []
        for w in pool:
            cand = Not(w)
            if str(cand) not in seen:
                seen.add(str(cand))
                level.append(cand)
        for left in pool:
            for right in pool:
                for ctor in (And, Or, Implies):
                    cand = ctor(left, right)
                    if str(cand) not in seen:
                        seen.add(str(cand))
                        level.append(cand)
        by_level.append(level)
    return [w for level in by_level for w in level]


class LogicUniverse:
    """All wffs over the atoms up to a depth bound, as a thing-universe.

    Things are canonical wff strings; the closure hook is semantic
    consequence restricted to the universe; forbidden things are the
    unsatisfiable wffs, so the always-desirable things come out as the
    tautologies.
    """

    def __init__(self, atoms, depth: int, max_things: int = 4096):
        self.atoms = tuple(atoms)
        if not self.atoms or len(set(self.atoms)) != len(self.atoms):
            raise InputError("atoms must be non-empty and distinct")
        self.depth = depth
        self.wffs = _generate_wffs(self.atoms, depth)
        if len(self.wffs) > max_things:
            raise CapacityError(f"{len(self.wffs)} wffs exceed the bound of {max_things}")
        self.valuation_count = 1 << len(self.atoms)
        self._all_models = (1 << self.valuation_count) - 1
        self.model_masks = tuple(models_mask(self.atoms, w) for w in self.wffs)
        self._by_models: dict[int, int] = {}
        for i, m in enumerate(self.model_masks):
            self._by_models.setdefault(m, i)
        self._theories: dict[int, int] = {}
        forbidden = [str(w) for w, m in zip(self.wffs, self.model_masks) if m == 0]
        backend = Backend(
            close=self._close_mask,
            enumerate_coherent=lambda _u: self._enumerate_coherent(),
            name=f"logic(atoms={','.join(self.atoms)},depth={depth})",
        )
        self.universe = Universe([str(w) for w in self.wffs], backend, forbidden)

    def _close_mask(self, mask: int) -> int:
        common = self._all_models
        i = 0
        m = mask
        while m:
            if m & 1:
                common &= self.model_masks[i]
            i += 1
            m >>= 1
        return self._theory_mask(common)

    def _theory_mask(self, valuations: int) -> int:
        """Things true under every valuation in the given set (cached per instance)."""
        out = self._theories.get(valuations)
        if out is None:
            out = 0
            for i, m in enumerate(self.model_masks):
                if valuations & ~m == 0:
                    out |= 1 << i
            self._theories[valuations] = out
        return out

    def _enumerate_coherent(self) -> list[int]:
        """Coherent SDTs = theories of non-empty valuation sets.

        A closed set avoiding the contradictions has a non-empty model
        set V and equals the theory of V, so scanning the (few) V sets
        replaces Close-by-One and its up to |C|·|things| closure calls
        over thousands of wffs.  When no wff of the
        universe is unsatisfiable, the theory of the empty valuation
        set (everything) avoids the forbidden set too, and counts.
        """
        theories = {self._theory_mask(v) for v in range(1, self._all_models + 1)}
        if self.universe.forbidden_mask == 0:
            theories.add(self._theory_mask(0))
        return sorted(theories)

    def wff_index(self, w: Wff) -> int:
        try:
            return self.universe.index[str(w)]
        except KeyError:
            raise CapacityError(f"wff {w} is not representable at depth {self.depth}") from None

    def closure_wffs(self, premises) -> list[Wff]:
        """Deductive closure of the premises, within the universe."""
        mask = 0
        for p in premises:
            mask |= 1 << self.wff_index(p)
        closed = self.universe.closure(mask)
        return [self.wffs[i] for i in range(len(self.wffs)) if closed >> i & 1]


def fold_disjunction(lu: LogicUniverse, mask: int) -> Wff:
    """The disjunction of a set of things, right-folded in canonical order.

    The fold itself always exists syntactically; whether it is a thing
    of the universe is the caller's concern.
    """
    members = [lu.wffs[i] for i in range(len(lu.wffs)) if mask >> i & 1]
    if not members:
        raise InputError("the disjunction of the empty set is undefined")
    out = members[-1]
    for w in reversed(members[:-1]):
        out = Or(w, out)
    return out


def disjunction_sdt(lu: LogicUniverse, members) -> int:
    """The member-disjunctions of the closed family generated by members.

    Production turns any desirable family into the singleton of its
    disjunction (every member entails it), so the result is exactly
    the set of things desirable on their own, i.e. the intersection of
    the theories compatible with the input.  Each input family's own
    disjunction must have a representative wff in the universe; where
    the truth table is unrealized, the result would be missing one of
    its defining generators, and we refuse rather than silently widen.
    """
    from . import events

    u = lu.universe
    compatible = events.event_members(u, events.event_of(u, members))
    if not compatible:
        raise InputError("inconsistent family: no compatible theory remains")
    D = u.full_mask
    for theory in compatible:
        D &= theory
    for s in members:
        if not s:
            continue
        disjuncts = 0
        i, m = 0, s
        while m:
            if m & 1:
                disjuncts |= lu.model_masks[i]
            i += 1
            m >>= 1
        if disjuncts not in lu._by_models:
            missing = fold_disjunction(lu, s)
            raise CapacityError(f"wff {missing} is not representable at depth {lu.depth}")
    return D


@dataclass(frozen=True)
class LindenbaumClass:
    """Semantic equivalence class of universe wffs, keyed by its truth table."""

    valuations: int  # model mask shared by the class
    representative: Wff
    members: tuple[Wff, ...]


def lindenbaum_quotient(lu: LogicUniverse) -> list[LindenbaumClass]:
    """Partition the universe by semantic equivalence, bottom class first.

    Meet, join and complement act on representatives through the truth
    tables; a missing table at this depth surfaces via wff_index.
    """
    groups: dict[int, list[Wff]] = {}
    for w, m in zip(lu.wffs, lu.model_masks):
        groups.setdefault(m, []).append(w)
    return [
        LindenbaumClass(m, ws[0], tuple(ws))
        for m, ws in sorted(groups.items())
    ]


def lindenbaum_class_of(classes: list[LindenbaumClass], valuations: int) -> LindenbaumClass:
    for c in classes:
        if c.valuations == valuations:
            return c
    raise CapacityError(f"no wff at this depth realizes truth table {valuations:#x}")
