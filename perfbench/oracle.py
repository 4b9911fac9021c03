"""Reference answers computed by the benchmark, independently of the program.

Rule closure is a counter-driven forward chaining (not the program's
re-sweep); coherent sets come from a bit-parallel scan over all 2^n
subsets; statement-family closure uses the representation "s is in the
closure iff s meets every coherent set compatible with W"; wffs are
regenerated with their truth tables; gamble questions are decided by an
exact rational feasibility LP.  Everything here runs outside the timed
region.
"""

from __future__ import annotations

from fractions import Fraction

# -- rule closure and coherent sets ------------------------------------


def forward_closure(n: int, rules, mask: int) -> int:
    """Least set containing mask closed under rules (premises mask, conclusion index)."""
    waiting = []
    by_premise: list[list[int]] = [[] for _ in range(n)]
    for r, (premises, _c) in enumerate(rules):
        missing = premises & ~mask
        waiting.append(missing.bit_count())
        while missing:
            low = missing & -missing
            by_premise[low.bit_length() - 1].append(r)
            missing ^= low
    closed = mask
    agenda = [c for r, (_p, c) in enumerate(rules) if waiting[r] == 0]
    while agenda:
        c = agenda.pop()
        if closed >> c & 1:
            continue
        closed |= 1 << c
        for r in by_premise[c]:
            waiting[r] -= 1
            if waiting[r] == 0:
                agenda.append(rules[r][1])
    return closed


def subset_bitsets(n: int) -> list[int]:
    """B[i] has bit m set iff subset m contains thing i (2^n-bit integers)."""
    size = 1 << n
    out = []
    for i in range(n):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        repunit = ((1 << size) - 1) // ((1 << period) - 1)
        out.append(block * repunit)
    return out


def set_bits(x: int) -> list[int]:
    """Positions of the one bits of x, ascending."""
    text = bin(x)[:1:-1]
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(i)
        i = text.find("1", i + 1)
    return out


def coherent_sets(n: int, rules, forbidden: int) -> list[int]:
    """Every closed subset avoiding the forbidden things, ascending."""
    B = subset_bitsets(n)
    everything = (1 << (1 << n)) - 1
    bad = 0
    for premises, conclusion in rules:
        hits = everything
        m = premises
        while m:
            low = m & -m
            hits &= B[low.bit_length() - 1]
            m ^= low
        bad |= hits & ~B[conclusion]
    for i in range(n):
        if forbidden >> i & 1:
            bad |= B[i]
    return set_bits(everything & ~bad)


def meets_all(n: int, sets) -> list[int]:
    """Every subset of the n things that meets each of the given sets, ascending."""
    B = subset_bitsets(n)
    keep = (1 << (1 << n)) - 1
    for D in minimal(sets):
        meets = 0
        m = D
        while m:
            low = m & -m
            meets |= B[low.bit_length() - 1]
            m ^= low
        keep &= meets
    return set_bits(keep)


def minimal(sets) -> list[int]:
    out: list[int] = []
    for s in sorted(set(sets), key=int.bit_count):
        if not any(m & ~s == 0 for m in out):
            out.append(s)
    return out


def compatible(C, W) -> list[int]:
    """The coherent sets that meet every statement of W."""
    return [D for D in C if all(s & D for s in W)]


def family_closure(n: int, C, W) -> list[int] | None:
    """The closed statement family generated by W; None when W is inconsistent."""
    models = compatible(C, W)
    if not models:
        return None
    return meets_all(n, models)


def first_violation(n: int, forbidden: int, always: int, C, K) -> str | None:
    """The first coherence axiom (in the checker's K1..K5 order) that K breaks."""
    members = set(K)
    if 0 in members:
        return "K1"
    for s in members:
        rest = ((1 << n) - 1) & ~s
        sub = rest
        while True:
            if s | sub not in members:
                return "K2"
            if sub == 0:
                break
            sub = (sub - 1) & rest
    if any(s & ~forbidden not in members for s in members):
        return "K3"
    if any(1 << i not in members for i in range(n) if always >> i & 1):
        return "K4"
    closed = family_closure(n, C, members)
    if closed is None or set(closed) != members:
        return "K5"
    return None


# -- propositional wffs ------------------------------------------------

class Wffs:
    """Every wff over the atoms up to the depth, in the program's order.

    Each wff is (text, precedence, truth table); valuation i gives atom k
    the value of bit k of i.  Printing follows the program's canonical
    form: left-associative binaries, parentheses where precedence needs them.
    """

    BINARY = (("&", 3, lambda a, b: a & b), ("|", 2, lambda a, b: a | b),
              ("->", 1, None))

    def __init__(self, atoms, depth: int):
        self.atoms = tuple(atoms)
        nv = 1 << len(self.atoms)
        full = (1 << nv) - 1
        self.valuations = nv
        level = [(a, 5, sum(1 << i for i in range(nv) if i >> k & 1))
                 for k, a in enumerate(self.atoms)]
        wffs = list(level)
        seen = {w[0] for w in wffs}
        for _ in range(depth):
            pool = list(wffs)
            for text, prec, table in pool:
                cand = ("~" + self._at(text, prec, 4), 4, full & ~table)
                if cand[0] not in seen:
                    seen.add(cand[0])
                    wffs.append(cand)
            for lt, lp, ltab in pool:
                for rt, rp, rtab in pool:
                    for op, prec, fn in self.BINARY:
                        text = f"{self._at(lt, lp, prec - 1)} {op} {self._at(rt, rp, prec)}"
                        if text in seen:
                            continue
                        seen.add(text)
                        table = fn(ltab, rtab) if fn else (full & ~ltab) | rtab
                        wffs.append((text, prec, table))
        self.wffs = wffs
        self.full = full

    @staticmethod
    def _at(text: str, prec: int, outer: int) -> str:
        return f"({text})" if prec <= 3 and prec <= outer else text

    def theory(self, valuations: int) -> list[str]:
        """Wffs true under every valuation of the set, in order."""
        return [t for t, _p, tab in self.wffs if valuations & ~tab == 0]


# -- exact linear feasibility ------------------------------------------

def feasible(A_eq=(), b_eq=(), A_ub=(), b_ub=()) -> bool:
    """Is {x >= 0 : A_eq x = b_eq, A_ub x <= b_ub} non-empty?  Exact rationals.

    Phase one of a dense simplex with Bland's rule: one slack per
    inequality, one artificial per row, minimise the artificials.
    """
    rows = [list(map(Fraction, a)) for a in A_eq] + [list(map(Fraction, a)) for a in A_ub]
    rhs = [Fraction(b) for b in b_eq] + [Fraction(b) for b in b_ub]
    if not rows:
        return True
    n = len(rows[0])
    m = len(rows)
    k = len(A_ub)
    width = n + k + m
    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        slack = [Fraction(0)] * k
        if i >= len(A_eq):
            slack[i - len(A_eq)] = Fraction(1)
        full = row + slack
        if b < 0:
            full = [-v for v in full]
            b = -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(full + art + [b])
    basis = [n + k + i for i in range(m)]
    # Objective: minimise the artificials, i.e. reduced costs -sum of rows.
    cost = [Fraction(0)] * (width + 1)
    for row in tab:
        for j in range(n + k):
            cost[j] -= row[j]
        cost[width] -= row[width]
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            break
        best = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                ratio = row[width] / row[enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break  # cannot happen: the phase-one objective is bounded below
        r = best[1]
        piv = tab[r][enter]
        tab[r] = [v / piv for v in tab[r]]
        for i, row in enumerate(tab):
            if i != r and row[enter]:
                f = row[enter]
                tab[i] = [v - f * p for v, p in zip(row, tab[r])]
        f = cost[enter]
        cost = [v - f * p for v, p in zip(cost, tab[r])]
        basis[r] = enter
    return cost[width] == 0


def e_admissible(dim: int, constraints, H, u) -> bool:
    """Some mass function of the credal set gives u the highest expectation in H."""
    A_eq = [[1] * dim]
    b_eq = [1]
    A_ub, b_ub = [], []
    for coeffs, rel, rhs in constraints:
        if rel == "=":
            A_eq.append(list(coeffs))
            b_eq.append(rhs)
        elif rel == "<=":
            A_ub.append(list(coeffs))
            b_ub.append(rhs)
        else:
            A_ub.append([-c for c in coeffs])
            b_ub.append(-rhs)
    for h in H:
        if h != u:
            A_ub.append([a - b for a, b in zip(h, u)])
            b_ub.append(0)
    return feasible(A_eq, b_eq, A_ub, b_ub)


def in_natural_extension(D, g) -> bool:
    """g = (non-negative combination of D) + (strictly positive gamble),
    or g is a non-trivial non-negative combination of D."""
    dim = len(g)
    k = len(D)
    # Strict part, homogenised: mu >= 0, w >= 0 with sum mu_i d_i - w g <= -1.
    A_ub = [[d[x] for d in D] + [-g[x]] for x in range(dim)]
    if feasible(A_ub=A_ub, b_ub=[-1] * dim):
        return True
    if not k:
        return False
    A_eq = [[d[x] for d in D] for x in range(dim)]
    b_eq = list(g)
    if not any(g):
        A_eq.append([1] * k)
        b_eq.append(1)
    return feasible(A_eq=A_eq, b_eq=b_eq)
