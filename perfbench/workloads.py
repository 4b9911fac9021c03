"""The four workloads and the |T| ladders, as CLI argument lists with
reference answers.

A workload is a pass: a fixed list of operations built from the run
seed.  The steady phase repeats the pass (each time in a fresh seeded
order), so the operation mix below is exact.  There is no recorded user
traffic; the mixes follow the README's command list and the sizes the
ROADMAP names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import gen
import oracle

Check = Callable[[int, str], "str | None"]  # (exit code, stdout) -> None if correct, else why


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    check: Check


def exact(code: int, out: str) -> Check:
    def check(got_code: int, got_out: str):
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if got_out != out:
            return f"stdout differs ({len(got_out)} chars, expected {len(out)})"
        return None
    return check


class Files:
    """Input files of one run, under its own work directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return str(path)


def braces(u: gen.RuleUniverse, mask: int) -> str:
    return "{" + " ".join(u.names(mask)) + "}"


# -- things: rule universes, closure and enumeration -------------------

CLOSURE_SIZES = (250, 500, 1000, 2000)
ENUMERATE_SIZES = (12, 13, 14, 15, 16)


def closure_op(u: gen.RuleUniverse, path: str, mask: int) -> Op:
    closed = u.closure(mask)
    out = braces(u, closed) + "\n"
    code = 0
    if closed & u.forbidden:
        out += "INCONSISTENT\n"
        code = 1
    return Op("closure", ["closure", path, "--set", gen.set_arg(u, mask)], exact(code, out))


def coherent_op(u: gen.RuleUniverse, path: str, mask: int) -> Op:
    closed = u.closure(mask)
    if closed == mask and not mask & u.forbidden:
        expected = exact(0, "COHERENT\n")
    elif not closed & u.forbidden:
        expected = exact(1, "CONSISTENT (not closed)\n")
    else:
        expected = exact(1, "INCONSISTENT\n")
    return Op("coherent", ["coherent", path, "--set", gen.set_arg(u, mask)], expected)


def enumerate_argv(u: gen.RuleUniverse, path: str) -> list[str]:
    return ["--capacity", str(u.size), "--force", "enumerate", path]


def enumerate_check(u: gen.RuleUniverse) -> Check:
    C = oracle.coherent_sets(u.size, u.rules, u.forbidden)
    return exact(0, "".join(braces(u, D) + "\n" for D in C))


def deep_set(rng, u: gen.RuleUniverse) -> int:
    """2-5 allowed things whose closure reaches at least half the universe."""
    while True:
        mask = gen.random_set(rng, u.size, 2, 5) & ~u.forbidden
        if mask and u.closure(mask).bit_count() * 2 >= u.size:
            return mask


def things_pass(seed: int, files: Files) -> list[Op]:
    rng = gen.rng_for(seed, "things")
    ops = []
    for size in CLOSURE_SIZES:
        for j in range(12):
            u = gen.rule_universe(rng, size, 3.0, 2, axioms=0, forbidden=2,
                                  derivable_forbidden=False)
            path = files.write(f"things-{size}-{j}.univ", u.text())
            ops.append(closure_op(u, path, deep_set(rng, u)))
            # COHERENT, CONSISTENT (not closed) and INCONSISTENT in turn.
            probe = deep_set(rng, u)
            if j % 3 == 0:
                probe = u.closure(probe)
            elif j % 3 == 2:
                probe |= u.forbidden & -u.forbidden
            ops.append(coherent_op(u, path, probe))
    for n in ENUMERATE_SIZES:
        for j in range(5):
            u = gen.rule_universe(rng, n, 1.0, 2)
            path = files.write(f"enumerate-{n}-{j}.univ", u.text())
            ops.append(Op("enumerate", enumerate_argv(u, path), enumerate_check(u)))
    return ops


# -- families: statement families, closure, checks, events -------------

def small_universe(rng, n: int) -> gen.RuleUniverse:
    return gen.rule_universe(rng, n, 1.0, 2, axioms=rng.randint(0, 1), forbidden=1)


def family_lines(u: gen.RuleUniverse, K) -> str:
    return "".join(" ".join(u.names(s)) + "\n" for s in K)


def sds_close_check(u: gen.RuleUniverse, W) -> Check:
    C = oracle.coherent_sets(u.size, u.rules, u.forbidden)
    K = oracle.family_closure(u.size, C, W)
    if K is None:
        return exact(1, "INCONSISTENT\n")
    return exact(0, family_lines(u, K))


def sds_check_check(u: gen.RuleUniverse, K) -> Check:
    C = oracle.coherent_sets(u.size, u.rules, u.forbidden)
    always = u.closure(0)
    axiom = oracle.first_violation(u.size, u.forbidden, always, C, K)
    if axiom is None:
        return exact(0, "COHERENT\n")

    def check(code: int, out: str):
        if code != 1 or not out.startswith(f"INCOHERENT axiom={axiom} ") or out.count("\n") != 1:
            return f"expected exit 1 and one INCOHERENT axiom={axiom} line, got exit {code}: {out[:80]!r}"
        return None
    return check


def conjrep_check(u: gen.RuleUniverse, W) -> Check:
    C = oracle.coherent_sets(u.size, u.rules, u.forbidden)
    models = oracle.compatible(C, W)
    out = "event:\n[" + " ".join(braces(u, D) for D in models) + "]\n"
    if not models:
        return exact(1, out + "INCONSISTENT\n")
    return exact(0, out + "factors:\n" + "".join(braces(u, D) + "\n" for D in models))


def stratified(count: int, draw, cost, oversample: int = 3) -> list:
    """`count` draws spread evenly over the cost distribution of
    count * oversample candidates: less seed-to-seed variance than
    `count` independent draws, the same distribution."""
    candidates = sorted((draw() for _ in range(count * oversample)), key=cost)
    return candidates[oversample // 2::oversample]


def bounded_family(rng, n: int, statements: int, members: range):
    """A universe, a consistent family W of `statements` sets, and W's
    closure K, drawn until |K| lies in `members`."""
    while True:
        u = small_universe(rng, n)
        W = gen.family(rng, n, statements, 1, min(3, n - 1))
        C = oracle.coherent_sets(n, u.rules, u.forbidden)
        K = oracle.family_closure(n, C, W)
        if K is not None and len(K) in members:
            return u, W, K


# Both the fixpoint closure and the K5 scan of sds-check visit 2^|K|
# subfamilies: at |T| = 4 a 15-member closure takes 13 s.  The steady mix
# draws families at |T| = 4 with 7 or 8 members in their closure, so every
# operation answers and the cost per slot varies little from seed to
# seed; the ladders measure the growth.
SMALL_CLOSURE = range(7, 9)
ANY_CLOSURE = range(1 << 13)


def families_pass(seed: int, files: Files) -> list[Op]:
    rng = gen.rng_for(seed, "families")
    ops = []

    def sds_file(tag, u, K):
        return files.write(f"{tag}-{len(ops)}.sds", gen.sds_text(u, K))

    def univ_file(tag, u):
        return files.write(f"{tag}-{len(ops)}.univ", u.text())

    # Instances are stratified on an oracle-side cost proxy: |K| for the
    # 2^|K| scans, |K| x |compatible models| for the conjunctive closure.
    fixpoint = []
    for _ in range(12):
        u = small_universe(rng, 3)
        fixpoint.append((u, gen.family(rng, 3, rng.randint(1, 3), 1, 2)))
    fixpoint += [(u, W) for u, W, _K in stratified(
        12, lambda: bounded_family(rng, 4, rng.randint(1, 2), SMALL_CLOSURE), lambda c: len(c[2]))]
    for u, W in fixpoint:
        argv = ["sds-close", univ_file("fix", u), sds_file("fix", u, W), "--method", "fixpoint"]
        ops.append(Op("sds-close fixpoint", argv, sds_close_check(u, W)))

    def conjunctive_cost(case):
        u, W, K = case
        models = oracle.compatible(oracle.coherent_sets(u.size, u.rules, u.forbidden), W)
        return len(K) * len(models)

    for n in range(8, 14):
        # Consistent families only: an inconsistent one answers at once.
        for u, W, _K in stratified(6, lambda: bounded_family(rng, n, 3, ANY_CLOSURE), conjunctive_cost):
            argv = ["sds-close", univ_file("conj", u), sds_file("conj", u, W), "--method", "conjunctive"]
            ops.append(Op("sds-close conjunctive", argv, sds_close_check(u, W)))
        for u, W, _K in stratified(6, lambda: bounded_family(rng, n, rng.randint(2, 3), ANY_CLOSURE),
                                   conjunctive_cost):
            argv = ["conjrep", univ_file("rep", u), sds_file("rep", u, W)]
            ops.append(Op("conjrep", argv, conjrep_check(u, W)))
    closed = [bounded_family(rng, 3, rng.randint(1, 2), ANY_CLOSURE) for _ in range(12)]
    closed += stratified(12, lambda: bounded_family(rng, 4, rng.randint(1, 2), SMALL_CLOSURE),
                         lambda c: len(c[2]))
    for u, _W, K in closed:
        argv = ["sds-check", univ_file("chk", u), sds_file("chk", u, K)]
        ops.append(Op("sds-check closed", argv, sds_check_check(u, K)))
    for j in range(24):
        n = 3 if j % 2 else 4
        if j < 12:
            u = small_universe(rng, n)
            K = gen.family(rng, n, rng.randint(2, 4), 1, n)
        else:
            u, _W, K = bounded_family(rng, n, rng.randint(1, 2),
                                      ANY_CLOSURE if n == 3 else SMALL_CLOSURE)
            # Without one minimal member K stays upward closed, so the
            # checker has to reach K3, K4 or the K5 scan to reject it.
            minimal = [s for s in K if not any(t != s and t & ~s == 0 for t in K)]
            dropped = rng.choice(minimal)
            K = [s for s in K if s != dropped]
        argv = ["sds-check", univ_file("bad", u), sds_file("bad", u, K)]
        ops.append(Op("sds-check incoherent", argv, sds_check_check(u, K)))
    return ops


# -- backends: propositional logic and desirable gambles ---------------

ATOMS = ("p", "q", "r")
DEPTH = 2
OUTCOMES = 10
OPTIONS = 8
CREDAL_CONSTRAINTS = 4


def logic_argv(command: str) -> list[str]:
    return ["logic", command, "--atoms", ",".join(ATOMS), "--depth", str(DEPTH)]


def lines(items) -> str:
    return "".join(f"{x}\n" for x in items)


def backends_pass(seed: int, files: Files) -> list[Op]:
    rng = gen.rng_for(seed, "backends")
    wffs = oracle.Wffs(ATOMS, DEPTH)
    texts = [t for t, _p, _tab in wffs.wffs]
    table = {t: tab for t, _p, tab in wffs.wffs}
    realised = set(table.values())
    ops = []

    def closure_case():
        premises = rng.sample(texts, rng.randint(1, 3))
        common = wffs.full
        for p in premises:
            common &= table[p]
        return premises, wffs.theory(common)

    # Both logic commands are stratified on the number of wffs printed,
    # which sets most of their cost.
    for premises, theory in stratified(14, closure_case, lambda case: len(case[1])):
        argv = logic_argv("closure") + [a for p in premises for a in ("--premise", p)]
        ops.append(Op("logic closure", argv, exact(0, lines(theory))))

    def sdfs_case():
        # Members whose disjunction has no wff at this depth are refused,
        # and an inconsistent family is an input error; draw until neither.
        while True:
            members = [rng.sample(texts, rng.randint(1, 2)) for _ in range(2)]
            unions = []
            for m in members:
                union = 0
                for t in m:
                    union |= table[t]
                unions.append(union)
            common = wffs.full
            for union in unions:
                common &= union
            if common and all(union in realised for union in unions):
                return members, wffs.theory(common)

    for members, theory in stratified(3, sdfs_case, lambda case: len(case[1])):
        argv = logic_argv("sdfs-close") + [a for m in members for a in ("--set", ",".join(m))]
        ops.append(Op("logic sdfs-close", argv, exact(0, "desirable on their own:\n" + lines(theory))))
    classes: dict[int, list[str]] = {}
    for t, _p, tab in wffs.wffs:
        classes.setdefault(tab, []).append(t)
    out = lines(f"{tab:0{wffs.valuations}b} {ts[0]} size={len(ts)}" for tab, ts in sorted(classes.items()))
    for _ in range(4):
        ops.append(Op("logic lindenbaum", logic_argv("lindenbaum"), exact(0, out)))

    # 100 ops, so p90 has ten beyond it.  By latency: natex and consistent
    # (~40 ms) hold p50, then lindenbaum, logic closure (~75 ms) holds
    # p85-p95, then the five dearest ops: sdfs-close (~200 ms) and
    # choose (~400 ms).
    for j in range(2):
        options = gen.distinct_gambles(rng, OUTCOMES, OPTIONS)
        named = {f"h{i}": g for i, g in enumerate(options)}
        constraints = gen.credal_constraints(rng, OUTCOMES, CREDAL_CONSTRAINTS)
        argv = ["gambles", "choose",
                "--gambles", files.write(f"choose-{j}.gmb", gen.gamble_text(named)),
                "--credal", files.write(f"choose-{j}.cred", gen.credal_text(constraints)),
                "--options", files.write(f"choose-{j}.opt", "set: " + " ".join(named) + "\n")]
        out = lines(
            f"{'ADMISSIBLE' if oracle.e_admissible(OUTCOMES, constraints, options, g) else 'REJECTED'} {n}"
            for n, g in named.items()
        )
        ops.append(Op("gambles choose", argv, exact(0, out)))
    for j in range(45):
        D = gen.distinct_gambles(rng, OUTCOMES, OPTIONS)
        if j % 2:
            query = gen.gamble(rng, OUTCOMES)
        else:  # inside by construction: a positive combination plus a positive gamble
            picked = rng.sample(D, 3)
            query = tuple(sum(g[x] for g in picked) + Fraction(1, 3) for x in range(OUTCOMES))
        named = {f"d{i}": g for i, g in enumerate(D)}
        named["q"] = query
        argv = ["gambles", "natex", files.write(f"natex-{j}.gmb", gen.gamble_text(named)), "--query", "q"]
        out = "IN\n" if oracle.in_natural_extension(D, query) else "OUT\n"
        ops.append(Op("gambles natex", argv, exact(0, out)))
    for j in range(32):
        D = gen.distinct_gambles(rng, OUTCOMES, OPTIONS)
        named = {f"d{i}": g for i, g in enumerate(D)}
        argv = ["gambles", "consistent", files.write(f"consistent-{j}.gmb", gen.gamble_text(named))]
        zero = tuple(Fraction(0) for _ in range(OUTCOMES))
        if oracle.in_natural_extension(D, zero):
            ops.append(Op("gambles consistent", argv, exact(1, "INCONSISTENT\n")))
        else:
            ops.append(Op("gambles consistent", argv, exact(0, "CONSISTENT\n")))
    return ops


# -- lawcheck: the property suites and the mutation self-tests ---------

# (suite, tiny runs, default runs) per pass.  With the five mutation
# runs that makes 31 runs in three tiers: twelve core runs under 0.1 s,
# nine of 0.1-0.15 s (logic tiny, --mutate K5) and ten of 0.2-0.6 s.
# p50 (the mean over p40-p60) lies inside the middle tier; at the edge
# of a tier it would jump between tiers from seed to seed.
LAWCHECK_MIX = (("core", 8, 4), ("sds", 1, 0), ("filters", 3, 0), ("logic", 8, 1), ("gambles", 1, 0))
MUTATIONS = ("K1", "K2", "K3", "K4", "K5")


def all_pass(code: int, out: str):
    rows = out.splitlines()
    checks = rows[:-1]
    if code != 0 or not checks or not all(r.startswith("PASS ") for r in checks):
        return f"exit {code}; a check did not pass: {next((r for r in checks if not r.startswith('PASS ')), out[:80])!r}"
    if rows[-1] != f"{len(checks)}/{len(checks)} checks passed":
        return f"bad summary line {rows[-1]!r}"
    return None


def trips(code: int, out: str):
    if code != 1 or not any(r.startswith("FAIL ") for r in out.splitlines()):
        return f"mutation did not trip: exit {code}"
    return None


def three_thing_universes(seed: int, count: int) -> int:
    """How many of the first `count` random universes a suite draws from
    `seed` have 3 things.  The sds and filters suites start by drawing
    their universes with `lawcheck.random_universe`, and this count sets
    most of their run time (0.5, 0.95 or 1.3 s for sds at tiny budget
    with 0, 1 or 2 of them).  Only used to pick seeds: if the suites
    draw differently, runs stay correct and merely vary more in cost."""
    from desire_kernel.lawcheck import random_universe

    rng = random.Random(seed)
    return sum(random_universe(rng, 3).size == 3 for _ in range(count))


# Random universes each suite draws first, per budget unit (see three_thing_universes).
SUITE_UNIVERSES = {"sds": 2, "filters": 1}


def lawcheck_pass(seed: int, files: Files) -> list[Op]:
    rng = gen.rng_for(seed, "lawcheck")

    from desire_kernel.lawcheck import BUDGETS

    def draw():
        return rng.randrange(10**6)

    def seeds(suite, budget, count):
        """Seeds for `count` runs.  For sds and filters, only seeds whose
        random universes all have at most two things: the run time then
        varies little from seed to seed, and the suite's fixed 3-thing
        universes are still checked in every run."""
        out = []
        while len(out) < count:
            s = draw()
            if suite not in SUITE_UNIVERSES or not three_thing_universes(
                    s, SUITE_UNIVERSES[suite] * BUDGETS[budget]):
                out.append(s)
        return out

    ops = []
    # The default budget runs only for the suites that take under 0.5 s
    # there; sds, filters and gambles at default (about 1.6, 1.1 and
    # 1.9 s) would double the pass of about 6 s.
    for suite, tiny, default in LAWCHECK_MIX:
        for budget, count in (("tiny", tiny), ("default", default)):
            for s in seeds(suite, budget, count) if count else []:
                argv = ["lawcheck", suite, "--seed", str(s), "--budget", budget]
                ops.append(Op(f"lawcheck {suite} {budget}", argv, all_pass))
    for axiom, s in zip(MUTATIONS, seeds("sds", "tiny", len(MUTATIONS))):
        argv = ["lawcheck", "sds", "--seed", str(s), "--budget", "tiny", "--mutate", axiom]
        ops.append(Op("lawcheck sds mutate", argv, trips))
    return ops


WORKLOADS: dict[str, Callable[[int, Files], list[Op]]] = {
    "things": things_pass,
    "families": families_pass,
    "backends": backends_pass,
    "lawcheck": lawcheck_pass,
}


# -- the |T| ladders ---------------------------------------------------

@dataclass(frozen=True)
class Rung:
    size: int
    argv: list[str]
    check: Callable[[], Check]  # built only once the rung has answered in time


def ladder(metric: str, files: Files) -> list[Rung]:
    """Fixed-seed rungs of growing |T|; the same in every run and workload."""
    rungs = []
    for n in LADDER_SIZES[metric]:
        rng = gen.rng_for("ladder", metric, n)
        if metric in ("wall_enumerate", "wall_conjrep"):
            u = gen.rule_universe(rng, n, 1.0, 2)
            path = files.write(f"ladder-{metric}-{n}.univ", u.text())
            if metric == "wall_enumerate":
                rungs.append(Rung(n, enumerate_argv(u, path), partial(enumerate_check, u)))
            else:
                W = gen.family(rng, n, 3, 1, 3)
                sds = files.write(f"ladder-{metric}-{n}.sds", gen.sds_text(u, W))
                rungs.append(Rung(n, ["conjrep", path, sds], partial(conjrep_check, u, W)))
            continue
        # The two-statement family {t0}, {t1 t2} over a universe without
        # rules: its closure has 2^(n-1) + 2^(n-3) members, 10 at |T| = 4
        # and 20 at |T| = 5.  sds-close (fixpoint) closes W; sds-check
        # checks the closure, where the K5 scan is the work.
        u = gen.RuleUniverse(tuple(f"t{i}" for i in range(n)), (), 0)
        W = frozenset({0b1, 0b110})
        path = files.write(f"ladder-{metric}-{n}.univ", u.text())
        if metric == "wall_sds_close":
            sds = files.write(f"ladder-{metric}-{n}.sds", gen.sds_text(u, W))
            argv = ["sds-close", path, sds, "--method", "fixpoint"]
            rungs.append(Rung(n, argv, partial(sds_close_check, u, W)))
        else:
            K = oracle.family_closure(n, oracle.coherent_sets(n, (), 0), W)
            sds = files.write(f"ladder-{metric}-{n}.sds", gen.sds_text(u, K))
            rungs.append(Rung(n, ["sds-check", path, sds], partial(sds_check_check, u, K)))
    return rungs


LADDER_SIZES = {
    "wall_enumerate": (10, 13, 16, 19, 22),
    "wall_sds_close": (3, 4, 5, 6),
    "wall_sds_check": (3, 4, 5, 6),
    "wall_conjrep": (10, 13, 16, 19, 22),
}
RUNG_LIMIT_S = 1.0
