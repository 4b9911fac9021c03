"""Command-line front end.

Exit codes: 0 for a clean verdict, 1 when the answer itself is negative
(incoherent, inconsistent, or a failed law check), 2 for input errors.
Output is deterministic for identical inputs and seed; `--format lines`
drops the human headers so reports diff cleanly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import events, gambles, lawcheck, logic, sds
from .core import (
    CapacityError,
    InconsistencyError,
    InputError,
    Universe,
    parse_universe,
)

DEFAULT_T_LIMIT = 12


class _Output:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def head(self, text: str):
        if self.fmt == "text":
            print(text)

    def line(self, text: str):
        print(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_universe(path: str) -> Universe:
    return parse_universe(_read(path))


def _t_limit(args) -> int:
    """Resolve the |T| bound: default, env override, --capacity; raising needs --force."""
    t_limit = DEFAULT_T_LIMIT
    env = os.environ.get("DESIRE_KERNEL_CAPACITY")
    for origin, value in (("DESIRE_KERNEL_CAPACITY", env), ("--capacity", args.capacity)):
        if not value:
            continue
        try:
            new_t = int(value)
        except ValueError:
            raise InputError(f"bad {origin} value {value!r}") from None
        if new_t > t_limit and not args.force:
            raise InputError(f"{origin} raises the capacity bound; pass --force to confirm")
        t_limit = new_t
    return t_limit


def _parse_set(u: Universe, spec: str) -> int:
    return u.mask_of([t for t in spec.replace(",", " ").split() if t])


# -- core commands -----------------------------------------------------

def cmd_closure(args, out: _Output) -> int:
    u = _load_universe(args.universe)
    mask = _parse_set(u, args.set)
    closed = u.closure(mask)
    out.line(u.format_set(closed))
    if not u.is_consistent_sdt(mask):
        out.line("INCONSISTENT")
        return 1
    return 0


def cmd_coherent(args, out: _Output) -> int:
    u = _load_universe(args.universe)
    mask = _parse_set(u, args.set)
    if u.is_coherent_sdt(mask):
        out.line("COHERENT")
        return 0
    if u.is_consistent_sdt(mask):
        out.line("CONSISTENT (not closed)")
        return 1
    out.line("INCONSISTENT")
    return 1


def cmd_enumerate(args, out: _Output) -> int:
    u = _load_universe(args.universe)
    for D in u.enumerate_coherent_sdts(limit=_t_limit(args)):
        out.line(u.format_set(D))
    return 0


# -- sds commands ------------------------------------------------------

def _load_sds(u: Universe, path: str):
    return sds.parse_sds(u, _read(path))


def cmd_sds_close(args, out: _Output) -> int:
    u = _load_universe(args.universe)
    W = _load_sds(u, args.sds)
    K = sds.conjunctive_closure(u, W)
    out.line(sds.format_sds(u, K))
    return 1 if sds.is_top(u, K) else 0


def cmd_sds_check(args, out: _Output) -> int:
    u = _load_universe(args.universe)
    K = _load_sds(u, args.sds)
    verdict = sds.check_sds_coherent(u, K)
    if verdict.ok:
        out.line("COHERENT")
        return 0
    out.line(f"INCOHERENT axiom={verdict.axiom} {verdict.detail}")
    return 1


def cmd_conjrep(args, out: _Output) -> int:
    u = _load_universe(args.universe)
    W = _load_sds(u, args.sds)
    e = events.event_of(u, W)
    out.head("event:")
    out.line(events.format_event(u, e))
    if e == 0:
        out.line("INCONSISTENT")
        return 1
    out.head("factors:")
    for D in events.event_members(u, e):
        out.line(u.format_set(D))
    return 0


# -- lawcheck ----------------------------------------------------------

def cmd_lawcheck(args, out: _Output) -> int:
    names = list(lawcheck.SUITES) if "all" in args.suite else args.suite
    results = lawcheck.run_suites(names, args.seed, args.budget, args.mutate)
    failed = 0
    for r in results:
        out.line(r.line())
        failed += not r.passed
    out.head(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# -- logic commands ----------------------------------------------------

def _logic_universe(args) -> logic.LogicUniverse:
    atoms = [a for a in args.atoms.replace(",", " ").split() if a]
    return logic.LogicUniverse(atoms, args.depth)


def cmd_logic_closure(args, out: _Output) -> int:
    lu = _logic_universe(args)
    premises = [logic.parse_wff(p) for p in args.premise]
    for w in lu.closure_wffs(premises):
        out.line(str(w))
    return 0


def cmd_logic_sdfs_close(args, out: _Output) -> int:
    lu = _logic_universe(args)
    members = []
    for spec in args.set:
        mask = 0
        for text in spec.split(","):
            mask |= 1 << lu.wff_index(logic.parse_wff(text))
        members.append(mask)
    D = logic.disjunction_sdt(lu, members)
    out.head("desirable on their own:")
    for i in range(lu.universe.size):
        if D >> i & 1:
            out.line(str(lu.wffs[i]))
    return 0


def cmd_logic_lindenbaum(args, out: _Output) -> int:
    lu = _logic_universe(args)
    for c in logic.lindenbaum_quotient(lu):
        bits = format(c.valuations, f"0{lu.valuation_count}b")
        out.line(f"{bits} {c.representative} size={len(c.members)}")
    return 0


# -- gambles commands --------------------------------------------------

def _named_gambles(args) -> dict[str, tuple]:
    table = gambles.parse_gamble_file(_read(args.gambles))
    if not table:
        raise InputError("no gambles defined")
    dims = {len(g) for g in table.values()}
    if len(dims) != 1:
        raise InputError("gambles disagree on the number of outcomes")
    return table


def _statement_set(args, table) -> gambles.GambleStatementSet:
    dim = len(next(iter(table.values())))
    if args.desirable:
        names = args.desirable.split(",")
        try:
            chosen = tuple(table[n] for n in names)
        except KeyError as exc:
            raise InputError(f"unknown gamble {exc.args[0]!r}") from None
    else:
        chosen = tuple(table.values())
    return gambles.GambleStatementSet(dim, chosen)


def cmd_gambles_natex(args, out: _Output) -> int:
    table = _named_gambles(args)
    if args.query not in table:
        raise InputError(f"unknown gamble {args.query!r}")
    D = _statement_set(args, {k: v for k, v in table.items() if k != args.query})
    inside = gambles.natural_extension_contains(D, table[args.query])
    out.line("IN" if inside else "OUT")
    return 0


def cmd_gambles_consistent(args, out: _Output) -> int:
    table = _named_gambles(args)
    D = _statement_set(args, table)
    if gambles.is_consistent_gambles(D):
        out.line("CONSISTENT")
        return 0
    out.line("INCONSISTENT")
    return 1


def cmd_gambles_choose(args, out: _Output) -> int:
    table = _named_gambles(args)
    dim = len(next(iter(table.values())))
    M = gambles.parse_credal_file(_read(args.credal), dim)
    names = {g: n for n, g in table.items()}
    for H in gambles.parse_option_sets(_read(args.options), table):
        admissible = set(gambles.e_admissible(M, H))
        for h in H:
            label = "ADMISSIBLE" if h in admissible else "REJECTED"
            out.line(f"{label} {names[h]}")
    return 0


# -- parser ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desire-kernel",
        description="coherence checking and conservative closure for desirable (sets of) things",
    )
    parser.add_argument("--format", choices=("text", "lines"), default="text")
    parser.add_argument("--force", action="store_true",
                        help="confirm capacity overrides above the defaults")
    parser.add_argument("--capacity", metavar="N",
                        help="|T| bound for enumeration")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("closure", help="close a set of things")
    p.add_argument("universe")
    p.add_argument("--set", required=True)
    p.set_defaults(run=cmd_closure)

    p = subs.add_parser("coherent", help="judge a set of things")
    p.add_argument("universe")
    p.add_argument("--set", required=True)
    p.set_defaults(run=cmd_coherent)

    p = subs.add_parser("enumerate", help="list every coherent set of things")
    p.add_argument("universe")
    p.set_defaults(run=cmd_enumerate)

    p = subs.add_parser("sds-close", help="close a set of desirable sets")
    p.add_argument("universe")
    p.add_argument("sds")
    p.add_argument("--method", choices=("fixpoint", "conjunctive"),
                   help="accepted for compatibility: both give the same closure")
    p.set_defaults(run=cmd_sds_close)

    p = subs.add_parser("sds-check", help="check an SDS for coherence")
    p.add_argument("universe")
    p.add_argument("sds")
    p.set_defaults(run=cmd_sds_check)

    p = subs.add_parser("conjrep", help="show the compatible models of an SDS")
    p.add_argument("universe")
    p.add_argument("sds")
    p.set_defaults(run=cmd_conjrep)

    p = subs.add_parser("lawcheck", help="run the property suites")
    p.add_argument("suite", nargs="+",
                   choices=sorted(lawcheck.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", choices=sorted(lawcheck.BUDGETS), default="default")
    p.add_argument("--mutate", default=None,
                   help="disable one coherence axiom (K1..K5) as a self-test")
    p.set_defaults(run=cmd_lawcheck)

    p_logic = subs.add_parser("logic", help="propositional-logic backend")
    logic_subs = p_logic.add_subparsers(dest="logic_command", required=True)

    p = logic_subs.add_parser("closure", help="deductive closure of premises")
    p.add_argument("--atoms", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--premise", action="append", default=[])
    p.set_defaults(run=cmd_logic_closure)

    p = logic_subs.add_parser("sdfs-close", help="close a family of wff sets")
    p.add_argument("--atoms", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--set", action="append", required=True,
                   help="comma-separated wffs forming one desirable set")
    p.set_defaults(run=cmd_logic_sdfs_close)

    p = logic_subs.add_parser("lindenbaum", help="semantic equivalence classes")
    p.add_argument("--atoms", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(run=cmd_logic_lindenbaum)

    p_g = subs.add_parser("gambles", help="desirable-gambles backend")
    g_subs = p_g.add_subparsers(dest="gambles_command", required=True)

    p = g_subs.add_parser("natex", help="natural-extension membership")
    p.add_argument("gambles")
    p.add_argument("--query", required=True)
    p.add_argument("--desirable", default=None)
    p.set_defaults(run=cmd_gambles_natex)

    p = g_subs.add_parser("consistent", help="consistency of gamble statements")
    p.add_argument("gambles")
    p.add_argument("--desirable", default=None)
    p.set_defaults(run=cmd_gambles_consistent)

    p = g_subs.add_parser("choose", help="E-admissible choice from option sets")
    p.add_argument("--gambles", required=True)
    p.add_argument("--credal", required=True)
    p.add_argument("--options", required=True)
    p.set_defaults(run=cmd_gambles_choose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.format)
    try:
        return args.run(args, out)
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
