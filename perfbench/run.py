"""desire-kernel benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload things --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its `src`.
The steady phase calls `desire_kernel.cli.main(argv)` in-process with
stdout and stderr captured, one operation after another, repeating the
workload's pass until --seconds of operation time have passed (and at
least three times), and checks every answer against the benchmark's own
reference.  With --trace 0 it then climbs the four |T| ladders and
prints the end-to-end metrics, its times scaled to the reference host by
HostSpeed; with --trace 1 it replays one pass under the span tracer and
prints the per-layer metrics.  The last line of stdout is
one JSON object; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import workloads
from gen import rng_for
from oracle import forward_closure
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_BATCH = 3  # launches before the steady phase and after the ladders; one after each pass
MIN_PASSES = 3
RUNG_TRIES = 2
TAIL_BEYOND = 10
MEDIAN_BAND, TAIL_BAND = 10, 5  # percentiles are means over p +- band percent of the ranked values
PROBES = 16  # host-speed probes per pass
# Time of one HostSpeed probe on the reference host
# (Intel Xeon, 2 vCPUs, Python 3.11, quiet).
REFERENCE_S = 0.0130


class RungTimeout(BaseException):
    """Raised by the interval timer when a ladder rung runs out of time."""


class Terminated(BaseException):
    """Raised on SIGTERM.  Not an Exception or SystemExit, so no operation
    swallows it; the run removes its work directory and exits."""


def _timeout(_signum, _frame):
    raise RungTimeout


def _terminate(_signum, _frame):
    raise Terminated


def load_program():
    """Import desire_kernel from this checkout's src, or exit without a result."""
    if not (SRC / "desire_kernel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'desire_kernel'}")
    sys.path.insert(0, str(SRC))
    import desire_kernel.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "desire_kernel":
        sys.exit(f"perfbench: desire_kernel imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(launches: int) -> list[float]:
    """Wall times from process start to `desire_kernel.cli` imported, of
    `launches` fresh interpreters one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(launches):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import desire_kernel.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def call(cli, argv):
    """One operation: (seconds inside main, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


def verdict(op, code, out, err):
    """None when the operation answered correctly, else the reason it failed."""
    if code not in (0, 1):
        return f"exit {code}: {err.strip()[:200]}"
    return op.check(code, out)


def run_ops(cli, ops, tracer=None):
    """Run ops in order; returns per-op seconds and failures."""
    times, failures = [], []
    for op in ops:
        dt, code, out, err = call(cli, op.argv)
        if tracer is not None:
            tracer.fold()
        times.append(dt)
        why = verdict(op, code, out, err)
        if why:
            failures.append((op, why))
    return times, failures


class Steady:
    """Whole passes over the pool, each in its own seeded order, until
    `seconds` of operation time have passed and at least MIN_PASSES
    passes have run.  Every op is thus timed once in each pass, seconds
    apart, and its latency is its fastest time over the passes: a slow
    spell of the host only ever adds time.  With a HostSpeed, its probe
    runs PROBES times in each pass, evenly spaced between the ops.
    `between()` runs after each pass, outside the timed region."""

    def __init__(self, cli, pool, seed, seconds, speed=None, between=None):
        self.pool = pool
        self.orders, self.times, self.answered, self.failures = [], [], [], []
        self.rss_mb = 0.0
        step = -(-len(pool) // PROBES)
        while sum(map(sum, self.times)) < seconds or len(self.times) < MIN_PASSES:
            order = list(range(len(pool)))
            rng_for(seed, "order", len(self.orders)).shuffle(order)
            ops = [pool[i] for i in order]
            times, failures, probes = [], [], []
            for k in range(0, len(ops), step):
                if speed is not None:
                    probes.append(speed.probe())
                t, f = run_ops(cli, ops[k:k + step])
                times += t
                failures += f
            if speed is not None:
                speed.passes.append(probes)
            self.orders.append(order)
            self.times.append(times)
            self.answered.append(len(order) - len(failures))
            self.failures += failures
            if len(self.orders) == 1:
                # ru_maxrss at the end of the first pass does not depend
                # on how many passes fit into the time.
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if between is not None:
                between()

    @property
    def attempted(self) -> int:
        return len(self.pool) * len(self.times)

    def latencies(self) -> list[float]:
        """Per op of the pool, its fastest time over the passes."""
        per_op = [[] for _ in self.pool]
        for order, times in zip(self.orders, self.times):
            for i, t in zip(order, times):
                per_op[i].append(t)
        return [min(ts) for ts in per_op]

    def throughput(self) -> float:
        """Ops answered per second by one pass run at each op's fastest time."""
        return min(self.answered) / sum(self.latencies())


class HostSpeed:
    """How fast the host runs plain Python during this run, against the
    reference host.  A shared host slows the CPU by up to half for
    seconds to minutes at a time, for every process alike, and a run
    cannot outlast such a spell.  So a fixed probe (the benchmark's own
    closure over a fixed 600-thing universe, no program code) is timed
    PROBES times in each pass, evenly spaced between the ops, and
    reduced the way the ops are: its fastest time over the passes at
    each place, then the median over the places.  Every end-to-end time
    is scaled by `factor`, the probe's time on the reference host over
    that figure.  A change in the program moves the scaled times as much
    as the raw ones; a change in the speed of the host moves the probe
    too, and cancels."""

    def __init__(self):
        rng = rng_for("host-speed")
        self.universe = gen.rule_universe(rng, 600, 3.0, 2, axioms=0, forbidden=0)
        self.masks = [gen.random_set(rng, 600, 2, 5) for _ in range(8)]
        self.passes: list[list[float]] = []  # probe times, per pass and place

    def probe(self) -> float:
        """One timed probe.  The collector is off while it runs: a
        collection would scan the objects the ops left behind, and the
        probe would time the workload's heap instead of the host."""
        u = self.universe
        gc.disable()
        try:
            t0 = perf_counter()
            for mask in self.masks:
                forward_closure(u.size, u.rules, mask)
            return perf_counter() - t0
        finally:
            gc.enable()

    def best(self) -> float:
        return statistics.median(map(min, zip(*self.passes)))

    @property
    def factor(self) -> float:
        return REFERENCE_S / self.best()


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return min(n, max(1, math.ceil(n * p / 100)))


def percentile(values, p: float) -> float:
    """Mean of the values ranked within p +- band percent: a percentile
    that does not jump when two neighbouring values trade places."""
    band = MEDIAN_BAND if p == 50.0 else TAIL_BAND
    ranked = sorted(values)
    n = len(ranked)
    return statistics.fmean(ranked[rank(n, p - band) - 1:rank(n, p + band)])


def tail(values):
    """p90 of the values, or p50 when fewer than TAIL_BEYOND lie beyond
    p90: (value, percentile, values beyond).  The values are one per op
    of the pool, so the percentile is fixed per workload."""
    n = len(values)
    pct = 90.0 if n - rank(n, 90.0) >= TAIL_BEYOND else 50.0
    return percentile(values, pct), pct, n - rank(n, pct)


def timed_call(cli, argv, limit):
    """`call` under a `limit`-second interval timer; None when over time."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        result = call(cli, argv)
    except RungTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return result if result[0] < limit else None


def climb(cli, rungs, limit):
    """Largest rung answering correctly within `limit` seconds, and why
    the climb stopped.  A rung over time is tried again, up to
    RUNG_TRIES times, so that one burst on the host does not lower the
    wall."""
    wall, reason, took = 0, "top reached", 0.0
    for rung in rungs:
        for _ in range(RUNG_TRIES):
            result = timed_call(cli, rung.argv, limit)
            if result is not None:
                break
        if result is None:
            reason = f"|T|={rung.size} over time ({limit:g} s, {RUNG_TRIES} tries)"
            break
        elapsed, code, out, err = result
        if code == 2:
            reason = f"|T|={rung.size} refused: {err.strip()}"
            break
        why = rung.check()(code, out) if code in (0, 1) else f"exit {code}: {err.strip()[:200]}"
        if why:
            reason = f"|T|={rung.size} wrong answer: {why}"
            break
        wall, took = rung.size, elapsed
    return wall, f"{reason}; |T|={wall} took {took:.2f} s" if wall else reason


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():  # not the commit of a repository that merely contains ROOT
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "desire_kernel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def mix_line(pool) -> str:
    counts: dict[str, int] = {}
    for op in pool:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return " | ".join(f"{k} {v}" for k, v in counts.items())


def kind_line(pool, latencies) -> str:
    """Median latency of each kind of operation, in ms."""
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(pool, latencies):
        by_kind.setdefault(op.kind, []).append(t)
    return " | ".join(f"{k} {statistics.median(v) * 1e3:.1f}" for k, v in by_kind.items())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, pool, args):
    measure_setup(1)  # the first launch may compile bytecode
    speed = HostSpeed()
    setup = measure_setup(SETUP_BATCH)
    run = Steady(cli, pool, args.seed, args.seconds, speed, lambda: setup.extend(measure_setup(1)))
    raw = run.latencies()
    print(f"steady: closed loop, 1 client, {len(run.times)} passes of {len(pool)} ops, "
          f"{sum(map(sum, run.times)):.3f} s inside cli.main; "
          f"pass times {' '.join(f'{sum(t):.2f}' for t in run.times)} s")
    print(f"raw, unscaled: ops_per_s {run.throughput():.4g}, op_p50_ms {percentile(raw, 50.0) * 1e3:.4g}, "
          f"op_tail_ms {tail(raw)[0] * 1e3:.4g}; median ms by kind: {kind_line(pool, raw)}")
    notes = {}
    walls, wrong = {}, 0
    files = workloads.Files(args.work / "ladder")
    for name in workloads.LADDER_SIZES:
        walls[name], reason = climb(cli, workloads.ladder(name, files), workloads.RUNG_LIMIT_S)
        wrong += "wrong answer" in reason
        notes[name] = f"stopped: {reason}"
    setup += measure_setup(SETUP_BATCH)
    k = speed.factor
    probes = [t for ts in speed.passes for t in ts]
    print(f"host speed: probe {speed.best() * 1e3:.3f} ms at best, mean of {len(probes)} probes "
          f"{statistics.fmean(probes) * 1e3:.3f} ms, {REFERENCE_S * 1e3:g} ms on the reference host; "
          f"times below are scaled by {k:.4f}")
    latencies = [t * k for t in raw]
    value, pct, beyond = tail(latencies)
    notes["op_tail_ms"] = f"p{pct:g} of {len(pool)} per-op minima, {beyond} beyond"
    notes["setup_s"] = f"median of {len(setup)} launches spread over the run, raw {statistics.median(setup):.4f} s"
    metrics = {
        "setup_s": metric(statistics.median(setup) * k, "s"),
        "ops_per_s": metric(run.throughput() / k, "1/s"),
        "op_p50_ms": metric(percentile(latencies, 50.0) * 1e3, "ms"),
        "op_tail_ms": metric(value * 1e3, "ms"),
        "peak_rss_mb": metric(run.rss_mb, "MB"),
    }
    metrics.update((name, metric(wall, "things")) for name, wall in walls.items())
    for name, m in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']} {m['unit']}{extra}")
    failures = run.failures
    print(f"failed_frac {len(failures) / run.attempted} ratio ({len(failures)}/{run.attempted})")
    for op, why in failures[:10]:
        print(f"FAILED {op.kind}: {' '.join(op.argv)[:160]}: {why}")
    return {"correct": not failures and not wrong, "attempted": run.attempted,
            "failed": len(failures), "metrics": metrics}


PER_LAYER_TIMES = (
    "core.operator", "core.closure", "core.enumerate", "core.parse_universe",
    "sds.sds_closure", "sds.production_step", "sds.check_sds_coherent",
    "sds.conjunctive_closure", "sds.format_sds",
    "events.coherent_sdts", "events.event_of", "events.build_event_lattice", "events.upset_in_C",
    "filters.LatticeFilter.validate", "filters.is_prime", "filters.filterize",
    "filters.desirify", "filters.prime_decomposition",
    "logic.LogicUniverse.init",
    "gambles.solve_lp", "gambles.e_admissible", "gambles.natural_extension_contains",
    "gambles.enumerate_vertices",
    "lawcheck.core", "lawcheck.sds", "lawcheck.filters", "lawcheck.logic", "lawcheck.gambles",
    "cli.main",
)
PER_LAYER_CALLS = (
    "core.operator", "core.closure", "sds.sds_closure", "sds.production_step",
    "sds.check_sds_coherent", "sds.conjunctive_closure", "events.event_of",
    "events.basic_event", "gambles.solve_lp",
)


def per_layer(cli, pool, args):
    """Untraced passes for half the time, then the last of them replayed
    once, in the same order, under the tracer.  One pass of a fixed pool
    makes every count and self time independent of how many passes fit
    into the time."""
    run = Steady(cli, pool, args.seed, args.seconds / 2)
    order, plain = run.orders[-1], run.times[-1]
    tracer = Tracer()
    tracer.install()
    try:
        traced, failures = run_ops(cli, [pool[i] for i in order], tracer)
    finally:
        tracer.uninstall()
    failures += run.failures
    gc.collect()
    t = tracer
    m = {}
    for name in PER_LAYER_TIMES:
        m[f"{name}.self_s"] = metric(t.self_s.get(name, 0.0), "s")
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = metric(t.calls.get(name, 0), "count")
    closure_calls = t.calls.get("core.closure", 0)
    solves = t.calls.get("gambles.solve_lp", 0)
    m["core.closure.miss_ratio"] = metric(
        t.calls.get("core.operator", 0) / closure_calls if closure_calls else 0.0, "ratio")
    m["core.enumerate.C_total"] = metric(t.counts["core.enumerate.C_total"], "count")
    m["sds.selection_maps.yielded"] = metric(t.counts["sds.selection_maps.yielded"], "count")
    m["sds.members_out"] = metric(t.counts["sds.members_out"], "count")
    m["logic.wffs_built"] = metric(t.counts["logic.wffs_built"], "count")
    m["logic.instances_alive"] = metric(t.instances_alive(), "count")
    m["gambles.solve_lp.infeasible_frac"] = metric(
        t.counts["gambles.solve_lp.infeasible"] / solves if solves else 0.0, "ratio")
    m["lawcheck.cases"] = metric(t.counts["lawcheck.cases"], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(t.layer_self(layer), "s")
        m[f"{layer}.refusals"] = metric(t.refusals[layer], "count")
    untraced_s, traced_s = sum(plain), sum(traced)
    m["trace.untraced_s"] = metric(untraced_s, "s")
    m["trace.traced_s"] = metric(traced_s, "s")
    m["trace.self_sum_s"] = metric(sum(t.self_s.values()), "s")
    m["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = metric((traced_s - untraced_s) / untraced_s, "ratio")
    print(f"traced: one pass of {len(pool)} ops after {len(run.times)} untraced, "
          f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"self times sum to {m['trace.self_sum_s']['value']:.3f} s")
    for name, v in m.items():
        print(f"{name} {v['value']} {v['unit']}")
    attempted = run.attempted + len(traced)
    print(f"failed_frac {len(failures) / attempted} ratio")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": m}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    signal.signal(signal.SIGTERM, _terminate)
    args.work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pool = workloads.WORKLOADS[args.workload](args.seed, workloads.Files(args.work / "inputs"))
        print("env " + json.dumps(environment()))
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print(f"mix per pass: {mix_line(pool)}")
        if args.trace:
            result = per_layer(cli, pool, args)
        else:
            result = end_to_end(cli, pool, args)
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            args.work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
