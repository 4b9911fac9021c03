"""Tiny-size self-test of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import oracle
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
cli = run.load_program()


def test_tail_is_p90_with_ten_beyond_else_p50():
    value, pct, beyond = run.tail([i / 1000 for i in range(30, 0, -1)])
    assert (pct, beyond) == (50.0, 15) and value == pytest.approx(0.015)  # ranks 12-18
    assert run.tail([i / 1000 for i in range(1, 100)])[1:] == (50.0, 49)
    value, pct, beyond = run.tail([i / 1000 for i in range(1, 101)])
    assert (pct, beyond) == (90.0, 10) and value == pytest.approx(0.09)  # ranks 85-95


def test_percentile_does_not_jump_across_a_gap_at_the_rank():
    low, high = [1.0] * 50 + [2.0] * 50, [1.0] * 49 + [2.0] * 51
    assert abs(run.percentile(low, 50.0) - run.percentile(high, 50.0)) <= 0.1


def test_latency_is_the_fastest_over_passes_and_ignores_slow_passes():
    ops = [workloads.Op("x", [], None) for _ in range(3)]
    steady = run.Steady.__new__(run.Steady)
    steady.pool, steady.failures = ops, []
    steady.orders = [[0, 1, 2], [2, 1, 0], [1, 0, 2]]
    steady.times = [[1.0, 2.0, 3.0], [30.0, 20.0, 10.0], [1.5, 0.5, 3.0]]
    steady.answered = [3, 3, 3]
    assert steady.latencies() == [0.5, 1.5, 3.0]
    assert steady.attempted == 9
    assert steady.throughput() == 3 / 5.0


def test_host_speed_is_the_median_over_places_of_the_fastest_probe():
    speed = run.HostSpeed()
    speed.passes = [[2.0, 4.0, 9.0], [3.0, 1.0, 5.0]]
    assert speed.best() == 2.0  # fastest per place 2, 1, 5
    assert speed.factor == run.REFERENCE_S / 2.0
    assert 0 < speed.probe() < 1.0


def test_references_agree_with_the_program_on_tiny_universes(tmp_path):
    files = workloads.Files(tmp_path)
    for seed in range(6):
        rng = gen.rng_for(seed, "selftest")
        u = workloads.small_universe(rng, 4)
        path = files.write(f"u{seed}.univ", u.text())
        op = workloads.Op("enumerate", workloads.enumerate_argv(u, path), workloads.enumerate_check(u))
        W = gen.family(rng, 4, 2, 1, 2)
        sds = files.write(f"w{seed}.sds", gen.sds_text(u, W))
        ops = [op, workloads.Op("conjrep", ["conjrep", path, sds], workloads.conjrep_check(u, W))]
        for method in ("fixpoint", "conjunctive"):
            argv = ["sds-close", path, sds, "--method", method]
            ops.append(workloads.Op("sds-close", argv, workloads.sds_close_check(u, W)))
        _times, failures = run.run_ops(cli, ops)
        assert failures == []


def test_checks_reject_wrong_answers():
    check = workloads.exact(0, "COHERENT\n")
    assert check(0, "COHERENT\n") is None
    assert check(1, "COHERENT\n") and check(0, "INCOHERENT\n")
    assert workloads.all_pass(0, "PASS a cases=3\n1/1 checks passed\n") is None
    assert workloads.all_pass(1, "FAIL a cases=3\n0/1 checks passed\n")
    assert workloads.trips(1, "FAIL a cases=1\n0/1 checks passed\n") is None
    assert workloads.trips(0, "PASS a cases=1\n1/1 checks passed\n")


def test_passes_are_seeded(tmp_path):
    a = workloads.families_pass(3, workloads.Files(tmp_path / "a"))
    b = workloads.families_pass(3, workloads.Files(tmp_path / "b"))
    c = workloads.families_pass(4, workloads.Files(tmp_path / "c"))
    texts = [sorted(p.read_text() for p in (tmp_path / d).iterdir()) for d in "abc"]
    assert [op.kind for op in a] == [op.kind for op in b]
    assert texts[0] == texts[1] != texts[2]


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    from desire_kernel import cli as cli_mod, events, filters, lawcheck
    originals = (filters.event_of, cli_mod.parse_universe, lawcheck.SUITES["sds"], cli_mod.main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert filters.event_of.__wrapped__ is events.event_of.__wrapped__
        assert cli_mod.parse_universe.__wrapped__ is originals[1]
        assert lawcheck.SUITES["sds"].__wrapped__ is originals[2]
        u = workloads.small_universe(gen.rng_for(0, "trace"), 5)
        path = str(tmp_path / "u.univ")
        Path(path).write_text(u.text())
        op = workloads.Op("enumerate", workloads.enumerate_argv(u, path), workloads.enumerate_check(u))
        times, failures = run.run_ops(cli, [op], tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    assert (filters.event_of, cli_mod.parse_universe, lawcheck.SUITES["sds"], cli_mod.main) == originals
    assert tracer.calls["cli.main"] == 1 and tracer.calls["core.operator"] >= 1
    assert abs(sum(tracer.self_s.values()) - tracer.root_s) < 1e-9
    assert tracer.root_s <= times[0]


def test_ladder_stops_at_the_time_limit(tmp_path):
    rungs = workloads.ladder("wall_enumerate", workloads.Files(tmp_path))
    wall, reason = run.climb(cli, rungs[:2] + rungs[3:4], 0.5)  # |T| = 10, 13, 19
    assert wall == 13 and reason.startswith("|T|=19 over time")
    wall, reason = run.climb(cli, workloads.ladder("wall_sds_check", workloads.Files(tmp_path)), 5.0)
    assert wall == 4 and "refused" in reason


def test_reference_lp_matches_a_known_cone():
    from fractions import Fraction as F
    D = [(F(1), F(-1)), (F(-1), F(2))]
    assert oracle.in_natural_extension(D, (F(0), F(1)))
    assert not oracle.in_natural_extension([(F(1), F(-2))], (F(-1), F(-1)))


def test_run_without_program_source_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_termination_stops_the_run_and_removes_its_inputs(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(HERE, checkout / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE.parent / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, str(checkout / HERE.name / "run.py"), "--workload", "things",
            "--seed", "1", "--seconds", "30", "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    while not (checkout / ".bench_work").exists():
        time.sleep(0.1)
    time.sleep(4)  # into the steady phase
    proc.terminate()
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 128 + signal.SIGTERM
    assert '"correct"' not in out
    assert not (checkout / ".bench_work").exists()


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tiny_args(tmp_path):
    import argparse
    return argparse.Namespace(seed=1, seconds=1e-9, work=tmp_path / "work")


def test_traced_run_reports_exactly_the_declared_per_layer_metrics(tmp_path):
    pool = workloads.families_pass(1, workloads.Files(tmp_path))[:3]
    result = run.per_layer(cli, pool, _tiny_args(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    m = result["metrics"]
    assert abs(m["trace.self_sum_s"]["value"] - m["trace.traced_s"]["value"]) < 0.01 * m["trace.traced_s"]["value"]


def test_untraced_run_reports_exactly_the_declared_end_to_end_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda launches: [0.1] * launches)
    monkeypatch.setattr(workloads, "LADDER_SIZES", {name: sizes[:1] for name, sizes in workloads.LADDER_SIZES.items()})
    pool = [op for op in workloads.things_pass(1, workloads.Files(tmp_path)) if op.kind != "enumerate"][:4]
    result = run.end_to_end(cli, pool, _tiny_args(tmp_path))
    assert result["correct"] and result["attempted"] == 4 * run.MIN_PASSES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
