"""End-to-end command-line behavior, exit codes, and file ingestion."""

import pytest

from desire_kernel.cli import main

U1 = "things: a b c\nrule: a b -> c\n"
U2 = "things: a b c\nforbidden: c\nrule: -> a\nrule: b -> c\n"
W_SINGLETONS = "assert-set: a\nassert-set: b\n"
GAMBLES = "gamble h: 1 0\ngamble g: 0 1\ngamble m: 3/5 3/5\n"
CREDAL = "constraint: 1 0 >= 3/10\nconstraint: 1 0 <= 7/10\n"
OPTIONS = "set: h g m\n"


@pytest.fixture
def u1_path(tmp_path):
    path = tmp_path / "U1.univ"
    path.write_text(U1)
    return str(path)


@pytest.fixture
def u2_path(tmp_path):
    path = tmp_path / "U2.univ"
    path.write_text(U2)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_closure_command(capsys, u1_path):
    code, out, _ = run(capsys, "closure", u1_path, "--set", "a,b")
    assert code == 0
    assert out == "{a b c}\n"


def test_closure_flags_inconsistency(capsys, u2_path):
    code, out, _ = run(capsys, "closure", u2_path, "--set", "b")
    assert code == 1
    assert out.splitlines() == ["{a b c}", "INCONSISTENT"]


def test_coherent_command_exit_codes(capsys, u1_path, u2_path):
    assert run(capsys, "coherent", u1_path, "--set", "a,c")[0] == 0
    code, out, _ = run(capsys, "coherent", u1_path, "--set", "a,b")
    assert code == 1 and out == "CONSISTENT (not closed)\n"
    code, out, _ = run(capsys, "coherent", u2_path, "--set", "b")
    assert code == 1 and out == "INCONSISTENT\n"


def test_enumerate_command(capsys, u2_path):
    code, out, _ = run(capsys, "enumerate", u2_path)
    assert code == 0 and out == "{a}\n"


def test_malformed_universe_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.univ"
    bad.write_text("things: a\nrule: a b\n")
    code, _, err = run(capsys, "closure", str(bad), "--set", "a")
    assert code == 2
    assert "line 2" in err


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "closure", str(tmp_path / "nope"), "--set", "a")
    assert code == 2 and "cannot read" in err


def test_sds_close_methods_agree(capsys, u1_path, tmp_path):
    w = tmp_path / "W.sds"
    w.write_text(W_SINGLETONS)
    outs = []
    for method in ("fixpoint", "conjunctive"):
        code, out, _ = run(capsys, "sds-close", u1_path, str(w), "--method", method)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "a b c" in outs[0]


def test_sds_close_answers_beyond_the_fixpoint_scan(capsys, tmp_path):
    # the closure of {t0}, {t1 t2} (the sets holding t0 or both t1 and
    # t2) has 2^4 + 2^2 = 20 members, too many for a fixpoint scan over
    # its 2^20 subfamilies
    u = tmp_path / "U5.univ"
    u.write_text("things: t0 t1 t2 t3 t4\n")
    w = tmp_path / "W.sds"
    w.write_text("assert-set: t0\nassert-set: t1 t2\n")
    code, out, _ = run(capsys, "sds-close", str(u), str(w), "--method", "fixpoint")
    names = ["t0", "t1", "t2", "t3", "t4"]
    expected = [
        " ".join(n for i, n in enumerate(names) if s >> i & 1)
        for s in range(32) if s & 0b1 or s & 0b110 == 0b110
    ]
    assert code == 0 and out.splitlines() == expected and len(expected) == 20


def test_sds_close_reports_inconsistency(capsys, u2_path, tmp_path):
    w = tmp_path / "W.sds"
    w.write_text("assert-set: b\n")
    code, out, _ = run(capsys, "sds-close", u2_path, str(w))
    assert code == 1 and out == "INCONSISTENT\n"


def test_sds_check_names_the_axiom(capsys, u1_path, tmp_path):
    w = tmp_path / "W.sds"
    w.write_text("assert-set: a b\n")
    code, out, _ = run(capsys, "sds-check", u1_path, str(w))
    assert code == 1
    assert out.startswith("INCOHERENT axiom=K2")


def test_sds_check_accepts_the_closure(capsys, u1_path, tmp_path):
    w = tmp_path / "W.sds"
    # all non-empty subsets: the closure of {{a}, {b}}
    lines = ["assert-set: " + " ".join(n) for n in
             (["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"])]
    w.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "sds-check", u1_path, str(w))
    assert code == 0 and out == "COHERENT\n"
    with pytest.raises(SystemExit) as exc:  # one checker: there is no --mode
        main(["sds-check", u1_path, str(w), "--mode", "full"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_conjrep_lists_event_and_factors(capsys, u1_path, tmp_path):
    w = tmp_path / "W.sds"
    w.write_text(W_SINGLETONS)
    code, out, _ = run(capsys, "conjrep", u1_path, str(w))
    assert code == 0
    assert out.splitlines() == ["event:", "[{a b c}]", "factors:", "{a b c}"]


def test_lines_format_drops_headers(capsys, u1_path, tmp_path):
    w = tmp_path / "W.sds"
    w.write_text(W_SINGLETONS)
    _, out, _ = run(capsys, "--format", "lines", "conjrep", u1_path, str(w))
    assert out.splitlines() == ["[{a b c}]", "{a b c}"]


def test_output_is_deterministic(capsys, u1_path, tmp_path):
    w = tmp_path / "W.sds"
    w.write_text(W_SINGLETONS)
    first = run(capsys, "conjrep", u1_path, str(w))
    second = run(capsys, "conjrep", u1_path, str(w))
    assert first == second


def test_lawcheck_passes_on_the_tiny_budget(capsys):
    code, out, _ = run(capsys, "lawcheck", "core", "--seed", "7", "--budget", "tiny")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_lawcheck_seed_determinism(capsys):
    a = run(capsys, "--format", "lines", "lawcheck", "sds", "--seed", "3", "--budget", "tiny")
    b = run(capsys, "--format", "lines", "lawcheck", "sds", "--seed", "3", "--budget", "tiny")
    assert a == b


def test_lawcheck_mutation_fails_with_a_counterexample(capsys):
    code, out, _ = run(
        capsys, "lawcheck", "sds", "--seed", "0", "--budget", "tiny",
        "--mutate", "K2",
    )
    assert code == 1
    assert any(line.startswith("FAIL") and "counterexample" in line
               for line in out.splitlines())


def test_lawcheck_rejects_unknown_names(capsys):
    assert run(capsys, "lawcheck", "sds", "--mutate", "K9")[0] == 2
    assert run(capsys, "lawcheck", "sds", "--mutate", "F1")[0] == 2
    with pytest.raises(SystemExit):  # argparse rejects unknown budgets
        main(["lawcheck", "sds", "--budget", "huge"])
    capsys.readouterr()


def test_capacity_overrides_need_force(capsys, u2_path, monkeypatch):
    code, _, err = run(capsys, "--capacity", "20", "enumerate", u2_path)
    assert code == 2 and "--force" in err
    assert run(capsys, "--force", "--capacity", "20", "enumerate", u2_path)[0] == 0
    monkeypatch.setenv("DESIRE_KERNEL_CAPACITY", "20")
    assert run(capsys, "enumerate", u2_path)[0] == 2
    assert run(capsys, "--force", "enumerate", u2_path)[0] == 0
    assert run(capsys, "--force", "--capacity", "20,20", "enumerate", u2_path)[0] == 2
    monkeypatch.setenv("DESIRE_KERNEL_CAPACITY", "lots")
    assert run(capsys, "--force", "enumerate", u2_path)[0] == 2


def test_lowering_capacity_needs_no_force(capsys, u2_path):
    assert run(capsys, "--capacity", "5", "enumerate", u2_path)[0] == 0


def test_logic_closure_command(capsys):
    code, out, _ = run(
        capsys, "logic", "closure", "--atoms", "p", "--depth", "1",
        "--premise", "p",
    )
    assert code == 0
    lines = out.splitlines()
    assert "p" in lines
    assert any(w in lines for w in ("p | ~p", "~p | p", "p -> p"))


def test_logic_sdfs_close_command(capsys):
    code, out, _ = run(
        capsys, "logic", "sdfs-close", "--atoms", "p,q", "--depth", "2",
        "--set", "p,q",
    )
    assert code == 0
    assert "p | q" in out.splitlines()
    assert "p & q" not in out.splitlines()


def test_logic_lindenbaum_command(capsys):
    code, out, _ = run(
        capsys, "--format", "lines", "logic", "lindenbaum",
        "--atoms", "p", "--depth", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("00")  # the contradictions come first


def test_gambles_commands(capsys, tmp_path):
    gpath = tmp_path / "g.gmb"
    gpath.write_text(GAMBLES)
    code, out, _ = run(capsys, "gambles", "natex", str(gpath), "--query", "m",
                       "--desirable", "h,g")
    assert code == 0 and out == "IN\n"  # m = 3/5 h + 3/5 g
    code, out, _ = run(capsys, "gambles", "natex", str(gpath), "--query", "h",
                       "--desirable", "g,m")
    assert code == 0 and out == "OUT\n"
    code, out, _ = run(capsys, "gambles", "consistent", str(gpath))
    assert code == 0 and out == "CONSISTENT\n"
    bad = tmp_path / "bad.gmb"
    bad.write_text("gamble h: 1 -1\ngamble g: -1 1\n")
    code, out, _ = run(capsys, "gambles", "consistent", str(bad))
    assert code == 1 and out == "INCONSISTENT\n"


def test_gambles_choose_command(capsys, tmp_path):
    gpath = tmp_path / "g.gmb"
    gpath.write_text(GAMBLES)
    cpath = tmp_path / "m.cred"
    cpath.write_text(CREDAL)
    opath = tmp_path / "h.opt"
    opath.write_text(OPTIONS)
    code, out, _ = run(
        capsys, "gambles", "choose", "--gambles", str(gpath),
        "--credal", str(cpath), "--options", str(opath),
    )
    assert code == 0
    assert out.splitlines() == ["ADMISSIBLE h", "ADMISSIBLE g", "ADMISSIBLE m"]


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
