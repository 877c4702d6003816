import math

import pytest

from dmmopt.cli import main
from dmmopt.dmm_space import kingsley_config, serialize_dmm
from dmmopt.trace import parse_trace

WORKLOAD = """
sizes = 40
events = 200
live_cap = 10
seed = 5
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "w.cfg").write_text(WORKLOAD)
    assert main(["synth", "--spec", str(tmp_path / "w.cfg"), "--out", str(tmp_path / "t.txt")]) == 0
    return tmp_path


def lines_of(path):
    return path.read_text().splitlines()


def test_synth_writes_a_parseable_trace(workdir):
    trace = parse_trace((workdir / "t.txt").read_text())
    assert len(trace) == 200
    assert trace.stats.distinct_sizes == (40,)


def test_synth_is_reproducible_from_flags(workdir):
    def data_lines(name):
        return [l for l in lines_of(workdir / name) if not l.startswith("#")]

    main(["synth", "--spec", str(workdir / "w.cfg"), "--out", str(workdir / "t2.txt")])
    assert data_lines("t2.txt") == data_lines("t.txt")
    main(["synth", "--spec", str(workdir / "w.cfg"), "--seed", "6", "--out", str(workdir / "t3.txt")])
    assert data_lines("t3.txt") != data_lines("t.txt")


def test_stats_reports_summary_with_invocation_echo(workdir, capsys):
    assert main(["stats", "--trace", str(workdir / "t.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# dmmopt stats")
    assert out[1] == "events,allocs,distinct_sizes,min_size,max_size,max_live_bytes"
    fields = out[2].split(",")
    assert fields[0] == "200" and fields[3] == "40"


def test_gen_grammar_then_optimize_then_compare(workdir, capsys):
    g = workdir / "g.bnf"
    log = workdir / "log.csv"
    best = workdir / "best.txt"
    assert main(["gen-grammar", "--trace", str(workdir / "t.txt"),
                 "--memory-size", "1048576", "--out", str(g)]) == 0
    assert "SizeSelector(40)" in g.read_text()

    assert main(["optimize", "--trace", str(workdir / "t.txt"), "--grammar", str(g),
                 "--generations", "3", "--pop", "8", "--seed", "1",
                 "--out", str(log), "--best-out", str(best)]) == 0
    rows = lines_of(log)
    assert rows[0].startswith("# dmmopt optimize")
    assert rows[1] == "generation,best_fitness,mean_fitness,best_adm_count,invalid_count"
    assert len(rows) == 2 + 4  # generations 0..3
    assert best.read_text().startswith("AtomicDMM(")

    assert main(["compare", "--trace", str(workdir / "t.txt"),
                 "--evolved", str(best), "--out", str(workdir / "cmp.csv")]) == 0
    rows = lines_of(workdir / "cmp.csv")
    assert rows[1].split(",")[0] == "dmm"
    assert rows[2].split(",")[0] == "kingsley"


def test_optimize_parallel_matches_sequential(workdir):
    args = ["--trace", str(workdir / "t.txt"), "--generations", "2", "--pop", "8",
            "--seed", "3"]
    assert main(["optimize", *args, "--out", str(workdir / "seq.csv")]) == 0
    assert main(["optimize", *args, "--workers", "2", "--out", str(workdir / "par.csv")]) == 0
    assert lines_of(workdir / "seq.csv")[1:] == lines_of(workdir / "par.csv")[1:]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--units", "4"], "--units needs --workers >= 1"),
        (["--workers", "2", "--units", "0"], "--units must be >= 1"),
        (["--workers", "-1"], "--workers must be >= 0"),
    ],
    ids=["units-without-workers", "units-below-1", "workers-below-0"],
)
def test_optimize_rejects_flags_without_effect(workdir, capsys, flags, message):
    code = main(["optimize", "--trace", str(workdir / "t.txt"), "--generations", "0",
                 "--pop", "4", *flags])
    assert code == 1
    assert message in capsys.readouterr().err


def test_compare_leaves_deltas_of_exhausted_managers_empty(workdir, capsys):
    starved = workdir / "starved.txt"
    starved.write_text(serialize_dmm(kingsley_config(heap_limit=64)))
    out = workdir / "cmp.csv"
    assert main(["compare", "--trace", str(workdir / "t.txt"),
                 "--evolved", str(starved), "--out", str(out)]) == 2
    assert "evolved" in capsys.readouterr().err
    header, *rows = lines_of(out)[1:]
    assert len(header.split(",")) == 12
    rows = {line.split(",")[0]: line.split(",") for line in rows}
    assert rows["evolved"][5] == "inf" and rows["evolved"][6:] == [""] * 6
    assert "" not in rows["kingsley"][9:] and "" not in rows["lea"][6:9]

    # the fitness normalizer is the Kingsley row, built at --memory-size: when it
    # starves there, no fitness can be normalized and compare reports nothing
    roomy = workdir / "roomy.txt"
    roomy.write_text(serialize_dmm(kingsley_config()))
    out.unlink()
    assert main(["compare", "--trace", str(workdir / "t.txt"), "--evolved", str(roomy),
                 "--memory-size", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kingsley" in err and "heap limit of 100 bytes" in err
    assert not out.exists()


def test_compare_kingsley_against_itself_has_zero_deltas(workdir):
    evolved = workdir / "kingsley.txt"
    evolved.write_text(serialize_dmm(kingsley_config()))
    out = workdir / "cmp.csv"
    assert main(["compare", "--trace", str(workdir / "t.txt"),
                 "--evolved", str(evolved), "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line.split(",") for line in lines_of(out)[2:]}
    assert rows["evolved"][6:9] == ["0.00", "0.00", "0.00"]  # deltas vs kingsley
    assert rows["kingsley"][6:9] == ["0.00", "0.00", "0.00"]


def test_compare_energy_column_is_accesses_times_constant(workdir):
    evolved = workdir / "kingsley.txt"
    evolved.write_text(serialize_dmm(kingsley_config()))
    out = workdir / "cmp.csv"
    epa = 2.5e-9
    assert main(["compare", "--trace", str(workdir / "t.txt"), "--evolved", str(evolved),
                 "--energy-per-access", str(epa), "--out", str(out)]) == 0
    for line in lines_of(out)[2:]:
        fields = line.split(",")
        assert math.isclose(float(fields[4]), int(fields[2]) * epa, rel_tol=1e-12)


def test_simulate_one_line_csv(workdir, capsys):
    dmm = workdir / "k.txt"
    dmm.write_text(serialize_dmm(kingsley_config()))
    assert main(["simulate", "--dmm", str(dmm), "--trace", str(workdir / "t.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "ex_time,mem_acc,peak_mem_used,energy,fitness"
    assert len(out) == 3
    assert float(out[2].split(",")[4]) == pytest.approx(1.0)  # kingsley vs its own normalizer


def test_missing_input_file_is_exit_code_1(tmp_path, capsys):
    assert main(["stats", "--trace", str(tmp_path / "missing.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_trace_is_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for text, line in [("1 F 0 0\n", 1), ("-1 A 8 0\n", 1), ("1 A 8 0\n1 F 999 0\n", 2)]:
        bad.write_text(text)
        assert main(["stats", "--trace", str(bad)]) == 1
        assert f"error: line {line}: " in capsys.readouterr().err
    spec = tmp_path / "w.cfg"
    for text, line in [("sizes = 8,x\nevents = 10\nlive_cap = 2\n", 1),
                       ("sizes = 8\nevents = 11\nlive_cap = 2\n", 2)]:
        spec.write_text(text)
        assert main(["synth", "--spec", str(spec)]) == 1
        assert f"error: line {line}: " in capsys.readouterr().err


def test_exhausted_fitness_baseline_is_exit_code_1(tmp_path, capsys):
    # the 1 GiB object overflows the baseline's default heap, whatever the DMM's own limit
    trace = tmp_path / "big.txt"
    trace.write_text(f"1 A {2**30} 0\n1 F 0 0\n")
    dmm = tmp_path / "k.txt"
    dmm.write_text(serialize_dmm(kingsley_config(heap_limit=2**33)))
    code = main(["simulate", "--dmm", str(dmm), "--trace", str(trace)])
    assert code == 1
    captured = capsys.readouterr()
    assert "kingsley" in captured.err and str(2**30) in captured.err
    assert captured.out == ""


def test_exhaustion_is_exit_code_2(workdir, capsys):
    dmm = workdir / "k.txt"
    dmm.write_text(serialize_dmm(kingsley_config(heap_limit=64)))
    code = main(["simulate", "--dmm", str(dmm), "--trace", str(workdir / "t.txt")])
    assert code == 2


def test_optimize_without_a_finite_fitness_reports_no_dmm(tmp_path, capsys):
    spec = tmp_path / "w.cfg"
    spec.write_text("sizes = 1000,2000\nevents = 100\nlive_cap = 10\nseed = 5\n")
    trace, grammar, best = tmp_path / "t.txt", tmp_path / "g.bnf", tmp_path / "best.dmm"
    assert main(["synth", "--spec", str(spec), "--out", str(trace)]) == 0
    # every candidate's backstop holds 100 bytes, so each one exhausts its heap
    assert main(["gen-grammar", "--trace", str(trace), "--memory-size", "100",
                 "--out", str(grammar)]) == 0
    capsys.readouterr()
    code = main(["optimize", "--trace", str(trace), "--grammar", str(grammar),
                 "--generations", "2", "--pop", "10", "--best-out", str(best)])
    assert code == 2
    captured = capsys.readouterr()
    assert "no valid DMM found" in captured.err
    assert "AtomicDMM" not in captured.out
    assert not best.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["stats"],
        ["simulate", "--dmm", "k.txt", "--trace", "t.txt", "--memory-size", "100"],
        ["optimize", "--trace", "t.txt", "--memory-size", "100"],
        ["gen-grammar", "--trace", "t.txt", "--energy-per-access", "1e-9"],
        ["optimize", "--trace", "t.txt", "--energy-per-access", "1e-9"],
    ],
    ids=["missing-trace", "simulate-memory-size", "optimize-memory-size",
         "gen-grammar-energy-per-access", "optimize-energy-per-access"],
)
def test_usage_errors_are_exit_code_1(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_is_exit_code_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--help"])
    assert exit_.value.code == 0
    assert "--energy-per-access" in capsys.readouterr().out


def test_simulate_weights_select_one_objective(workdir, capsys):
    dmm = workdir / "k.txt"
    dmm.write_text(serialize_dmm(kingsley_config()))
    assert main(["simulate", "--dmm", str(dmm), "--trace", str(workdir / "t.txt"),
                 "--weights", "1,0,0"]) == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert float(fields[4]) == 1.0  # kingsley's time over its own time


@pytest.mark.parametrize("weights", ["a,b,c", "1,2", "-1,1,1", "0,0,0", "nan,1,1"])
def test_bad_weights_are_exit_code_1_and_name_the_flag(workdir, capsys, weights):
    dmm = workdir / "k.txt"
    dmm.write_text(serialize_dmm(kingsley_config()))
    code = main(["simulate", "--dmm", str(dmm), "--trace", str(workdir / "t.txt"),
                 f"--weights={weights}"])
    assert code == 1
    assert "--weights" in capsys.readouterr().err
