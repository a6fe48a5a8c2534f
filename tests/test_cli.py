"""CLI: artifacts, exit codes, determinism, config handling."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import flexhedge
from flexhedge import hedging, opf
from flexhedge.cli import main
from flexhedge.hedging import run_hedge, sweep_pi_des
from flexhedge.model import Bus, LoadUtility, PriceCap, validate_market_data
from flexhedge.scenario import (
    LINE_LIMIT_CASES,
    ScenarioSpec,
    apply_line_limits,
    build_3bus_network,
    generate_scenario,
    load_scenario_file,
    write_scenario_file,
)

from test_hedging import count_calls, count_solves

ARTIFACTS = ["hedge_report.csv", "hedge_report.json", "dispatch_unconstrained.csv",
             "dispatch_hedged.csv", "trace.txt"]


def write_preset_file(path, seed=3, case="finite"):
    scenario = generate_scenario(ScenarioSpec(seed=seed, line_limit_case=case))
    with open(path, "w") as fobj:
        write_scenario_file(scenario.network, scenario.hours, fobj)


def test_import_loads_no_numpy():
    # numpy loads on a first solve, so a usage error or a validate stays fast
    code = "import sys, flexhedge, flexhedge.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(flexhedge.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_run_writes_all_artifacts(tmp_path):
    rc = main(["run", "--preset", "paper-3bus", "--case", "infinite",
               "--pi-des", "70", "--seed", "7", "--out", str(tmp_path / "out")])
    assert rc == 0
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists(), name
    doc = json.loads((tmp_path / "out" / "hedge_report.json").read_text())
    assert doc["totals"]["hours_active"] > 0


def test_run_finite_case_has_larger_revenue(tmp_path):
    main(["run", "--preset", "paper-3bus", "--case", "infinite", "--pi-des", "70",
          "--seed", "7", "--out", str(tmp_path / "a")])
    main(["run", "--preset", "paper-3bus", "--case", "finite", "--pi-des", "70",
          "--seed", "7", "--out", str(tmp_path / "b")])
    inf_doc = json.loads((tmp_path / "a" / "hedge_report.json").read_text())
    fin_doc = json.loads((tmp_path / "b" / "hedge_report.json").read_text())
    assert fin_doc["totals"]["total_revenue_eur"] > inf_doc["totals"]["total_revenue_eur"]


def test_run_formats_are_stripped_and_checked(tmp_path, capsys):
    args = ["run", "--preset", "paper-3bus", "--seed", "7"]
    assert main(args + ["--formats", "xml", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == "error: unknown format 'xml'; expected csv|json\n"
    assert main(args + ["--formats", "csv,", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == "error: unknown format ''; expected csv|json\n"
    # each unknown format is stated once, in the order given
    assert main(args + ["--formats", ",", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == "error: unknown format ''; expected csv|json\n"
    assert main(args + ["--formats", "xml,csv,xml,,", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err == ("error: unknown format 'xml'; expected csv|json\n"
                                       "error: unknown format ''; expected csv|json\n")
    assert not (tmp_path / "bad").exists()
    assert main(args + ["--formats", "csv, json", "--out", str(tmp_path / "out")]) == 0
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).exists(), name


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_run_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # a seed past either end of 0..2**64-1 would repeat another seed's scenario
    args = ["run", "--preset", "paper-3bus", f"--seed={seed}", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == \
        f"error: seed must be in 0..18446744073709551615, got {seed}\n"
    assert not (tmp_path / "out").exists()


def test_run_byte_identical_for_same_config(tmp_path):
    args = ["run", "--preset", "paper-3bus", "--case", "finite",
            "--pi-des", "70", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    for name in ARTIFACTS:
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second, name


def test_run_inactive_cap_leaves_dispatch_unchanged(tmp_path):
    rc = main(["run", "--preset", "paper-3bus", "--case", "infinite",
               "--pi-des", "1000000", "--seed", "7", "--out", str(tmp_path / "out")])
    assert rc == 0
    unc = (tmp_path / "out" / "dispatch_unconstrained.csv").read_text()
    hedged = (tmp_path / "out" / "dispatch_hedged.csv").read_text()
    assert unc == hedged
    with open(tmp_path / "out" / "hedge_report.csv") as fobj:
        rows = list(csv.DictReader(fobj))
    assert all(float(r["p_flexreq_mw"]) == 0.0 for r in rows)
    assert (tmp_path / "out" / "trace.txt").read_text().count("\n") == 1


def test_run_artifacts_round_trip_through_loaders(tmp_path):
    main(["run", "--preset", "paper-3bus", "--case", "finite", "--pi-des", "70",
          "--seed", "5", "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "dispatch_hedged.csv") as fobj:
        dispatch = list(csv.DictReader(fobj))
    assert {int(r["hour"]) for r in dispatch if r["kind"] == "bus"} == set(range(1, 25))
    with open(tmp_path / "out" / "hedge_report.csv") as fobj:
        hedge = list(csv.DictReader(fobj))
    assert [int(r["hour"]) for r in hedge] == list(range(1, 25))


def test_run_from_input_file(tmp_path):
    path = tmp_path / "scenario.txt"
    write_preset_file(path, seed=3, case="finite")
    rc = main(["run", "--input", str(path), "--pi-des", "70",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    direct = tmp_path / "direct"
    main(["run", "--preset", "paper-3bus", "--case", "finite", "--pi-des", "70",
          "--seed", "3", "--out", str(direct)])
    assert (direct / "hedge_report.csv").read_text() == \
        (tmp_path / "out" / "hedge_report.csv").read_text()


def test_run_requires_exactly_one_source(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    write_preset_file(path)
    rc = main(["run", "--preset", "paper-3bus", "--input", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err


def test_options_a_command_does_not_read_are_errors(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    write_preset_file(path)
    out = ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exit_:  # sweep has no --case
        main(["sweep", "--preset", "paper-3bus", "--pi", "70", "--case", "finite"] + out)
    assert exit_.value.code == 2 and "--case" in capsys.readouterr().err
    for flag in (["--case", "finite"], ["--seed", "7"]):
        assert main(["run", "--input", str(path)] + flag + out) == 1
        assert capsys.readouterr().err == \
            f"error: {flag[0]} applies only to --preset, not --input\n"
    config = tmp_path / "study.cfg"
    for section, key in [("sweep", "case"), ("sweep", "pi_des"), ("sweep", "formats"),
                         ("sweep", "allow_infeasible"), ("run", "pi"), ("run", "cases")]:
        caps = "pi = 70\n" if section == "sweep" else ""
        config.write_text(f"[{section}]\npreset = paper-3bus\n{caps}{key} = 70\n")
        assert main([section, "--config", str(config)] + out) == 1
        assert capsys.readouterr().err == f"error: config: unknown key {key!r} in [{section}]\n"
    assert not (tmp_path / "out").exists()


def test_run_infeasible_hours_exit_code(tmp_path, capsys):
    args = ["run", "--preset", "paper-3bus", "--case", "finite", "--pi-des", "70",
            "--seed", "7", "--line-limit", "1-3=0.05", "--line-limit", "2-3=0.05"]
    rc = main(args + ["--out", str(tmp_path / "strict")])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err
    rc = main(args + ["--allow-infeasible", "--out", str(tmp_path / "loose")])
    assert rc == 0


def test_totals_without_a_settled_hour_are_floats(tmp_path):
    # every hour is infeasible without flexibility, so none is settled
    limits = ["--preset", "paper-3bus", "--line-limit", "1-3=0.01", "--line-limit", "2-3=0.01"]
    assert main(["run", *limits, "--pi-des", "70", "--allow-infeasible",
                 "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "hedge_report.json").read_text())
    assert len(report["totals"]["excluded_hours"]) == 24
    assert repr(report["totals"]["total_revenue_eur"]) == "0.0"
    assert main(["sweep", *limits, "--pi", "60,70", "--out", str(tmp_path / "sweep")]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert rows == [f"{pi},{case},0.0,0.00" for case in ("infinite", "finite")
                    for pi in ("60.0", "70.0")]


def test_total_line_counts_only_the_hours_it_sums(tmp_path, capsys):
    # pass 2 buys flexibility in all 24 hours, but none is settled
    out = tmp_path / "run"
    assert main(["run", "--preset", "paper-3bus", "--pi-des", "70", "--line-limit", "1-3=0.01",
                 "--line-limit", "2-3=0.01", "--allow-infeasible", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"total revenue: 0.00 EUR over 0 active hours -> {out}\n"
    assert json.loads((out / "hedge_report.json").read_text())["totals"]["hours_active"] == 24


def test_run_prints_each_settlement_note_and_exits_0(tmp_path, capsys):
    # a note is information, never a reason to fail the run
    from test_mesh_oracle import seeded_mesh

    net, hours, _ = seeded_mesh(10, 1)
    path = tmp_path / "mesh10.txt"
    with open(path, "w") as fobj:
        write_scenario_file(net, hours, fobj)
    assert main(["run", "--input", str(path), "--bus", "10", "--pi-des", "59.48",
                 "--out", str(tmp_path / "out")]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("info: ")]
    assert len(notes) == 14
    assert notes[0] == ("info: hour 9: settlement 25.246426 EUR exceeds the "
                        "competing-supply ceiling 17.123084 EUR")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("item", ["1-x=3", "1-2", "2-3=x"])
def test_bad_line_limit_is_one_error_line(tmp_path, capsys, command, item):
    cap = ["--pi-des", "70"] if command == "run" else ["--pi", "70"]
    assert main([command, "--preset", "paper-3bus", *cap, "--line-limit", item,
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: bad --line-limit {item!r}; expected FROM-TO=MW\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_nan_cap_is_an_error(tmp_path, capsys):
    rc = main(["run", "--preset", "paper-3bus", "--pi-des", "nan",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "bus 3" in err
    assert "Traceback" not in err


def test_run_infinite_cap_is_an_error(tmp_path, capsys):
    rc = main(["run", "--preset", "paper-3bus", "--pi-des", "inf",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "bus 3" in err
    assert not (tmp_path / "out").exists()


def test_run_cap_at_unconstrained_bus_is_an_error(tmp_path, capsys):
    rc = main(["run", "--preset", "paper-3bus", "--bus", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bus 2" in err and "not price constrained" in err


def test_run_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEXHEDGE_OUT", str(tmp_path / "from-env"))
    rc = main(["run", "--preset", "paper-3bus", "--pi-des", "70", "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "from-env" / "hedge_report.csv").exists()


def test_run_with_config_file(tmp_path):
    config = tmp_path / "study.cfg"
    config.write_text(
        "[run]\n"
        "preset = paper-3bus\n"
        "case = finite\n"
        "pi_des = 70\n"
        "seed = 7\n"
        f"out = {tmp_path / 'cfg-out'}\n"
    )
    rc = main(["run", "--config", str(config)])
    assert rc == 0
    flags = tmp_path / "flag-out"
    main(["run", "--preset", "paper-3bus", "--case", "finite", "--pi-des", "70",
          "--seed", "7", "--out", str(flags)])
    assert (flags / "hedge_report.csv").read_text() == \
        (tmp_path / "cfg-out" / "hedge_report.csv").read_text()


def test_an_explicit_zero_wins_over_the_config_file(tmp_path, capsys):
    # 0 == False, yet --seed 0 and --bus 0 are set, so the config's seed and bus
    # must not replace them
    config = tmp_path / "study.cfg"
    config.write_text("[run]\nseed = 7\nbus = 3\n")
    reports = {}
    for name, flags in (("zero", ["--seed", "0", "--config", str(config)]),
                        ("plain", ["--seed", "0"]), ("seven", ["--seed", "7"])):
        assert main(["run", "--preset", "paper-3bus", "--out", str(tmp_path / name)] + flags) == 0
        reports[name] = (tmp_path / name / "hedge_report.csv").read_text()
    assert reports["zero"] == reports["plain"] != reports["seven"]
    capsys.readouterr()
    rc = main(["run", "--preset", "paper-3bus", "--bus", "0", "--config", str(config),
               "--out", str(tmp_path / "bus0")])
    assert rc == 1
    assert capsys.readouterr().err == "error: price cap references unknown bus 0\n"


def test_sweep_table(tmp_path, capsys):
    rc = main(["sweep", "--preset", "paper-3bus", "--pi", "68,70,72",
               "--cases", "infinite,finite", "--seed", "7",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "pi_des_eur_mwh,scenario,total_revenue_eur,total_revenue_display"
    assert len(lines) == 7  # header + 3 caps x 2 cases
    assert capsys.readouterr().err == ""


def test_sweep_prints_each_cap_as_sweep_csv_writes_it(tmp_path, capsys):
    # two caps one ulp apart, and a cap with more digits than %g keeps
    close = math.nextafter(70.5, math.inf)
    rc = main(["sweep", "--preset", "paper-3bus", "--pi", f"70.5,{close!r},123456789",
               "--cases", "infinite", "--seed", "7", "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "out" / "sweep.csv").open()))[1:]
    assert [row[0] for row in rows] == ["70.5", "70.50000000000001", "123456789.0"]
    assert capsys.readouterr().out.splitlines() == [
        f"pi_des={cap} case={case} revenue={display} EUR" for cap, case, _, display in rows]


def test_sweep_prints_each_monotonicity_warning_and_exits_0(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hedging, "_sweep_totals", lambda hours, bus, caps: [1.5, 2.5])
    rc = main(["sweep", "--preset", "paper-3bus", "--pi", "60,70", "--cases", "infinite",
               "--seed", "7", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ("warning: scenario 'infinite': revenue rose from 1.5 "
                                       "to 2.5 as the cap increased to 70.0\n")


@pytest.mark.parametrize("line", ["2-3", "3-2"])
def test_sweep_applies_line_limit_after_each_case(tmp_path, line):
    rc = main(["sweep", "--preset", "paper-3bus", "--seed", "7", "--pi", "70",
               "--cases", "infinite,finite", "--line-limit", f"{line}=0.3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    hours = generate_scenario(ScenarioSpec(seed=7)).hours
    for row, case in zip(rows, ["infinite", "finite"]):
        net = apply_line_limits(build_3bus_network(case), {(2, 3): 0.3})
        total = run_hedge(net, hours, PriceCap(3, 70.0)).report.total_revenue_eur
        assert row == f"70.0,{case},{total!r},48.73"


def test_sweep_empty_pi_is_usage_error(tmp_path, capsys):
    config = tmp_path / "study.cfg"
    config.write_text("[sweep]\npi = 70\ncases = ,\n")
    for flags, flag in (([], "--pi"), (["--pi", "70", "--cases", ","], "--cases"),
                        (["--config", str(config)], "--cases")):
        rc = main(["sweep", "--preset", "paper-3bus", *flags, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {flag} requires at least one value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_non_number_pi_names_the_flag(tmp_path, capsys):
    rc = main(["sweep", "--preset", "paper-3bus", "--pi", "60,abc",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: bad --pi value 'abc'\n"


def test_sweep_unknown_case(tmp_path, capsys):
    rc = main(["sweep", "--preset", "paper-3bus", "--pi", "70", "--cases", "weird",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown case" in capsys.readouterr().err


def test_validate_clean_file(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    write_preset_file(path)
    rc = main(["validate", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_negative_reactance(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(
        "[buses]\n1 slack\n2 -\n3 k\n"
        "[lines]\n1 2 -0.1 1.0\n1 3 0.1 1.0\n2 3 0.1 1.0\n"
        "[offers]\n1 1 50.0 0.0 5.0\n"
        "[utilities]\n1 3 60.0 0.0 0.1 0.5\n"
    )
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "error: line 1-2: reactance_pu must be > 0" in capsys.readouterr().err


def test_validate_inverted_load_bounds(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(
        "[buses]\n1 slack\n2 -\n3 k\n"
        "[lines]\n1 2 0.1 1.0\n1 3 0.1 1.0\n2 3 0.1 1.0\n"
        "[offers]\n1 1 50.0 0.0 5.0\n"
        "[utilities]\n1 3 60.0 0.0 0.9 0.1\n"
    )
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "error: hour 1: load bounds" in capsys.readouterr().err


def test_validate_unparsable_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("[buses]\n1 slack extra-field\n")
    rc = main(["validate", str(path)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def rewrite_field(path, section, row, field, token):
    """Replace one field of the ``row``-th data row of a section; returns its
    line number (each section header is followed by one comment line)."""
    rows = path.read_text().splitlines()
    lineno = rows.index(section) + 3 + row
    fields = rows[lineno - 1].split()
    fields[field] = token
    rows[lineno - 1] = " ".join(fields)
    path.write_text("\n".join(rows) + "\n")
    return lineno


@pytest.mark.parametrize("section, field", [
    ("[buses]", 0), ("[lines]", 1), ("[offers]", 0), ("[utilities]", 1)])
def test_non_integer_field_names_its_line(tmp_path, capsys, section, field):
    path = tmp_path / "bad.txt"
    write_preset_file(path)
    lineno = rewrite_field(path, section, 0, field, "x")
    expected = f"error: line {lineno}: not an integer: 'x'\n"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == expected
    assert main(["run", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == expected


def test_non_finite_cost_is_a_violation(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_preset_file(path)
    rewrite_field(path, "[offers]", 1, 2, "nan")  # hour 1, bus 2
    problem = "hour 1: offer at bus 2 has non-finite marginal cost"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n1 violation(s)\n"
    assert main(["run", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"


@pytest.mark.parametrize("text, problem", [
    ("[run]\nbus = x\n", "config: bad value 'x' for 'bus' in [run]"),
    ("bus = 3\n", "config line 1: expected 'key = value' inside a section"),
    ("[run]\nfoo = 1\n", "config: unknown key 'foo' in [run]"),
    ("[run]\nformats = csv,xml\n", "unknown format 'xml'; expected csv|json"),
    # a form feed ends no line, as in a scenario file
    ("[run]\nseed = 7\x0cbus = 3\n", "config: bad value '7\\x0cbus = 3' for 'seed' in [run]"),
])
def test_bad_config_is_an_error_line(tmp_path, capsys, text, problem):
    config = tmp_path / "c.cfg"
    config.write_text(text)
    rc = main(["run", "--preset", "paper-3bus", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {problem}\n"


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    rc = main(["run", "--preset", "paper-3bus", "--config", str(missing),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1


def test_unbounded_hour_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "unbounded.txt"
    write_preset_file(path, case="infinite")
    rewrite_field(path, "[offers]", 0, 2, "40")  # hour 1, bus 1: unlimited at 40
    rewrite_field(path, "[offers]", 0, 4, "inf")
    rewrite_field(path, "[utilities]", 0, 2, "90")  # hour 1: unlimited load at 90
    rewrite_field(path, "[utilities]", 0, 5, "inf")
    problem = "hour 1: utility at bus 3 has non-finite max load"  # the cause of the unbounded hour
    for argv in (["run", "--input", str(path)], ["sweep", "--input", str(path), "--pi", "70"]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "out").exists()
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {problem}\n1 violation(s)\n"


def test_sweep_lists_each_problem_before_solving(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_preset_file(path)
    rewrite_field(path, "[lines]", 0, 2, "-0.1")
    rc = main(["sweep", "--input", str(path), "--pi=-1,70,-2", "--cases", "finite,weird",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: unknown case 'weird'; expected infinite|finite\n"
        "error: line 1-2: reactance_pu must be > 0, got -0.1\n"
        "error: price cap at bus 3: negative cap value\n")
    assert not (tmp_path / "out").exists()


def test_sweep_input_lists_the_hours_and_each_cases_problems(tmp_path, capsys):
    # the study checks the hours and then each case's network: the default
    # finite case limits line 2-3, which this file does not have
    scenario = generate_scenario(ScenarioSpec(seed=1))
    net = replace(scenario.network, lines=scenario.network.lines[:2])  # lines 1-2 and 1-3
    hours = [replace(data, utilities=[replace(u, p_min_mw=2.0, p_max_mw=1.0)
                                      for u in data.utilities]) if data.hour == 3 else data
             for data in scenario.hours]
    path, out = tmp_path / "no-line-2-3.txt", tmp_path / "out"
    with open(path, "w") as fobj:
        write_scenario_file(net, hours, fobj)
    assert main(["sweep", "--input", str(path), "--pi", "70", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: hour 3: load bounds at bus 3 must satisfy 0 <= min <= max, got [2.0, 1.0]\n"
        "error: scenario 'finite': overrides reference unknown lines: [(2, 3)]\n")
    assert not out.exists()


def test_a_flag_problem_alone_is_its_one_line_before_any_solve(monkeypatch, tmp_path, capsys):
    solved = count_solves(monkeypatch)
    out = tmp_path / "out"
    for argv, problem in [
        (["run", "--formats", "xml"], "unknown format 'xml'; expected csv|json"),
        (["sweep", "--pi", "70", "--cases", "weird"],
         "unknown case 'weird'; expected infinite|finite"),
    ]:
        assert main(argv + ["--preset", "paper-3bus", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
    assert solved == [] and not out.exists()


def test_run_and_sweep_check_each_hour_once(monkeypatch, tmp_path):
    # the study's own check is the only one: the CLI does not check first
    validated = count_calls(monkeypatch, validate_market_data, opf)
    for argv in (["run", "--pi-des", "70"], ["sweep", "--pi", "60,70,80"]):
        validated.clear()
        assert main(argv + ["--preset", "paper-3bus", "--seed", "1",
                            "--out", str(tmp_path / argv[0])]) == 0
        assert len(validated) == 24


def test_duality_demo_states_each_problem_on_its_own_line(capsys):
    assert main(["duality-demo", "--gen-cost", "inf", "--utility", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: hour 1: offer at bus 1 has non-finite marginal cost\n"
        "error: hour 1: utility at bus 1 has non-finite marginal utility\n")


@pytest.mark.parametrize("flag, problem", [
    ("--cap", "price cap at bus 1: non-finite cap value"),
    ("--utility", "hour 1: utility at bus 1 has non-finite marginal utility"),
    ("--gen-cost", "hour 1: offer at bus 1 has non-finite marginal cost"),
], ids=["--cap", "--utility", "--gen-cost"])
def test_duality_demo_non_finite_input_is_an_error(capsys, flag, problem):
    assert main(["duality-demo", flag, "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {problem}\n" and captured.out == ""


def test_duality_demo(capsys):
    rc = main(["duality-demo", "--gen-cost", "80", "--utility", "90",
               "--load-min", "1", "--load-max", "1", "--cap", "70"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flex primal objective" in out
    assert "p_flexreq=1.0" in out


DEGENERATE_NOTE = "note: degenerate optimum; prices are one valid choice among several"


@pytest.mark.parametrize("flags, status, lines", [
    ("--gen-capacity 0.5 --gen-cost 80 --utility 75 --load-min 1 --load-max 1", 1,
     "error: unconstrained dispatch is infeasible"),
    ("--gen-cost 50 --utility 90 --load-min 0.2 --load-max 1 --cap 50", 0, DEGENERATE_NOTE),
    # cost 80, utility 75, load 0-1: no trade, and every price in [75, 80] is
    # optimal; the price is the one the solve's start reaches
    ("", 0, "price: lmp=80.0 EUR/MWh  (unconstrained 80.0)\n" + DEGENERATE_NOTE),
], ids=["infeasible", "cap-equals-price", "default"])
def test_duality_demo_states_an_infeasible_or_degenerate_dispatch(capsys, flags, status, lines):
    assert main(["duality-demo", *flags.split()]) == status
    captured = capsys.readouterr()
    if status:
        assert (captured.out, captured.err) == ("", lines + "\n")
    else:
        assert captured.out.endswith("\n" + lines + "\n") and captured.err == ""


def test_pi_des_24_vector(tmp_path):
    values = ",".join(["70"] * 24)
    rc = main(["run", "--preset", "paper-3bus", "--pi-des", values, "--seed", "7",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "hedge_report.json").read_text())
    assert doc["pi_des_eur_mwh"] == [70.0] * 24


def test_pi_des_non_number_names_the_flag(tmp_path, capsys):
    rc = main(["run", "--preset", "paper-3bus", "--pi-des", "abc",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: bad --pi-des value 'abc'\n"
    assert not (tmp_path / "out").exists()


def test_pi_des_wrong_vector_length(tmp_path, capsys):
    rc = main(["run", "--preset", "paper-3bus", "--pi-des", "70,71,72",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "1 or 24 values" in capsys.readouterr().err


def test_overflowing_susceptance_is_a_violation(tmp_path, capsys):
    # 1 / 5e-324 is inf: the solver used to stop with a traceback
    path = tmp_path / "bad.txt"
    write_preset_file(path)
    rewrite_field(path, "[lines]", 1, 2, "5e-324")
    problem = "line 1-3: reactance_pu 5e-324 is so small that its susceptance overflows"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n1 violation(s)\n"
    assert main(["run", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"


def test_overflowing_susceptance_sum_is_a_violation(tmp_path, capsys):
    # 1 / 1e-308 is finite, but bus 1's two lines sum past the largest float:
    # validate said ok while run stopped inside the solve
    path = tmp_path / "bad.txt"
    write_preset_file(path)
    for row in (0, 1):  # lines 1-2 and 1-3
        rewrite_field(path, "[lines]", row, 2, "1e-308")
    problem = "bus 1: its lines' susceptances sum past the largest float"
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n1 violation(s)\n"
    assert main(["run", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {problem}\n"


def test_infinite_reactance_is_a_violation(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    write_preset_file(path)
    rewrite_field(path, "[lines]", 1, 2, "inf")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: line 1-3: reactance_pu must be finite, got inf\n1 violation(s)\n"


def write_overflow_file(path, cost):
    """paper-3bus seed 1 with unlimited lines, every offer at ``cost`` EUR/MWh
    without a capacity limit, and a firm load of 1e8 MW."""
    scenario = generate_scenario(ScenarioSpec(seed=1))
    net = replace(scenario.network, lines=[replace(line, flow_limit_mw=math.inf)
                                           for line in scenario.network.lines])
    hours = [replace(data, offers=[replace(o, marginal_cost=cost, capacity_mw=math.inf)
                                   for o in data.offers],
                     utilities=[replace(u, p_min_mw=1e8, p_max_mw=1e8) for u in data.utilities])
             for data in scenario.hours]
    with open(path, "w") as fobj:
        write_scenario_file(net, hours, fobj)


def test_overflowing_revenue_is_an_error_line(tmp_path, capsys):
    # each hour settles near 1e308 EUR, finite, but 24 of them sum to inf:
    # run used to write three artifacts and stop in format_eur(inf)
    path, out = tmp_path / "big.txt", tmp_path / "out"
    write_overflow_file(path, 1e300)
    assert main(["run", "--input", str(path), "--pi-des", "70", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cap 70.0: total revenue overflows to inf EUR\n"
    assert main(["sweep", "--input", str(path), "--pi", "60,70", "--cases", "infinite",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: scenario 'infinite', cap 60.0: total revenue overflows to inf EUR\n"
    assert not out.exists()


def test_overflowing_solution_is_an_error_line(tmp_path, capsys):
    # each hour's solve ends optimal with an inf price at bus 1: run used to
    # write it into dispatch_unconstrained.csv
    path, out = tmp_path / "big.txt", tmp_path / "out"
    write_overflow_file(path, 1e307)
    for argv in (["run", "--pi-des", "70"], ["sweep", "--pi", "60,70", "--cases", "infinite"]):
        assert main(argv + ["--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: hour 1: non-finite value in the optimal solution\n"
    assert not out.exists()


def test_overflowing_solution_is_one_stderr_line_in_a_fresh_process(tmp_path):
    # outside pytest's warning filters: numpy's overflow warnings used to print
    # solver source lines to stderr before the error line
    path = tmp_path / "big.txt"
    write_overflow_file(path, 1e307)
    env = dict(os.environ, PYTHONPATH=str(Path(flexhedge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "flexhedge.cli", "run", "--input", str(path),
                           "--pi-des", "70", "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr == "error: hour 1: non-finite value in the optimal solution\n"


def malformed_inputs():
    """Name -> (network, hours, cap bus, cap value) of seed 7's preset with
    problems in the network, the cap, the hours, or all three."""
    scenario = generate_scenario(ScenarioSpec(seed=7))
    net, hours = scenario.network, list(scenario.hours)
    bad_line = replace(net, lines=[replace(net.lines[0], reactance_pu=-0.1), *net.lines[1:]])
    no_slack = replace(net, buses=[Bus(b.id, price_constrained=b.price_constrained)
                                   for b in net.buses])
    bad_hours = [replace(data, utilities=[LoadUtility(3, 60.0, 0.0, 2.0, 1.0)])
                 if data.hour in (3, 9) else data for data in hours]
    return {
        "negative-reactance": (bad_line, hours, 3, 70.0),
        "no-slack": (no_slack, hours, 3, 70.0),
        "cap-at-unconstrained-bus": (net, hours, 2, 70.0),
        "unknown-cap-bus": (net, hours, 9, 70.0),
        "negative-cap": (net, hours, 3, -1.0),
        "nan-cap": (net, hours, 3, math.nan),
        "hours-3-and-9": (net, bad_hours, 3, 70.0),
        "all-at-once": (bad_line, bad_hours, 2, math.nan),
    }


@pytest.mark.parametrize("name", list(malformed_inputs()))
def test_library_states_the_problems_the_cli_prints(tmp_path, capsys, name):
    net, hours, bus, pi = malformed_inputs()[name]
    path = tmp_path / "bad.txt"
    with open(path, "w") as fobj:
        write_scenario_file(net, hours, fobj)
    with open(path) as fobj:  # the library gets what the CLI reads
        net, hours = load_scenario_file(fobj)
    source = ["--input", str(path), "--bus", str(bus), "--out", str(tmp_path / "out")]
    for argv, study in [
        (["run", f"--pi-des={pi}"], lambda: run_hedge(net, hours, PriceCap(bus, pi))),
        (["sweep", f"--pi={pi}"], lambda: sweep_pi_des(net, hours, bus, [pi], LINE_LIMIT_CASES)),
    ]:
        assert main(argv + source) == 1
        printed = capsys.readouterr().err.splitlines()
        assert all(line.startswith("error: ") for line in printed)
        with pytest.raises(ValueError) as error:
            study()
        assert str(error.value) == "; ".join(line[len("error: "):] for line in printed)
    assert not (tmp_path / "out").exists()


def cell(value):
    """The text every CSV artifact writes for ``value``: empty for None, the
    string itself, ``str`` of an int and ``repr`` of a float; any other type,
    such as a numpy scalar, is an error."""
    if value is None or type(value) is str:
        return value or ""
    assert type(value) in (int, float), f"{value!r} is a {type(value).__name__}"
    return str(value) if type(value) is int else repr(float(value))


def test_every_artifact_cell_follows_one_rule(tmp_path):
    # 12 hours infeasible under the extra limit, and one cap per hour
    caps = tuple(60.0 + h for h in range(24))
    out = tmp_path / "run"
    assert main(["run", "--preset", "paper-3bus", "--seed", "7", "--case", "finite",
                 "--pi-des", ",".join(map(repr, caps)), "--line-limit", "3-2=0.3",
                 "--allow-infeasible", "--out", str(out)]) == 0
    scenario = generate_scenario(ScenarioSpec(seed=7, line_limit_case="finite"))
    run = run_hedge(apply_line_limits(scenario.network, {(2, 3): 0.3}), scenario.hours,
                    PriceCap(3, caps))
    report = run.report
    assert len(report.excluded_hours) == 12

    def rows(name):
        with open(out / name, newline="") as fobj:
            return list(csv.reader(fobj))[1:]

    assert rows("hedge_report.csv") == [
        [cell(v) for v in (h.hour, h.lambda_unconstrained, h.lambda_hedged, h.p_flexreq_mw,
                           h.revenue_eur, None if h.revenue_eur is None
                           else flexhedge.format_eur(h.revenue_eur))]
        for h in report.hours]
    for name, results in (("dispatch_unconstrained.csv", run.unconstrained),
                          ("dispatch_hedged.csv", run.hedged)):
        expected = []
        for res in filter(None, results):
            expected += [[cell(v) for v in (
                res.hour, "bus", bus, None, None, res.lmp_eur_mwh[bus], res.p_g_mw.get(bus, 0.0),
                res.p_l_mw.get(bus, 0.0), res.p_flexreq_mw.get(bus, 0.0), None, None)]
                for bus in sorted(res.lmp_eur_mwh)]
            expected += [[cell(v) for v in (
                res.hour, "line", None, *key, None, None, None, None,
                res.flow_mw[key], res.congestion_dual_eur_mwh[key])] for key in res.flow_mw]
        assert rows(name) == expected, name
    doc = json.loads((out / "hedge_report.json").read_text())
    assert doc["pi_des_eur_mwh"] == list(caps)
    assert doc["totals"]["excluded_hours"] == list(report.excluded_hours)

    pi = [60.0, 70.5, 80.0]
    assert main(["sweep", "--preset", "paper-3bus", "--seed", "7", "--pi", "60,70.5,80",
                 "--cases", "infinite,finite", "--out", str(out)]) == 0
    preset = generate_scenario(ScenarioSpec(seed=7))  # a sweep reads the infinite case
    result = sweep_pi_des(preset.network, preset.hours, 3, pi, LINE_LIMIT_CASES)
    assert rows("sweep.csv") == [
        [cell(v) for v in (row.pi_des, row.scenario, row.total_revenue_eur,
                           flexhedge.format_eur(row.total_revenue_eur))]
        for row in result.rows]
