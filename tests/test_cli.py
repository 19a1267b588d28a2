import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghznetsim import cli
from ghznetsim.experiments import SCALES, SweepSpec


def run_cli(*argv):
    return cli.main(list(argv))


def test_parse_int_list():
    assert cli.parse_int_list("5") == (5,)
    assert cli.parse_int_list("1,2,3") == (1, 2, 3)
    assert cli.parse_int_list("1-4") == (1, 2, 3, 4)
    assert cli.parse_float_list(" 0.1, 0.2,") == (0.1, 0.2)
    assert cli.parse_users("0, 5,9") == {"users": (0, 5, 9)}
    assert cli.parse_users("random:3") == {"n_users": 3}


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "res"
    code = run_cli("run", "--protocol", "mp-t", "--Qc", "2", "--grid", "3",
                   "--p", "0.4", "--users", "0,8", "--successes", "5",
                   "--max-timeslots", "3000", "--seed", "4", "--out", str(out))
    assert code == 0
    assert (out / "results.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "trials.jsonl").exists()
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == ("protocol,p,Qc,M,user_set,dr,dr_lo,dr_hi,mean_fidelity,"
                      "mean_r_size,mean_age,successes,timeouts")


def test_run_deterministic_bytes(tmp_path):
    args = ("run", "--protocol", "mp-t,sp-t", "--Qc", "1,3", "--grid", "3",
            "--p", "0.4", "--users", "0,8", "--successes", "5",
            "--max-timeslots", "3000", "--seed", "4")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "trials.jsonl").read_bytes() == (out2 / "trials.jsonl").read_bytes()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("""
# tiny sweep
protocol = mp-t
Qc = 2
grid = 3
p = 0.4
users = 0,8
successes = 4
max_timeslots = 2000
seed = 11
""")
    out = tmp_path / "res"
    code = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["spec"]["seed"] == 11
    # flags win over the file
    out2 = tmp_path / "res2"
    code = run_cli("run", "--config", str(cfg), "--seed", "12", "--out", str(out2))
    assert code == 0
    payload2 = json.loads((out2 / "summary.json").read_text())
    assert payload2["spec"]["seed"] == 12


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no equals sign here\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_CONFIG


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("grid = 3\ncutof = 2\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == \
        cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unknown key cutof" in captured.err and "running sweep" not in captured.out
    # a key of another command is unknown to this one
    cfg.write_text("floor = 0.5\n")
    assert run_cli("run", "--config", str(cfg)) == cli.EXIT_CONFIG
    assert "unknown key floor" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("run", "--protocol", "mp-t,sp-t", "--Qc", "5,0"),
    ("run", "--protocol", "mp-t", "--Qc", "2", "--p", "0.2,1.5"),
    ("run", "--protocol", "mp-t,xx-t", "--Qc", "2"),
    ("distance", "--protocol", "mp-t", "--Qc", "2", "--grid", "3,1"),
    ("distance", "--protocol", "mp-t", "--Qc", "2", "--floor", "1.5"),
])
def test_bad_sweep_value_exits_2_before_any_cell(tmp_path, capsys, argv):
    # the bad value comes after a good one, so a cell-by-cell check would
    # run the first cell before failing; a repeated flag overrides the base
    # (distance takes no --user-sets: its users are the grid's corners)
    base = ("--grid", "4", "--p", "0.2", "--successes", "3", "--out", str(tmp_path / "x"))
    sets = ("--user-sets", "1") if argv[0] == "run" else ()
    assert run_cli(argv[0], *base, *sets, *argv[1:]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "DR=" not in captured.out and "user-sets" not in captured.err


@pytest.mark.parametrize("argv", [
    ("distance", "--p", "0.3,1.5"),
    ("pareto", "--p", "0.3,0.5"),
    ("pareto", "--grid", "3,4"),
])
def test_analysis_of_one_axis_value_rejects_more(tmp_path, capsys, argv):
    # distance and pareto analyse one p (pareto also one grid): a second
    # value is refused, not run and then ignored
    out = tmp_path / "x"
    base = ("--protocol", "mp-t", "--Qc", "1", "--grid", "3", "--p", "0.3",
            "--successes", "2", "--out", str(out))
    sets = ("--user-sets", "1") if argv[0] == "pareto" else ()
    assert run_cli(argv[0], *base, *sets, *argv[1:]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "DR=" not in captured.out and "user-sets" not in captured.err
    assert not (out / "results.csv").exists()
    assert not (out / "distance.csv").exists()


@pytest.mark.parametrize("line", ["scale = huge", "trial_log = everything"])
def test_config_value_is_checked_like_its_flag(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"protocol = mp-t\nQc = 2\ngrid = 3\nuser_sets = 1\n"
                   f"successes = 2\n{line}\n")
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{cfg}:6: " in captured.err and "invalid choice" in captured.err
    assert "DR=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [(), ("run", "--scale", "huge"), ("run", "--seed", "x"),
                                  ("run", "--bogus")])
def test_bad_flag_returns_2(argv, capsys):
    # argparse's errors take the same form as every other configuration error
    assert run_cli(*argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ghznetsim")


@pytest.mark.parametrize("flag, value", [("--Qc", "3.5"), ("--grid", "2.5"), ("--p", "abc"),
                                         ("--users", "0,x"), ("--Qc", "3-x"),
                                         ("--users", "random:"), ("--Qc", "5-3")])
def test_malformed_list_value_names_its_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    assert run_cli("run", "--protocol", "mp-t", "--grid", "3", "--Qc", "2",
                   "--successes", "2", flag, value, "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and repr(value) in err
    assert "invalid literal" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["Qc = 3.5", "grid = 2.5", "p = abc", "users = 0,x",
                                  "Qc = 3-x"])
def test_malformed_list_value_in_config_names_its_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"protocol = mp-t\nsuccesses = 2\n{line}\n")
    out = tmp_path / "x"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    flag = "--" + line.split(" = ")[0]
    assert f"{cfg}:3: " in err and f"argument {flag}: " in err
    assert not out.exists()


def test_negative_seed_exits_2_before_any_cell(tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli("run", "--protocol", "mp-t", "--grid", "3", "--Qc", "2",
                   "--users", "0,8", "--successes", "2", "--seed", "-1",
                   "--out", str(out)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "seed -1" in captured.err and "DR=" not in captured.out
    assert not any((out / name).exists()
                   for name in ("results.csv", "summary.json", "trials.jsonl"))


@pytest.mark.parametrize("argv, message", [
    (("--users", "random:1"), "need at least two users"),
    (("--users", "random:40"), "40 users but only 36 nodes"),
    (("--users", "random:3", "--seed", "-1"), "seed -1"),
])
def test_bad_sampled_users_exit_2_before_any_cell(tmp_path, capsys, argv, message):
    # sampled sets are checked before they are drawn, so numpy's own errors
    # never surface, and before --out is made
    out = tmp_path / "x"
    assert run_cli("run", "--protocol", "mp-t", "--grid", "6", "--Qc", "2",
                   "--successes", "2", *argv, "--out", str(out)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err and "DR=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("run", "--users", "0,8", "--seed", "-1"),
    ("distance", "--Qc", "2,0"),
])
def test_bad_cell_value_leaves_no_out_directory(tmp_path, capsys, argv):
    # every cell is checked before --out is made or the banner printed
    out = tmp_path / "o2"
    assert run_cli(argv[0], "--protocol", "mp-t", "--grid", "3", "--Qc", "2",
                   "--successes", "2", *argv[1:], "--out", str(out)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "running sweep" not in captured.out and "distance experiment" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "distance"])
def test_out_naming_a_file_exits_2_before_any_cell(tmp_path, capsys, command):
    out = tmp_path / "file"
    out.write_text("keep me\n")
    assert run_cli(command, "--protocol", "mp-t", "--grid", "3", "--Qc", "2",
                   "--successes", "2", "--out", str(out)) == cli.EXIT_CONFIG
    assert "DR=" not in capsys.readouterr().out
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize("flag, value", [("--users", "1,2,7"), ("--user-sets", "9")])
def test_distance_rejects_user_options(tmp_path, capsys, flag, value):
    # distance places its users on the grid corners, so neither option applies
    out = tmp_path / "x"
    base = ("distance", "--protocol", "sp-t", "--grid", "3", "--p", "0.3", "--Qc", "2",
            "--successes", "3", "--out", str(out))
    assert run_cli(*base, flag, value) == cli.EXIT_CONFIG
    assert flag in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "users.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run_cli(*base, "--config", str(cfg)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{cfg}:1: unknown key {key}" in captured.err
    assert "DR=" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "pareto"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_user_sets_beside_explicit_users_exits_2(tmp_path, capsys, command, via):
    # an explicit --users list is one user set, so a count of sampled sets
    # beside it could only be ignored; it is refused before any cell runs
    out = tmp_path / "x"
    base = (command, "--protocol", "sp-t", "--grid", "3", "--p", "0.5", "--Qc", "2",
            "--successes", "2", "--out", str(out))
    if via == "flag":
        argv = (*base, "--users", "0,8", "--user-sets", "5")
    else:
        cfg = tmp_path / "users.cfg"
        cfg.write_text("users = 0,8\nuser_sets = 5\n")
        argv = (*base, "--config", str(cfg))
    assert run_cli(*argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--user-sets" in captured.err and "DR=" not in captured.out
    assert not out.exists()
    # sampled users take a set count
    opts = cli.build_parser().parse_args([command, "--users", "random:3", "--user-sets", "5"])
    assert cli.build_spec(opts).user_sets == 5


def test_config_values_parse_as_single_tokens(tmp_path):
    # a value that starts with '-' is still the key's value, not a flag
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("Qc = 2\np = -1,5\n")
    args = cli.build_parser().parse_args(["run", "--config", str(cfg)])
    tokens = cli.config_tokens(args)
    assert tokens == ["--Qc=2", "--p=-1,5"]
    assert cli.build_parser().parse_args(["run", *tokens]).p == (-1.0, 5.0)


def test_bare_commands_use_the_sweep_defaults():
    parser = cli.build_parser()
    assert cli.build_spec(parser.parse_args(["run"])) == SweepSpec()
    assert cli.build_spec(parser.parse_args(["run", "--scale", "full"])) == \
        SweepSpec(**SCALES["full"])
    spec = cli.build_spec(parser.parse_args(["distance"]))
    assert spec == SweepSpec(grid_sizes=(3, 4, 5, 6), p_values=(0.3,))


def test_package_imports_without_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import importlib, json, pkgutil, sys, ghznetsim\n"
            "names = [m.name for m in pkgutil.iter_modules(ghznetsim.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('ghznetsim.' + name)\n"
            "print(json.dumps([names, [m for m in sys.modules if m.startswith('scipy')]]))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    names, scipy_modules = json.loads(out)
    assert {"cli", "engine", "experiments", "statesim"} <= set(names)
    assert scipy_modules == []


def test_user_outside_graph_exits_2(tmp_path, capsys):
    code = run_cli("run", "--users", "0,99", "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_CONFIG
    assert "outside the node range" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--successes", "--max-timeslots", "--user-sets"])
def test_zero_counts_exit_2(tmp_path, capsys, flag):
    # a given 0 is an error, not "unset": it used to run the desk preset
    base = ("run", "--protocol", "mp-t", "--Qc", "2", "--grid", "3", "--p", "0.4",
            "--out", str(tmp_path / "x"))
    assert run_cli(*base, flag, "0") == cli.EXIT_CONFIG
    assert "must be positive" in capsys.readouterr().err
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"{flag[2:].replace('-', '_')} = 0\n")
    assert run_cli(*base, "--config", str(cfg)) == cli.EXIT_CONFIG
    assert "must be positive" in capsys.readouterr().err


def test_zero_workers_exit_2(tmp_path, capsys):
    code = run_cli("run", "--protocol", "mp-t", "--Qc", "2", "--grid", "3",
                   "--users", "0,8", "--successes", "2", "--workers", "0",
                   "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_CONFIG
    assert "workers 0 must be at least 1" in capsys.readouterr().err


def test_bad_protocol_exits_2(tmp_path):
    code = run_cli("run", "--protocol", "zz-t", "--Qc", "1", "--grid", "3",
                   "--users", "0,8", "--successes", "2",
                   "--max-timeslots", "100", "--out", str(tmp_path / "x"))
    assert code == cli.EXIT_CONFIG


def test_pareto_from_existing_sweep(tmp_path, capsys):
    out = tmp_path / "res"
    sweep = ("--protocol", "mp-t,sp-t", "--Qc", "1,2,4", "--grid", "3",
             "--p", "0.5", "--users", "0,8", "--successes", "10",
             "--max-timeslots", "4000", "--seed", "6", "--out", str(out))
    assert run_cli("run", *sweep) == 0
    capsys.readouterr()
    code = run_cli("pareto", *sweep)
    assert code == 0
    assert "running sweep" not in capsys.readouterr().out
    assert (out / "pareto.svg").exists()
    assert (out / "pareto_points.csv").exists()
    stats = json.loads((out / "pareto_summary.json").read_text())
    assert "tree_speedup" in stats
    svg = (out / "pareto.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_pareto_reruns_a_sweep_of_another_spec(tmp_path, capsys):
    out = tmp_path / "res"
    sweep = ("--grid", "3", "--Qc", "2,4", "--user-sets", "1", "--successes", "5",
             "--protocol", "mp-t,sp-t", "--out", str(out))
    assert run_cli("run", *sweep, "--p", "0.5") == 0
    files = {name: (out / name).read_bytes()
             for name in ("results.csv", "summary.json", "trials.jsonl")}
    capsys.readouterr()
    # the stored sweep is for p=0.5: a p=0.3 analysis must not replace it
    assert run_cli("pareto", *sweep, "--p", "0.3") == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "another spec" in captured.err and "running sweep" not in captured.out
    assert {name: (out / name).read_bytes() for name in files} == files
    assert json.loads(files["summary.json"])["spec"]["p_values"] == [0.5]
    assert not (out / "pareto.svg").exists()


def test_pareto_without_valid_datapoints_exits_3(tmp_path, capsys):
    out = tmp_path / "res"
    # one success per set is below the two per set that a datapoint needs
    code = run_cli("pareto", "--protocol", "mp-t,sp-t", "--grid", "3", "--p", "0.5",
                   "--Qc", "2", "--user-sets", "2", "--successes", "1",
                   "--workers", "1", "--out", str(out))
    assert code == cli.EXIT_NO_DATA
    assert "no valid datapoints" in capsys.readouterr().err
    cells = json.loads((out / "summary.json").read_text())["cells"]
    assert [c["omit_reason"] for c in cells] == ["only 2 successes (minimum 4)"] * 2


def test_trial_log_none_leaves_no_earlier_trials(tmp_path):
    out = tmp_path / "res"
    sweep = ("--grid", "3", "--p", "0.5", "--Qc", "2", "--users", "0,8",
             "--successes", "3", "--workers", "1", "--out", str(out))
    assert run_cli("run", "--protocol", "mp-t", *sweep, "--trial-log", "all") == 0
    assert (out / "trials.jsonl").exists()
    # the mp-t records must not stay beside the sp-t tables
    assert run_cli("run", "--protocol", "sp-t", *sweep, "--trial-log", "none") == 0
    assert not (out / "trials.jsonl").exists()
    assert "sp-t" in (out / "results.csv").read_text()


@pytest.mark.parametrize("argv, axis, value", [
    (("run", "--Qc", "2,2"), "qc_values", "2"),
    (("run", "--grid", "3,3"), "grid_sizes", "3"),
    (("run", "--p", "0.3,0.3"), "p_values", "0.3"),
    (("run", "--protocol", "mp-t,mp-t"), "protocols", "mp-t"),
    (("pareto", "--Qc", "2,2,3"), "qc_values", "2"),
])
def test_repeated_sweep_value_exits_2_before_any_cell(tmp_path, capsys, argv, axis, value):
    # a repeated value would run its cells twice and write every row twice
    args = {"--protocol": "sp-t", "--grid": "3", "--p": "0.5", "--Qc": "2"}
    args.update(zip(argv[1::2], argv[2::2]))
    out = tmp_path / "x"
    flags = [item for pair in args.items() for item in pair]
    assert run_cli(argv[0], *flags, "--successes", "2", "--user-sets", "1",
                   "--max-timeslots", "200", "--out", str(out)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"sweep axis {axis} repeats {value}" in captured.err
    assert "DR=" not in captured.out and not out.exists()


@pytest.mark.parametrize("command", ["run", "pareto", "distance"])
@pytest.mark.parametrize("flag", ["--protocol", "--Qc", "--p", "--grid"])
def test_empty_sweep_axis_exits_2(tmp_path, capsys, command, flag):
    args = {"--protocol": "mp-t", "--Qc": "2", "--p": "0.4", "--grid": "3"}
    args[flag] = ","
    # distance takes no --users: its users are the grid's corners
    users = ("--users", "0,8") if command != "distance" else ()
    argv = [command, *users, "--successes", "2", "--out", str(tmp_path / "x")]
    for name, value in args.items():
        argv += [name, value]
    assert run_cli(*argv) == cli.EXIT_CONFIG
    assert "is empty" in capsys.readouterr().err
    assert not (tmp_path / "x" / "results.csv").exists()


@pytest.mark.parametrize("key", ["protocol", "qc", "p", "grid"])
def test_empty_sweep_axis_in_config_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"users = 0,8\nsuccesses = 2\n{key} =\n")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == \
        cli.EXIT_CONFIG
    assert "is empty" in capsys.readouterr().err


def test_distance_command(tmp_path):
    out = tmp_path / "dist"
    code = run_cli("distance", "--protocol", "mp-t", "--grid", "2", "--p", "0.5",
                   "--Qc", "1-3", "--successes", "10", "--max-timeslots", "4000",
                   "--floor", "0.5", "--seed", "2", "--out", str(out))
    assert code == 0
    assert (out / "distance.csv").exists()
    assert (out / "distance.svg").exists()
    lines = (out / "distance.csv").read_text().splitlines()
    assert lines[0].startswith("protocol,M,steiner_distance,best_Qc")
    assert len(lines) == 2


def test_distance_infeasible_floor(tmp_path):
    out = tmp_path / "dist"
    # a fidelity floor of 1.0 is unreachable with noisy links
    code = run_cli("distance", "--protocol", "mp-t", "--grid", "2", "--p", "0.5",
                   "--Qc", "1-2", "--successes", "5", "--max-timeslots", "2000",
                   "--floor", "1.0", "--seed", "2", "--out", str(out))
    assert code == cli.EXIT_NO_DATA
    text = (out / "distance.csv").read_text()
    assert ",0" in text.splitlines()[1]  # feasible flag cleared


def test_validate_quick_exit_zero():
    assert run_cli("validate", "--quick") == 0
