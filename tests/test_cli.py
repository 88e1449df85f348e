"""Command-line interface: output contracts, config precedence, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lobfluid import (ModelParams, NonMonotoneInput, ResidualTooLarge,
                      ScalingLevel, SolverError, cli,
                      empirical_equilibrium, equilibrium_concentration,
                      experiments, fluid_convergence, integrate,
                      integrate_until_stationary, simulate)
from lobfluid.cli import main
from lobfluid.model import PARAM_FIELDS

simulate_module = importlib.import_module("lobfluid.simulate")
SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "run-config.schema.json"
MODEL_ONES = {"n_levels": 1, "lambda_b": 1.0, "lambda_s": 1.0, "alpha": 1.0,
              "beta": 1.0, "gamma": 1.0}

ONES = ["--lambda-b", "1", "--lambda-s", "1", "--alpha", "1", "--beta", "1",
        "--gamma", "1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_ten_digit_fixed_point(tmp_path, capsys):
    code, out, err = run(capsys, [
        "solve", "--n", "2", *ONES, "--out-dir", str(tmp_path / "run")])
    assert code == 0
    assert "0.4285714286" in out and "0.1428571429" in out
    assert (tmp_path / "run" / "fixed_point_recursive.csv").exists()
    assert (tmp_path / "run" / "fixed_point_shooting.csv").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["model"]["n_levels"] == 2
    assert manifest["result"]["solver_sup_gap"] < 1e-8


def test_solve_rejects_bad_n(tmp_path, capsys):
    code, out, err = run(capsys, [
        "solve", "--n", "0", *ONES, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "n_levels" in err


def test_missing_required_option(tmp_path, capsys):
    code, out, err = run(capsys, [
        "simulate", "--n", "1", *ONES, "--out-dir", str(tmp_path)])
    assert code == 2
    assert "scale" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"n_levels": 1, "lambda_b": 1.0, "lambda_s": 1.0,
                  "alpha": 1.0, "beta": 1.0, "gamma": 1.0},
        "solve": {"method": "recursive"},
        "seed": 5,
    }))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, [
        "solve", "--config", str(cfg), "--lambda-b", "2",
        "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["model"]["lambda_b"] == 2.0  # flag wins over file
    assert manifest["seed"] == 5                 # file fills the rest
    assert "shooting" not in manifest["result"]
    assert "0.8333333333" in out


def test_price_labels_flag(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, [
        "solve", "--n", "2", *ONES, "--price-labels", "99.5,100.5",
        "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["model"]["price_labels"] == [99.5, 100.5]
    code, out, err = run(capsys, [
        "solve", "--n", "2", *ONES, "--price-labels", "100.5,99.5",
        "--out-dir", str(out_dir)])
    assert code == 2


@pytest.mark.parametrize("labels", ["-1,0", "-0.5,2"])
def test_list_flag_value_may_start_with_minus(tmp_path, capsys, labels):
    # argparse takes a separate value that starts with "-" and is not a
    # plain number for an option ("expected one argument"); the space form
    # writes what the "=" form writes
    outputs = []
    for tag, flag in (("space", ["--price-labels", labels]),
                      ("equals", [f"--price-labels={labels}"])):
        code, out, err = run(capsys, ["solve", "--n", "2", *ONES, *flag,
                                      "--out-dir", str(tmp_path / tag)])
        assert code == 0, err
        outputs.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / tag).iterdir())})
    assert outputs[0] == outputs[1]
    manifest = json.loads(outputs[0]["manifest.json"])
    assert manifest["model"]["price_labels"] == [
        float(v) for v in labels.split(",")]


@pytest.mark.parametrize("labels", ["-1,0", "1,2"])
def test_abbreviated_flag_is_unrecognised(tmp_path, capsys, labels):
    # the parser takes no abbreviation, so a flag's full name, which the
    # list-value join matches, is its only spelling, whatever the value
    with pytest.raises(SystemExit) as exit:
        main(["solve", "--n", "2", *ONES, "--price-lab", labels,
              "--out-dir", str(tmp_path / "run")])
    assert exit.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --price-lab {labels}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("simulate", ["--scale", "10", "--tau-max", "1", "--x0", "-1,0"],
     "x0 must be 2 finite, nonnegative values, got [-1.0, 0.0]"),
    # this read "initial data must be nonnegative", naming neither side
    ("integrate", ["--tau-max", "1", "--y0", "-1,0"],
     "y0 must be 2 finite, nonnegative values, got [-1.0, 0.0]"),
    # this read the CLI's "levels must be a nonnegative integer, got -10.0"
    ("converge", ["--levels", "-10,20", "--tau-horizon", "1", "--replicas",
                  "2"], "scaling level must be a positive integer, got -10"),
    ("sweep", ["--lambda-s-values", "-1,2"], "lambda_s must be > 0"),
    # rounded to 0 and ran, echoed in the manifest, where integrate
    # rejected it
    ("simulate", ["--scale", "1000", "--tau-max", "1", "--x0", "-0.0004,0"],
     "x0 must be 2 finite, nonnegative values, got [-0.0004, 0.0]"),
], ids=["simulate-x0=-1,0", "integrate-y0=-1,0", "converge-levels=-10,20",
        "sweep-lambda-s-values=-1,2", "simulate-x0=-0.0004,0"])
def test_negative_list_values_reach_the_library_checks(tmp_path, capsys,
                                                       command, flags,
                                                       message):
    code, out, err = run(capsys, [command, "--n", "2", *ONES, *flags,
                                  "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in err


# the grid's checks named no argument: "need step > 0 and stop >= 0", and
# integrate --grid-step 0 read "grid step must be > 0, got 0.0"; at
# --tau-max 0, integrate took any grid step and recorded it as null
@pytest.mark.parametrize("command, flags, message", [
    ("converge", ["--levels", "10", "--replicas", "2", "--tau-horizon", "0"],
     "T must be finite and > 0, got 0.0"),
    ("simulate", ["--scale", "10", "--tau-max", "1", "--sample-dt", "0"],
     "sample_dt must be finite and > 0, got 0.0"),
    ("simulate", ["--scale", "10", "--tau-max", "-1"],
     "tau_max must be >= 0, got -1.0"),
    ("integrate", ["--tau-max", "1", "--grid-step", "0"],
     "grid_step must be finite and > 0, got 0.0"),
    ("converge", ["--levels", "10", "--replicas", "2", "--tau-horizon", "1",
                  "--grid-step", "0"],
     "grid_step must be finite and > 0, got 0.0"),
    ("integrate", ["--tau-max", "0", "--grid-step", "-5"],
     "grid_step must be finite and > 0, got -5.0"),
    # these failed inside numpy: a 7.28 TiB allocation (exit 1), "Maximum
    # allowed size exceeded" (exit 2), and a run killed for its memory
    ("integrate", ["--tau-max", "1e3", "--grid-step", "1e-9"],
     "grid_step = 1e-09 would make more than 10000000 grid points up to "
     "tau_max = 1000.0"),
    ("simulate", ["--scale", "10", "--tau-max", "5", "--sample-dt", "1e-300"],
     "sample_dt = 1e-300 would make more than 10000000 grid points up to "
     "tau_max = 5.0"),
    ("simulate", ["--scale", "10", "--tau-max", "1", "--sample-dt", "1e-9"],
     "sample_dt = 1e-09 would make more than 10000000 grid points up to "
     "tau_max = 1.0"),
], ids=["converge-tau-horizon=0", "simulate-sample-dt=0",
        "simulate-tau-max=-1", "integrate-grid-step=0", "converge-grid-step=0",
        "integrate-tau-max=0-grid-step=-5",
        "integrate-tau-max=1e3-grid-step=1e-9",
        "simulate-tau-max=5-sample-dt=1e-300",
        "simulate-tau-max=1-sample-dt=1e-9"])
def test_grid_checks_name_the_argument(tmp_path, capsys, command, flags,
                                      message):
    code, out, err = run(capsys, [command, "--n", "2", *ONES, *flags,
                                  "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# each study's list with the other options it requires; equilibrium's are
# the bad values an empty --levels wrote unchecked into its manifest
EMPTY_LISTS = [
    ("converge", "levels", ["--tau-horizon", "1", "--replicas", "2"]),
    ("equilibrium", "levels", ["--burn-in", "-1", "--n-samples", "-1",
                               "--sample-gap", "0"]),
    ("sweep", "lambda_s_values", []),
]


@pytest.mark.parametrize("command, key, flags", EMPTY_LISTS,
                         ids=[f"{c}-{k}" for c, k, _ in EMPTY_LISTS])
@pytest.mark.parametrize("how", ["flag", "file"])
def test_an_empty_study_list_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, key, flags, how):
    # these exited 0: converge and sweep wrote a CSV of its header alone
    def run_study(*args, **kwargs):
        raise AssertionError("ran before its list was checked")

    monkeypatch.setattr(experiments, "integrate", run_study)
    monkeypatch.setattr(experiments, "solve_recursive", run_study)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({command: {key: []}}))
    given = ([cli._flag(key), ""] if how == "flag"
             else ["--config", str(config)])
    out = tmp_path / "out"
    code, _, err = run(capsys, [command, "--n", "2", *ONES, *flags, *given,
                                "--out-dir", str(out)])
    assert (code, err) == (2, f"config error: {key} must be strictly "
                              "increasing and not empty\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--config", "missing.json"], "config file not found: missing.json"),
    (["--config", "list.json"], "config file must contain a JSON object"),
    ([], "no model parameters given"),
    (["--n", "2", *ONES, "--tau-max", "1", "--x0", "1,2,3"],
     "x0 must be 2 finite, nonnegative values, got [1.0, 2.0, 3.0]"),
], ids=["config=missing.json", "config=list.json", "no-model", "x0=1,2,3"])
def test_config_errors_before_the_run_exit_2(tmp_path, capsys, monkeypatch,
                                             argv, message):
    monkeypatch.chdir(tmp_path)
    Path("list.json").write_text("[1, 2]")
    code, out, err = run(capsys, ["integrate", "--tau-max", "1", *argv,
                                  "--out-dir", "out"])
    assert code == 2
    assert err.startswith(f"config error: {message}")
    assert not Path("out").exists()


# One bad input for each input rule (an initial pair is n_levels finite,
# nonnegative values per side; a grid step, a burn-in or a sample gap is
# finite and > 0; a worker or replica count, a scaling level, n_levels and
# an event budget given to the CLI are positive integers), as a flag and as
# parsed, with the one message that every entry point taking it gives
INPUT_RULES = [
    ("x0", "-1,0", [-1.0, 0.0],
     "x0 must be 2 finite, nonnegative values, got [-1.0, 0.0]"),
    ("y0", "0,nan", [0.0, np.nan],
     "y0 must be 2 finite, nonnegative values, got [0.0, nan]"),
    ("x0", "inf,0", [np.inf, 0.0],
     "x0 must be 2 finite, nonnegative values, got [inf, 0.0]"),
    ("y0", "1,2,3", [1.0, 2.0, 3.0],
     "y0 must be 2 finite, nonnegative values, got [1.0, 2.0, 3.0]"),
    ("grid_step", "0", 0.0, "grid_step must be finite and > 0, got 0.0"),
    ("burn_in", "0", 0.0, "burn_in must be finite and > 0, got 0.0"),
    ("workers", "0", 0, "workers must be a positive integer, got 0"),
    ("max_events", "0", 0, "max_events must be a positive integer, got 0"),
    # below 0 these read the CLI's "... must be a nonnegative integer, got
    # -1", and at 0 the library's message
    ("workers", "-1", -1, "workers must be a positive integer, got -1"),
    ("replicas", "-1", -1, "replicas must be a positive integer, got -1"),
    ("scale", "-1", -1, "scaling level must be a positive integer, got -1"),
    ("levels", "-1", [-1], "scaling level must be a positive integer, got -1"),
    ("n_levels", "-1", -1, "n_levels must be a positive integer, got -1"),
]
# each subcommand's required options; a row drops its own key's flag
REQUIRED_FLAGS = {
    "simulate": ["--scale", "10", "--tau-max", "1"],
    "integrate": ["--tau-max", "1"],
    "converge": ["--levels", "10", "--tau-horizon", "1", "--replicas", "2"],
    "equilibrium": ["--levels", "10", "--burn-in", "1", "--n-samples", "2",
                    "--sample-gap", "0.5"],
}


def given_flags(command, key):
    """The model's flags and the command's required ones, without key's
    own flag, which would override a value from the file."""
    given = ["--n", "2", *ONES, *REQUIRED_FLAGS.get(command, [])]
    if cli._flag(key) in given:
        i = given.index(cli._flag(key))
        del given[i:i + 2]
    return given


def library_calls(key, value):
    """The library calls that take the input key, given value for it. The
    library takes an event budget of 0 (tests/test_simulate.py)."""
    p = ModelParams(2, 1.0, 1.0, 1.0, 1.0, 1.0)
    z = np.zeros(2)
    if key in ("x0", "y0"):
        x0, y0 = (value, z) if key == "x0" else (z, value)
        return [lambda: integrate(x0, y0, p, 1.0),
                lambda: integrate_until_stationary(p, x0, y0),
                lambda: simulate(p, ScalingLevel(10), x0, y0, 1.0, 0.5, 1),
                lambda: fluid_convergence(p, x0, y0, [10], 1.0, 2, 0)]
    if key == "burn_in":
        return [lambda: empirical_equilibrium(p, ScalingLevel(10), value, 2,
                                              0.5, 1),
                lambda: equilibrium_concentration(p, [10], value, 2, 0.5, 0)]
    if key in ("grid_step", "workers"):
        return [lambda: fluid_convergence(p, z, z, [10], 1.0, 2, 0,
                                          **{key: value})]
    if key == "replicas":
        return [lambda: fluid_convergence(p, z, z, [10], 1.0, value, 0)]
    if key == "scale":
        return [lambda: ScalingLevel(value)]
    if key == "levels":
        return [lambda: fluid_convergence(p, z, z, value, 1.0, 2, 0),
                lambda: equilibrium_concentration(p, value, 1.0, 2, 0.5, 0)]
    if key == "n_levels":
        return [lambda: ModelParams(value, 1.0, 1.0, 1.0, 1.0, 1.0)]
    return []


@pytest.mark.parametrize("key, flag, value, message", INPUT_RULES,
                         ids=[f"{k}={flag}" for k, flag, *_ in INPUT_RULES])
def test_each_input_rule_gives_one_message_at_every_entry_point(
        tmp_path, capsys, key, flag, value, message):
    # the CLI restated these checks with its own messages ("x0/y0 must
    # have exactly 2 entries", "workers must be >= 1, got 0"), and the
    # library's differed between integrate and simulate
    commands = [c for c in REQUIRED_FLAGS
                if key in {**cli.MODEL, **cli.OPTIONS[c]}]
    assert commands
    for command in commands:
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(
            {"model" if key in cli.MODEL else command: {key: value}}))
        for how in ([cli._flag(key), flag], ["--config", str(config)]):
            out = tmp_path / "out"
            code, _, err = run(capsys, [command, *given_flags(command, key),
                                        *how, "--out-dir", str(out)])
            assert (code, err) == (2, f"config error: {message}\n"), how
            assert not out.exists()
    for call in library_calls(key, value):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


# One value of each option kind, as a flag's text and as the file's JSON
# value, with the message of a bad one. argparse read a flag first
# (type=int or float, choices=), so "--scale 20.0" exited 2 where the file's
# 20.0 ran, and a bad number or choice read "argument --tau-max: invalid
# float value: 'abc'" as a flag only
PARITY = [
    ("simulate", "scale", "20.0", 20.0, None),
    ("simulate", "seed", "3.0", 3.0, None),
    ("simulate", "max_events", "1e6", 1e6, None),
    ("simulate", "tau_max", "abc", "abc",
     "tau_max must be a number, got 'abc'"),
    ("converge", "levels", "10.0,20", [10.0, 20], None),
    ("solve", "method", "foo", "foo",
     "method must be one of recursive, shooting, both, got 'foo'"),
    # Python's int and float read these, JSON does not: a flag keeps them
    # as text, as the file does, so both give the file's message
    ("simulate", "scale", "1_000", "1_000",
     "scale must be an integer, got '1_000'"),
    ("simulate", "tau_max", "\u0661\u0660\u0660", "\u0661\u0660\u0660",
     "tau_max must be a number, got '\u0661\u0660\u0660'"),
    ("converge", "levels", "10,2_0", [10, "2_0"],
     "levels must be an integer, got '2_0'"),
    # nor these, outside JSON's number grammar: a flag read them as
    # numbers, and now keeps them as text, as the file would
    ("simulate", "seed", "+1", "+1",
     "seed must be a nonnegative integer, got '+1'"),
    ("simulate", "tau_max", ".5", ".5", "tau_max must be a number, got '.5'"),
    ("simulate", "tau_max", "1.", "1.", "tau_max must be a number, got '1.'"),
    ("simulate", "scale", "01", "01", "scale must be an integer, got '01'"),
    ("converge", "levels", "10,+20", [10, "+20"],
     "levels must be an integer, got '+20'"),
    # and these it reads as JSON does, whitespace and exponent included
    ("simulate", "tau_max", " 5e-1 ", 0.5, None),
    ("simulate", "seed", "-0", 0, None),
    # NaN and the infinities still reach the library's finiteness checks
    ("integrate", "tau_max", "nan", float("nan"),
     "tau_max must be finite, got nan"),
    ("integrate", "tau_max", "inf", float("inf"),
     "tau_max must be finite, got inf"),
]


@pytest.mark.parametrize("command, key, flag, value, message", PARITY, ids=[
    "scale=20.0", "seed=3.0", "max_events=1e6", "tau_max=abc",
    "levels=10.0,20", "method=foo", "scale=1_000",
    "tau_max=arabic-indic-100", "levels=10,2_0", "seed=+1", "tau_max=.5",
    "tau_max=1.", "scale=01", "levels=10,+20", "tau_max=spaced-5e-1",
    "seed=-0", "tau_max=nan", "tau_max=inf"])
def test_a_flag_and_the_file_give_one_result(tmp_path, capsys, command, key,
                                             flag, value, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({command: {key: value}}))
    results = []
    for how in ([cli._flag(key), flag], ["--config", str(config)]):
        out = tmp_path / how[0].strip("-")
        code, _, err = run(capsys, [command, *given_flags(command, key), *how,
                                    "--out-dir", str(out)])
        if message is None:
            assert code == 0, (how, err)
            results.append((out / "manifest.json").read_bytes())
        else:
            assert (code, err) == (2, f"config error: {message}\n"), how
            assert not out.exists()
    assert len(set(results)) <= 1


def test_help_lines_survive_python_OO(monkeypatch):
    # each subcommand's help line was its cmd_* docstring, which -OO strips
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    help_text = subprocess.run(
        [sys.executable, "-OO", "-m", "lobfluid.cli", "--help"], env=env,
        capture_output=True, text=True, timeout=120, check=True).stdout
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text == cli.build_parser().format_help()
    lines = [line.split() for line in help_text.splitlines()]
    for command, (_, text) in cli.COMMANDS.items():
        assert [command, *text.split()] in lines


def test_help_is_the_parsers_own(capsys):
    # joining a list flag with its value leaves --help to argparse
    commands = next(a for a in cli.build_parser()._actions
                    if a.dest == "command")
    for command, parser in commands.choices.items():
        with pytest.raises(SystemExit) as exit:
            main([command, "--help"])
        assert exit.value.code == 0
        assert capsys.readouterr().out == parser.format_help()
    assert "--price-labels PRICE_LABELS" in commands.choices[
        "solve"].format_help()


@pytest.mark.parametrize("labels", ["nan,1", "1,inf", "-inf,1"])
def test_nonfinite_price_labels_exit_2(tmp_path, capsys, labels):
    # NaN passed the ordering test and reached the manifest as NaN, which
    # is not JSON, as was Infinity; from a flag or from a config file
    values = [float(v) for v in labels.split(",")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {**MODEL_ONES, "n_levels": 2,
                                         "price_labels": values}}))
    for source in (["--n", "2", *ONES, f"--price-labels={labels}"],
                   ["--config", str(cfg)]):
        code, out, err = run(capsys, ["solve", *source,
                                      "--out-dir", str(tmp_path / "out")])
        assert code == 2, source
        assert "price labels must be finite" in err
        assert not (tmp_path / "out").exists()


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, out, err = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 2


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fail(params):
        raise ResidualTooLarge("residual 1 exceeds the bound")

    monkeypatch.setattr(cli, "solve_recursive", fail)
    code, out, err = run(capsys, [
        "solve", "--n", "4", *ONES, "--method", "recursive",
        "--out-dir", str(tmp_path)])
    assert code == 3
    assert "solver error" in err


def test_solve_with_overflowing_beta(tmp_path, capsys):
    # beta (2 alpha + beta + gamma) overflows: the solve still returns
    code, out, err = run(capsys, [
        "solve", "--n", "3", "--lambda-b", "1", "--lambda-s", "1",
        "--alpha", "1", "--beta", "1e300", "--gamma", "1",
        "--out-dir", str(tmp_path)])
    assert code == 0, err
    assert "x* = (1e-300, 0, 0)" in out


def test_solve_with_overflowing_gamma_alpha(tmp_path, capsys):
    # gamma alpha overflows: the solve still returns
    code, out, err = run(capsys, [
        "solve", "--n", "2", "--lambda-b", "1", "--lambda-s", "1",
        "--alpha", "1e200", "--beta", "1", "--gamma", "1e200",
        "--out-dir", str(tmp_path)])
    assert code == 0, err
    assert "x* = (6.666666667e-201, 3.333333333e-201)" in out


def test_arrivals_far_below_alpha_exit_0(tmp_path, capsys):
    # an arrival rate over alpha underflows to 0 (1e-300 / 1e300): the
    # solve takes the logarithms apart, where it once exited 2 with
    # "config error: math domain error"
    code, out, err = run(capsys, [
        "solve", "--n", "1", "--lambda-b", "1e-300", "--lambda-s", "1",
        "--alpha", "1e300", "--beta", "0", "--gamma", "1",
        "--out-dir", str(tmp_path / "solve")])
    assert code == 0, err
    assert "regime (ii), ell = 0" in out
    code, out, err = run(capsys, [
        "sweep", "--n", "2", "--lambda-b", "1", "--lambda-s", "1",
        "--alpha", "1e300", "--beta", "0", "--gamma", "1",
        "--lambda-s-values", "1e-300,1", "--out-dir", str(tmp_path / "sweep")])
    assert code == 0, err
    assert "lambda_s=1e-300: regime (i), ell=2" in out


def test_arrivals_far_above_alpha_exit_0(tmp_path, capsys):
    # an arrival rate over alpha overflows to inf (1e305 / 1e-10): the
    # solve takes the logarithms apart, where it once exited 3 with a NaN
    # residual; the point is 1e300 times that of arrivals 1 and 1e5
    code, out, err = run(capsys, [
        "solve", "--n", "3", "--lambda-b", "1e300", "--lambda-s", "1e305",
        "--alpha", "1e-10", "--beta", "1", "--gamma", "1",
        "--out-dir", str(tmp_path)])
    assert code == 0, err
    assert "regime (iii), ell = 1" in out
    assert "x* = (9.999999999e+299, 4.999999999e+289, 2.499999999e+279)" in out


def test_a_point_outside_the_float_range_exits_3(tmp_path, capsys):
    # x* overflows to inf (lambda_b 1e300 over alpha + gamma = 2e-10): the
    # solve names that, where it once reported "residual nan exceeds the
    # bound"
    code, out, err = run(capsys, [
        "solve", "--n", "3", "--lambda-b", "1e300", "--lambda-s", "1",
        "--alpha", "1e-10", "--beta", "0", "--gamma", "1e-10",
        "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert err == ("solver error: recursive-implicit: x* or y* is outside "
                   "the float range\n")
    assert not (tmp_path / "out").exists()


def test_a_virtual_level_past_the_float_range_exits_0(tmp_path, capsys):
    # y_2 = lambda_s / alpha = 1e312 is past the float range: y_1 fills in
    # log space, caps x_1, and the point is within the residual bound,
    # where it once exited 3 with "residual 5.000e+304 exceeds the bound"
    code, out, err = run(capsys, [
        "solve", "--n", "1", "--lambda-b", "1e305", "--lambda-s", "1e300",
        "--alpha", "1e-12", "--beta", "1", "--gamma", "1",
        "--out-dir", str(tmp_path / "out")])
    assert code == 0, err
    assert "x* = (9.99995e+304)" in out


@pytest.mark.parametrize("rates, x_star", [
    (["--alpha", "1.7976931348623157e308", "--beta", "0", "--gamma",
      "5e-324"], "x* = (5.562684646e-309, 5.562684646e-309)"),
    (["--alpha", "1", "--beta", "1e-12", "--gamma",
      "1.7976931348623157e308"], "x* = (0.5, 2.781342323e-309)"),
], ids=["terms-vanish", "sum-overflows"])
def test_rates_a_float_range_apart_exit_0(tmp_path, capsys, rates, x_star):
    # kappa's gamma alpha and beta (2 alpha + beta + gamma) both round to 0
    # once divided by alpha^2, or their sum overflows though each is
    # finite: the solve returns, where it once exited 1 with a
    # ZeroDivisionError
    code, out, err = run(capsys, [
        "solve", "--n", "2", "--lambda-b", "1", "--lambda-s", "1", *rates,
        "--out-dir", str(tmp_path)])
    assert code == 0, err
    assert x_star in out


def test_nonmonotone_result_exit_code(tmp_path, capsys, monkeypatch):
    def fail(params):
        raise NonMonotoneInput("x* is not strictly decreasing")

    monkeypatch.setattr(cli, "solve_shooting", fail)
    code, out, err = run(capsys, [
        "solve", "--n", "4", *ONES, "--method", "shooting",
        "--out-dir", str(tmp_path)])
    assert code == 3
    assert "solver error" in err


def test_solver_error_family():
    # the classes the CLI maps to exit code 3, and no other
    assert {e.__name__ for e in SolverError.__subclasses__()} == {
        "ResidualTooLarge", "NonMonotoneInput", "InvariantViolation",
        "StepUnderflow", "NegativeState", "NoConvergence"}


@pytest.mark.parametrize("error", SolverError.__subclasses__(),
                         ids=lambda error: error.__name__)
def test_every_solver_error_exits_3(tmp_path, capsys, monkeypatch, error):
    def fail(params):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "solve_recursive", fail)
    code, out, err = run(capsys, [
        "solve", "--n", "2", *ONES, "--method", "recursive",
        "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert err == "solver error: synthetic failure\n"
    assert not (tmp_path / "out").exists()


def test_large_n_shooting_solve(tmp_path, capsys):
    code, out, err = run(capsys, [
        "solve", "--n", "500", *ONES, "--method", "shooting",
        "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads((tmp_path / "manifest.json").read_text())["result"]
    assert result["shooting"]["ell"] == 250
    assert result["shooting"]["residual"] <= 1e-8


def test_config_file_list_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"n_levels": 2, "lambda_b": 1.0, "lambda_s": 1.0,
                  "alpha": 1.0, "beta": 1.0, "gamma": 1.0},
        "sweep": {"lambda_s_values": [1.0, 2.0, 8.0]},
    }))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, [
        "sweep", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4  # header + three grid points


def test_population_of_2_53_exits_2(tmp_path, capsys):
    # float counts are exact below 2**53, so the chain refuses a book of
    # 2**53 traders or more
    code, out, err = run(capsys, [
        "simulate", "--n", "2", *ONES, "--scale", "1", "--tau-max", "1",
        "--x0", "9007199254740992,0", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "initial population 9007199254740992 is not below 2**53" in err
    assert not (tmp_path / "out").exists()


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    code, out, err = run(capsys, [
        "simulate", "--n", "1", *ONES, "--scale", "100", "--tau-max", "5",
        "--max-events", "10", "--out-dir", str(tmp_path)])
    assert code == 4
    assert "budget" in err


@pytest.mark.parametrize("command, flags", [
    ("solve", []),
    ("simulate", ["--scale", "10", "--tau-max", "1"]),
])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_unwritable_out_dir_exits_2(tmp_path, capsys, command, flags, below):
    # an out_dir that is an existing file, or lies below one, ended in a
    # FileExistsError or NotADirectoryError traceback (exit 1)
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out_dir = blocker / "run" if below else blocker
    code, out, err = run(capsys, [command, "--n", "2", *ONES, *flags,
                                  "--out-dir", str(out_dir)])
    assert code == 2
    assert f"config error: cannot write into out_dir {out_dir}: " in err
    assert blocker.read_text() == "kept"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_unwritable_out_dir_is_found_before_the_run(tmp_path, capsys,
                                                    monkeypatch, below):
    # the chain ran to its horizon before the first write failed, however
    # long that took; the check creates nothing
    ran = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kw: ran.append(1))
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out_dir = blocker / "run" if below else blocker
    code, out, err = run(capsys, [
        "simulate", "--n", "2", *ONES, "--scale", "10", "--tau-max", "1",
        "--out-dir", str(out_dir)])
    assert code == 2
    assert err == (f"config error: cannot write into out_dir {out_dir}: "
                   f"{blocker} is not a directory\n")
    assert ran == []
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


def test_outputs_confined_to_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "only_here"
    code, _, _ = run(capsys, [
        "integrate", "--n", "1", *ONES, "--tau-max", "1",
        "--out-dir", str(out_dir)])
    assert code == 0
    produced = {p.name for p in tmp_path.iterdir()}
    assert produced == {"only_here"}
    assert {p.name for p in out_dir.iterdir()} == {"solution.csv",
                                                   "manifest.json"}


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "1", "--scale", "20", "--tau-max", "1",
     "--sample-dt", "0.1"],
    ["integrate", "--n", "2", "--tau-max", "2"],
    ["solve", "--n", "2"],
    ["converge", "--n", "1", "--levels", "5,10", "--tau-horizon", "0.5",
     "--replicas", "2"],
    ["equilibrium", "--n", "1", "--levels", "20", "--burn-in", "2",
     "--n-samples", "10", "--sample-gap", "0.5"],
    ["sweep", "--n", "2", "--lambda-s-values", "1,2"],
])
def test_reruns_are_byte_identical(tmp_path, capsys, argv):
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = run(capsys, argv + [*ONES, "--seed", "42",
                                         "--out-dir", str(out_dir)])
        assert code == 0
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        })
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name


# sha256 of trajectory.csv from the fixed-seed run below; it pins the draw
# contract (simulate.py's docstring) and the canonical event order of 0.4.0,
# so a change that promises byte-identical output is checked across
# versions, not only reruns
TRAJECTORY_SHA256 = (
    "83ae1d7a304fd8c89f8b8d1472bb3613e172d3ef4b0751fdc8fa890d526deb54")
# the same at N = 50 with the benchmark's long-chain rates, at a small
# scale: 13,405 events, of which about 4,000 miss the entry level and
# about 1,900 walk on past a second occupied level, so it pins the level
# walk deep into the book (the N = 3 run has 408 events, 57 misses and 12
# such walks)
TRAJECTORY_N50_SHA256 = (
    "8e5d5d6909c59bf37ae1ac77eb525b8837eaed1068e75c3461ab4dd12a3a12f3")
# the same run sampled every 0.002: 4,001 rows, so the C writer's 64 KiB
# chunks end inside rows many times, and its text table sees each value
# often; without the C writer, its Python twin writes the rows one `%`
# each, as the writer that computed this digest did
TRAJECTORY_N50_FINE_SHA256 = (
    "e74868cd9e075af44bc6fd003f6f9daac0c944892980ae3ded69835acdc7b684")


def test_simulate_trajectory_golden_digest(tmp_path, capsys):
    code, _, _ = run(capsys, ["simulate", "--n", "3", *ONES, "--scale", "50",
                              "--tau-max", "2", "--seed", "42",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes())
    assert digest.hexdigest() == TRAJECTORY_SHA256


def test_simulate_n50_trajectory_golden_digest(tmp_path, capsys):
    code, _, _ = run(capsys, ["simulate", "--n", "50", *ONES, "--scale",
                              "300", "--tau-max", "8", "--seed", "42",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes())
    assert digest.hexdigest() == TRAJECTORY_N50_SHA256


def test_simulate_n50_fine_trajectory_golden_digest(tmp_path, capsys):
    code, _, _ = run(capsys, ["simulate", "--n", "50", *ONES, "--scale",
                              "300", "--tau-max", "8", "--sample-dt", "0.002",
                              "--seed", "42", "--out-dir", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes())
    assert digest.hexdigest() == TRAJECTORY_N50_FINE_SHA256


# sha256 of the solver CSVs: the README's `solve` and `sweep` arguments, and
# an N = 40 solve whose bisection takes several crossing-index trials. Both
# solver files hold the same bytes (the CSV carries no solver label).
SOLVE_SHA256 = {
    "2": "7f6c1b8bfd9346e338deffef5864981140e66d8cb6fc5ef632fe5a7aa4054a04",
    "40": "3681fd282f31bd05aab8cec86d2a4918642a0d905640ab16b712d09d074326b6",
}
SWEEP_SHA256 = (
    "81871f40aba7f12ed0414dd1f281defbee9cbcc5a80ce7db7579b95781ccef5c")


@pytest.mark.parametrize("n,rates", [
    ("2", ONES),
    ("40", ["--lambda-b", "3", "--lambda-s", "0.5", "--alpha", "1",
            "--beta", "0.2", "--gamma", "4"]),
])
def test_solve_golden_digests(tmp_path, capsys, n, rates):
    code, _, _ = run(capsys, ["solve", "--n", n, *rates, "--method", "both",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    for name in ("fixed_point_recursive.csv", "fixed_point_shooting.csv"):
        digest = hashlib.sha256((tmp_path / name).read_bytes())
        assert digest.hexdigest() == SOLVE_SHA256[n], name


def test_sweep_golden_digest(tmp_path, capsys):
    code, _, _ = run(capsys, ["sweep", "--n", "2", *ONES, "--lambda-s-values",
                              "0.5,1,2,5,10,20", "--out-dir", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes())
    assert digest.hexdigest() == SWEEP_SHA256


def test_simulate_last_sample_is_the_horizon(tmp_path, capsys):
    # 3 * 0.1 rounds up past 0.3; the sample grid clamps its last time
    code, _, _ = run(capsys, ["simulate", "--n", "2", *ONES, "--scale", "10",
                              "--tau-max", "0.3", "--sample-dt", "0.1",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [0.0, 0.1, 0.2, 0.3]


def test_simulate_off_grid_horizon_reports_the_horizon_state(tmp_path,
                                                            capsys):
    # tau_max 1 is no multiple of 0.3: the grid still ends at tau 1, and the
    # reported final state is the chain's state there, not at tau 0.9
    code, out, _ = run(capsys, ["simulate", "--n", "2", *ONES, "--scale",
                                "1000", "--tau-max", "1", "--sample-dt", "0.3",
                                "--seed", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [0.0, 0.3, 0.6, 3 * 0.3, 1.0]
    traj = simulate(ModelParams(2, 1.0, 1.0, 1.0, 1.0, 1.0),
                    ScalingLevel(1000), np.zeros(2), np.zeros(2), 1.0, 0.3, 3)
    final = (traj.final_state.b / 1000).tolist()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["final_scaled_x"] == rows[-1, 1:3].tolist() == final
    assert manifest["final_scaled_y"] == rows[-1, 3:5].tolist()
    assert final == [0.399, 0.103] and "x=(0.399, 0.103)" in out


def test_simulate_tiny_horizon_samples_the_horizon(tmp_path, capsys):
    # tau_max within 1e-9 * sample_dt of 0: the grid was [0] alone, so the
    # initial state was written and reported as the final one
    code, _, _ = run(capsys, ["simulate", "--n", "2", *ONES, "--scale", "10",
                              "--tau-max", "1e-12", "--sample-dt", "1",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert rows[:, 0].tolist() == [0.0, 1e-12]


@pytest.mark.parametrize("tau_max,step,taus", [
    ("1", "0.3", [0.0, 0.3, 0.6, 3 * 0.3, 1.0]),
    ("0.05", "0.1", [0.0, 0.05]),  # a step past the horizon
    ("1e-12", "1", [0.0, 1e-12]),  # a horizon within 1e-9 of a step
    ("0", "0.5", [0.0]),  # recorded as null, where any step passed
])
def test_integrate_off_grid_horizon_ends_at_the_horizon(tmp_path, capsys,
                                                        tau_max, step, taus):
    code, out, _ = run(capsys, ["integrate", "--n", "2", *ONES, "--tau-max",
                                tau_max, "--grid-step", step,
                                "--out-dir", str(tmp_path)])
    assert code == 0
    assert f"integrated to tau={float(tau_max)} " in out
    rows = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert rows[:, 0].tolist() == taus
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["final_x"] == rows[-1, 1:3].tolist()
    assert manifest["grid_step"] == float(step)


@pytest.mark.parametrize("flags,name", [
    (["--tau-max", "0.3", "--sample-dt", "inf"], "sample_dt"),
    (["--tau-max", "inf"], "tau_max"),
    (["--tau-max", "nan", "--sample-dt", "0.1"], "tau_max"),
])
def test_simulate_nonfinite_times_exit_2(tmp_path, capsys, flags, name):
    code, _, err = run(capsys, ["simulate", "--n", "2", *ONES, "--scale",
                                "10", *flags, "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{name} must be finite" in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("flags,name", [
    (["--burn-in", "1", "--sample-gap", "nan"], "sample_gap"),
    (["--burn-in", "1", "--sample-gap", "inf"], "sample_gap"),
    (["--burn-in", "inf", "--sample-gap", "0.5"], "burn_in"),
])
def test_equilibrium_nonfinite_times_exit_2(tmp_path, capsys, flags, name):
    # a non-finite horizon would run the chain to the event budget
    code, _, err = run(capsys, ["equilibrium", "--n", "2", *ONES, "--levels",
                                "10", "--n-samples", "2", *flags,
                                "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{name} must be finite" in err
    assert not (tmp_path / "equilibrium.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--tol", "nan"], "tol must be finite and > 0, got nan"),
    (["--tol", "inf"], "tol must be finite and > 0, got inf"),
    (["--tol", "0"], "tol must be finite and > 0, got 0.0"),
    (["--tol", "-1"], "tol must be finite and > 0, got -1.0"),
    (["--x0", "nan,0"],
     "x0 must be 2 finite, nonnegative values, got [nan, 0.0]"),
    (["--x0", "inf,0"],
     "x0 must be 2 finite, nonnegative values, got [inf, 0.0]"),
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "x0-nan", "x0-inf"])
def test_integrate_bad_tol_or_initial_data_exit_2(tmp_path, capsys, flags,
                                                  message):
    # LSODA would return a non-solution for a non-finite tol or initial
    # data, and reject a tol <= 0 as an internal error
    code, _, err = run(capsys, ["integrate", "--n", "2", *ONES, "--tau-max",
                                "5", *flags, "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--tau-max", "nan"], "tau_max must be finite, got nan"),
    (["--tau-max", "nan", "--grid-step", "0.1"],
     "tau_max must be finite, got nan"),
    # this named the grid's stop, built before tau_max was checked
    (["--tau-max", "inf"], "tau_max must be finite, got inf"),
], ids=["nan", "nan-grid-step", "inf"])
def test_integrate_nonfinite_tau_max_exit_2(tmp_path, capsys, flags, message):
    # a NaN output time would reach LSODA, which steps on without end
    code, _, err = run(capsys, ["integrate", "--n", "2", *ONES, *flags,
                                "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--x0", "nan,0"],
     "x0 must be 2 finite, nonnegative values, got [nan, 0.0]"),
    (["--y0", "0,inf"],
     "y0 must be 2 finite, nonnegative values, got [0.0, inf]"),
    (["--x0", "1e18,0"], "x0 times the scale L = 10 must stay below 2**62"),
    (["--y0", "0,1e300"], "got y0 = [0.0, 1e+300]"),
], ids=["x0-nan", "y0-inf", "x0-huge", "y0-huge"])
def test_simulate_nonfinite_initial_data_exit_2(tmp_path, capsys, flags,
                                                message):
    # rejected before the cast to integer occupancies, which would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["simulate", "--n", "2", *ONES, "--scale",
                                    "10", "--tau-max", "1", *flags,
                                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in err
    assert not (tmp_path / "trajectory.csv").exists()


def _zero_identities(monkeypatch):
    """Counting identities that miss every increment, so a chain's whole
    change of book reads as a conservation defect."""
    zeroed = np.zeros_like(simulate_module._identities(1))
    monkeypatch.setattr(simulate_module, "_identities", lambda n: zeroed)


def test_conservation_defect_exit_code(tmp_path, capsys, monkeypatch):
    _zero_identities(monkeypatch)
    code, out, err = run(capsys, [
        "simulate", "--n", "1", *ONES, "--scale", "5", "--tau-max", "1",
        "--sample-dt", "0.5", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "conservation defect" in err


def test_equilibrium_conservation_defect_exit_code(tmp_path, capsys,
                                                   monkeypatch):
    _zero_identities(monkeypatch)
    code, out, err = run(capsys, [
        "equilibrium", "--n", "1", *ONES, "--levels", "5", "--burn-in", "1",
        "--n-samples", "2", "--sample-gap", "0.5", "--out-dir", str(tmp_path)])
    assert code == 3
    assert "conservation defect" in err


def test_equilibrium_sample_cap_exits_2_before_any_work(tmp_path, capsys,
                                                        monkeypatch):
    # the cap is the schema's maximum; patched down, a count past it exits
    # 2 at once (a billion samples would preallocate tens of GB)
    from lobfluid import ode

    schema = json.loads(SCHEMA.read_text())["properties"]
    assert (schema["equilibrium"]["properties"]["n_samples"]["maximum"]
            == ode.GRID_MAX)
    monkeypatch.setattr(ode, "GRID_MAX", 10)
    code, out, err = run(capsys, [
        "equilibrium", "--n", "1", *ONES, "--levels", "5", "--burn-in", "1",
        "--n-samples", "11", "--sample-gap", "0.5",
        "--out-dir", str(tmp_path / "out")])
    assert (code, err) == (2, "config error: n_samples must be at most 10, "
                              "got 11\n")
    assert not (tmp_path / "out").exists()


def run_config(tmp_path, capsys, cfg, command, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run(capsys, [command, "--config", str(path), *flags,
                        "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("cfg, key", [
    ({"model": MODEL_ONES, "sede": 5,
      "sweep": {"lambda_s_values": [3]}}, "sede"),
    ({"model": MODEL_ONES, "sweep": {"lambda_s_valuez": [3]}},
     "lambda_s_valuez"),
    ({"model": MODEL_ONES, "sweep": {"lambda_s_values": [3], "method": "x"}},
     "method"),
])
def test_unknown_config_keys_exit_2(tmp_path, capsys, cfg, key):
    code, out, err = run_config(tmp_path, capsys, cfg, "sweep")
    assert code == 2
    assert key in err


# the model block took its own path: the messages came from the library
# ("missing parameter field(s): alpha", "unknown parameter field(s): delta",
# "lambda_b must be a number, got None"), and a negative seed ran
@pytest.mark.parametrize("model, flags, message", [
    ({k: v for k, v in MODEL_ONES.items() if k != "alpha"}, [],
     "missing required option for solve: alpha"),
    ({**MODEL_ONES, "delta": 1.0}, [],
     'unknown config key(s) in "model": delta'),
    ({**MODEL_ONES, "lambda_b": None}, [],
     "missing required option for solve: lambda_b"),
    (MODEL_ONES, ["--seed", "-1"],
     "seed must be a nonnegative integer, got -1"),
], ids=["model-no-alpha", "model-delta", "model-lambda_b=null", "seed=-1"])
def test_model_block_resolves_like_a_subcommand_block(tmp_path, capsys,
                                                      model, flags, message):
    code, out, err = run_config(tmp_path, capsys, {"model": model}, "solve",
                                *flags)
    assert code == 2
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("cfg, key", [
    ({"model": MODEL_ONES, "solve": {"method": "newton"}}, "method"),
    ({"model": MODEL_ONES, "solve": {"method": ["both"]}}, "method"),
    ({"model": MODEL_ONES, "out_dir": 5}, "out_dir"),
    ({"model": MODEL_ONES, "solve": {"out_dir": None}, "out_dir": [1]},
     "out_dir"),
    (None, "config"),  # --config names a directory
])
def test_config_values_the_parser_never_sees_exit_2(tmp_path, capsys,
                                                    monkeypatch, cfg, key):
    # a file value outside the flag's choices ran as "no method" and wrote
    # a manifest; a non-string out_dir and a directory for --config ended
    # in a traceback
    monkeypatch.chdir(tmp_path)  # the default out_dir is relative
    path = tmp_path / "cfg"
    if cfg is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["solve", "--config", str(path)])
    assert code == 2
    assert key in err
    assert list(tmp_path.rglob("manifest.json")) == []


@pytest.mark.parametrize("cfg, key", [
    ({"model": MODEL_ONES, "sweep": 5}, "sweep"),
    ({"model": [1, 2], "sweep": {"lambda_s_values": [3]}}, "model"),
])
def test_non_object_config_blocks_exit_2(tmp_path, capsys, cfg, key):
    code, out, err = run_config(tmp_path, capsys, cfg, "sweep")
    assert code == 2
    assert f'config key "{key}" must be a JSON object' in err


def test_block_may_set_seed_and_out_dir(tmp_path, capsys):
    # other subcommands' blocks are not read; this one's seed/out_dir are
    out_dir = tmp_path / "from_block"
    cfg = {"model": MODEL_ONES, "seed": 1,
           "integrate": {"tau_max": 1.0, "tol": 1e-6},
           "solve": {"method": "recursive", "seed": 7,
                     "out_dir": str(out_dir)}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, ["solve", "--config", str(path)])
    assert code == 0
    assert json.loads((out_dir / "manifest.json").read_text())["seed"] == 7


@pytest.mark.parametrize("block, top, key", [
    ({"scale": 20.6}, {}, "scale"),
    ({"scale": 20}, {"seed": 3.9}, "seed"),
    ({"scale": 20, "max_events": 1e6 + 0.5}, {}, "max_events"),
    ({"scale": "20"}, {}, "scale"),
    ({"scale": True}, {}, "scale"),
    # below the schema minimum: not a budget error after the run starts
    ({"scale": 20, "max_events": 0}, {}, "max_events"),
    ({"scale": 20, "max_events": -5}, {}, "max_events"),
])
def test_integer_options_do_not_truncate(tmp_path, capsys, block, top, key):
    cfg = {"model": MODEL_ONES, **top,
           "simulate": {"tau_max": 0.5, "sample_dt": 0.1, **block}}
    code, out, err = run_config(tmp_path, capsys, cfg, "simulate")
    assert code == 2
    assert key in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command, block, key", [
    ("converge", {"levels": [10.7, 20], "tau_horizon": 0.5, "replicas": 2},
     "levels"),
    ("converge", {"levels": [10, 20], "tau_horizon": 0.5, "replicas": 2.5},
     "replicas"),
    ("converge", {"levels": [10], "tau_horizon": 0.5, "replicas": 2,
                  "workers": 1.5}, "workers"),
    ("equilibrium", {"levels": [20], "burn_in": 1, "n_samples": 2.5,
                     "sample_gap": 0.5}, "n_samples"),
    # below the schema minimum: not run serially and echoed to the manifest
    ("converge", {"levels": [10], "tau_horizon": 0.5, "replicas": 2,
                  "workers": 0}, "workers"),
    ("converge", {"levels": [10], "tau_horizon": 0.5, "replicas": 2,
                  "workers": -2}, "workers"),
])
def test_study_integer_options_do_not_truncate(tmp_path, capsys, command,
                                               block, key):
    code, out, err = run_config(tmp_path, capsys,
                                {"model": MODEL_ONES, command: block}, command)
    assert code == 2
    assert key in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command, block, model, key", [
    # these ended in a TypeError traceback (exit 1)
    ("integrate", {"tau_max": [1]}, {}, "tau_max"),
    ("equilibrium", {"levels": [20], "burn_in": {"x": 1}, "n_samples": 2,
                     "sample_gap": 0.5}, {}, "burn_in"),
    # these ran as 1.0, 1.0 and 0.5 although the schema asks for a number
    ("integrate", {"tau_max": True}, {}, "tau_max"),
    ("integrate", {"tau_max": 1}, {"gamma": True}, "gamma"),
    ("simulate", {"scale": 20, "tau_max": 1, "sample_dt": "0.5"}, {},
     "sample_dt"),
    ("integrate", {"tau_max": 1, "tol": "1e-9"}, {}, "tol"),
    ("integrate", {"tau_max": 1, "grid_step": [0.5]}, {}, "grid_step"),
    ("converge", {"levels": [10], "tau_horizon": "1", "replicas": 2},
     {}, "tau_horizon"),
    ("converge", {"levels": [10], "tau_horizon": 1, "replicas": 2,
                  "grid_step": False}, {}, "grid_step"),
    ("equilibrium", {"levels": [20], "burn_in": 1, "n_samples": 2,
                     "sample_gap": "0.5"}, {}, "sample_gap"),
    ("integrate", {"tau_max": 1}, {"lambda_b": "2"}, "lambda_b"),
    ("integrate", {"tau_max": 1}, {"beta": 10 ** 400}, "beta"),
    ("integrate", {"tau_max": 1}, {"n_levels": "1"}, "n_levels"),
])
def test_float_options_must_be_numbers(tmp_path, capsys, command, block,
                                       model, key):
    cfg = {"model": {**MODEL_ONES, **model}, command: block}
    code, out, err = run_config(tmp_path, capsys, cfg, command)
    assert code == 2
    assert key in err
    assert not (tmp_path / "out" / "manifest.json").exists()


MODEL_TWO = {**MODEL_ONES, "n_levels": 2}


@pytest.mark.parametrize("command, block, model, key", [
    # these ran: the first as x0 = [1.0, 0.5], the sweep as [1.0, 2.0]
    ("integrate", {"tau_max": 1, "x0": [True, "0.5"]}, {}, "x0"),
    ("sweep", {"lambda_s_values": "1,2"}, {}, "lambda_s_values"),
    ("integrate", {"tau_max": 1, "x0": "0.5,0.5"}, {}, "x0"),
    ("integrate", {"tau_max": 1, "y0": [0.0, "1"]}, {}, "y0"),
    ("integrate", {"tau_max": 1, "y0": 0.5}, {}, "y0"),
    ("simulate", {"scale": 10, "tau_max": 1, "x0": [0, False]}, {}, "x0"),
    ("integrate", {"tau_max": 1}, {"price_labels": "1,2"}, "price_labels"),
    ("integrate", {"tau_max": 1}, {"price_labels": [1, True]},
     "price_labels"),
    ("sweep", {"lambda_s_values": [1, "2"]}, {}, "lambda_s_values"),
    ("sweep", {"lambda_s_values": [1, None]}, {}, "lambda_s_values"),
    ("converge", {"levels": "10,20", "tau_horizon": 0.5, "replicas": 2},
     {}, "levels"),
    ("converge", {"levels": [10, True], "tau_horizon": 0.5, "replicas": 2},
     {}, "levels"),
    ("equilibrium", {"levels": ["20"], "burn_in": 1, "n_samples": 2,
                     "sample_gap": 0.5}, {}, "levels"),
    ("equilibrium", {"levels": 20, "burn_in": 1, "n_samples": 2,
                     "sample_gap": 0.5}, {}, "levels"),
])
def test_list_options_from_a_file_must_be_arrays_of_numbers(
        tmp_path, capsys, command, block, model, key):
    cfg = {"model": {**MODEL_TWO, **model}, command: block}
    code, out, err = run_config(tmp_path, capsys, cfg, command)
    assert code == 2
    assert key in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_list_options_from_a_file_echo_as_from_flags(tmp_path, capsys):
    # JSON arrays in the file and comma strings on the command line give
    # the same run and the same manifest
    cfg = {"model": {**MODEL_TWO, "price_labels": [99.5, 100]},
           "converge": {"levels": [10, 20.0], "tau_horizon": 0.5,
                        "replicas": 2, "x0": [0.5, 0], "y0": [0, 1]}}
    code, out, err = run_config(tmp_path, capsys, cfg, "converge")
    assert code == 0
    code, out, err = run(capsys, [
        "converge", "--n", "2", *ONES, "--price-labels", "99.5,100",
        "--levels", "10,20", "--tau-horizon", "0.5", "--replicas", "2",
        "--x0", "0.5,0", "--y0", "0,1", "--out-dir", str(tmp_path / "flags")])
    assert code == 0
    for name in ("manifest.json", "convergence.csv"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes())


@pytest.mark.parametrize("flag, value", [
    ("--x0", "0.5,x"), ("--levels", "10,,2O"), ("--price-labels", "1;2")])
def test_list_flags_must_be_comma_separated_numbers(tmp_path, capsys, flag,
                                                    value):
    code, out, err = run(capsys, [
        "converge", "--n", "2", *ONES, "--levels", "10", "--tau-horizon",
        "0.5", "--replicas", "2", flag, value, "--out-dir", str(tmp_path)])
    assert code == 2
    assert flag[2:].replace("-", "_") in err


def test_numbers_from_a_file_echo_as_from_flags(tmp_path, capsys):
    # integers where the schema asks for numbers run as floats, and the
    # manifest is the one the equivalent flags write
    cfg = {"model": {**MODEL_ONES, "n_levels": 2.0, "gamma": 3},
           "integrate": {"tau_max": 2, "tol": 1e-9, "grid_step": 1}}
    code, out, err = run_config(tmp_path, capsys, cfg, "integrate")
    assert code == 0
    code, out, err = run(capsys, [
        "integrate", "--n", "2", *ONES[:-1], "3", "--tau-max", "2",
        "--tol", "1e-9", "--grid-step", "1", "--out-dir",
        str(tmp_path / "flags")])
    assert code == 0
    for name in ("manifest.json", "solution.csv"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "flags" / name).read_bytes())


def test_levels_flag_does_not_truncate(tmp_path, capsys):
    code, out, err = run(capsys, [
        "converge", "--n", "1", *ONES, "--levels", "10.7,20",
        "--tau-horizon", "0.5", "--replicas", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "levels" in err


def test_integral_numbers_are_accepted_as_integers(tmp_path, capsys):
    cfg = {"model": MODEL_ONES, "seed": 3.0,
           "simulate": {"scale": 20.0, "tau_max": 0.5, "sample_dt": 0.1,
                        "max_events": 1e6}}
    code, out, err = run_config(tmp_path, capsys, cfg, "simulate")
    assert code == 0
    manifest = (tmp_path / "out" / "manifest.json").read_text()
    loaded = json.loads(manifest)
    assert loaded["scale"] == 20 and loaded["seed"] == 3
    assert loaded["max_events"] == 1_000_000
    assert '"scale": 20,' in manifest and '"seed": 3,' in manifest


def _schema_matches_kind(entry: dict, kind) -> bool:
    """Whether a schema property states the option table's kind."""
    if isinstance(kind, tuple):
        return entry.get("enum") == list(kind)
    if isinstance(kind, list):
        return (entry.get("type") == "array"
                and _schema_matches_kind(entry["items"], kind[0]))
    return entry.get("type") == {int: "integer", float: "number",
                                 str: "string"}[kind]


def test_schema_lists_exactly_the_parser_options():
    schema = json.loads(SCHEMA.read_text())["properties"]
    assert set(schema) == {"model", "seed", "out_dir", *cli.COMMANDS}
    assert list(schema["model"]["properties"]) == list(PARAM_FIELDS)
    parser = cli.build_parser()
    common = {"command", "config", "seed", "out_dir", *PARAM_FIELDS}
    for command in cli.COMMANDS:
        own = set(vars(parser.parse_args([command]))) - common
        assert set(schema[command]["properties"]) == own, command
    # each option's schema type is its table kind
    tables = [(schema["model"]["properties"], cli.MODEL),
              (schema, cli.COMMON),
              *((schema[c]["properties"], cli.OPTIONS[c])
                for c in cli.COMMANDS)]
    checked = 0
    for properties, table in tables:
        for key, (kind, _, _) in table.items():
            assert _schema_matches_kind(properties[key], kind), key
            if key in cli.MINIMUM:
                assert properties[key]["minimum"] == cli.MINIMUM[key], key
                checked += 1
    assert checked == 2 and set(cli.MINIMUM) == {"seed", "max_events"}


# sha256 of manifest.json from the README's simulate, solve and sweep runs
# at --seed 42. None of them runs LSODA or a BLAS reduction, so the bytes
# are the same on every interpreter and platform tested; the manifest
# echoes the package version, so a version change moves them.
README_RUNS = {
    "solve": [],
    "simulate": ["--scale", "1000", "--tau-max", "5", "--sample-dt", "0.05"],
    "sweep": ["--lambda-s-values", "0.5,1,2,5,10,20"],
}
MANIFEST_SHA256 = {
    "solve": "ece30f06eba7bed8e4e334024593778e1b89c18e1d578e763786086ca508a66e",
    "simulate":
        "2eb68bb711e8f41405cb99e4aefd76b015892962f80d8cea0398826b3a85cdb7",
    "sweep": "bf961c5bdf0340035e287a56b56f1bfcbba42d49da37a0cb261a2fc8180e8563",
}


@pytest.mark.parametrize("command", sorted(README_RUNS))
def test_readme_manifest_golden_digests(tmp_path, capsys, command):
    code, _, err = run(capsys, [command, *README_RUNS[command], "--n", "2",
                                *ONES, "--seed", "42",
                                "--out-dir", str(tmp_path)])
    assert code == 0, err
    digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes())
    assert digest.hexdigest() == MANIFEST_SHA256[command]


# sha256 of the README's JSON config example run as `sweep --config run.json
# --seed 42`: every model value and option comes from the file
CONFIG_EXAMPLE_SHA256 = {
    "manifest.json":
        "53b789891820d875b420bf1ea101061e6c83a17087614f9cc8bf5ab6130870b8",
    "sweep.csv":
        "770b6a0710789d115ad06d2c0ce04919a7d1e2cdd3c2a196006bdd214d73a58a",
}


def test_readme_config_example_golden_digests(tmp_path, capsys):
    readme = (SCHEMA.parents[1] / "README.md").read_text()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.json").write_text(example)
    code, _, err = run(capsys, ["sweep", "--config", str(tmp_path / "run.json"),
                                "--seed", "42", "--out-dir",
                                str(tmp_path / "out")])
    assert code == 0, err
    for name, sha256 in CONFIG_EXAMPLE_SHA256.items():
        digest = hashlib.sha256((tmp_path / "out" / name).read_bytes())
        assert digest.hexdigest() == sha256, name


def test_readme_library_example_runs():
    # the README's python block runs as written, and its comments hold
    readme = (SCHEMA.parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    fp, sol = namespace["fp"], namespace["sol"]
    assert np.allclose(fp.x_star, [3 / 7, 1 / 7], rtol=0, atol=1e-12)
    assert np.allclose(fp.y_star, [1 / 7, 3 / 7], rtol=0, atol=1e-12)
    assert sol.taus.tolist() == [0, 50]
    assert namespace["traj"].n_events > 0


# the manifest keys of the runs whose values rest on LSODA
MANIFEST_KEYS = {
    "integrate": (["--tau-max", "50"],
                  {"final_x", "final_y", "grid_step", "tau_max", "tol", "x0",
                   "y0"}),
    "converge": (["--levels", "5,10", "--tau-horizon", "0.5", "--replicas",
                  "2"],
                 {"grid_step", "levels", "quartiles", "replicas",
                  "tau_horizon", "workers", "x0", "y0"}),
    "equilibrium": (["--levels", "20", "--burn-in", "2", "--n-samples", "10",
                     "--sample-gap", "0.5"],
                    {"burn_in", "fixed_point_solver", "levels", "n_samples",
                     "quartiles", "sample_gap"}),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_KEYS))
def test_manifest_key_sets(tmp_path, capsys, command):
    flags, keys = MANIFEST_KEYS[command]
    code, _, err = run(capsys, [command, *flags, "--n", "2", *ONES,
                                "--seed", "42", "--out-dir", str(tmp_path)])
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"command", "lobfluid_version", "model", "seed",
                             *keys}
    assert list(manifest["model"]) == sorted(PARAM_FIELDS)
