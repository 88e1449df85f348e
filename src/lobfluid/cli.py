"""Command-line entry point.

Subcommands: simulate, integrate, solve, converge, equilibrium, sweep.
Every option is declared once, as (kind, default, help) in a table: MODEL
for the model parameters, COMMON for seed and out_dir, and
OPTIONS[command] for a subcommand's own options. The tables build the
parser, and `resolve` takes each value from its flag, else from the JSON
config file's block for it ("model" or the subcommand's), else (seed and
out_dir) from the file's top level, else from the table's default, and
checks it against its kind (see docs/run-config.schema.json); a flag's
text is first read as the file would hold it, so a flag and a file value
meet one check and one message. Every run writes its artifacts plus a
manifest.json, the resolved options and the run's results, into out_dir,
and prints a short human-readable summary to stdout. Exit codes: 0 ok, 2
configuration error (an out_dir that cannot be written included), 3
numerical-solver failure (an errors.SolverError), 4 event-budget
exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import experiments, output
from .errors import BudgetExceeded, ConfigError, SolverError
from .fixed_point import solve_recursive, solve_shooting
from .model import (PARAM_FIELDS, ModelParams, ScalingLevel, _count,
                    validate_params)
from .ode import DEFAULT_TOL, integrate, uniform_grid
from .simulate import DEFAULT_MAX_EVENTS, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

REQUIRED = object()  # the default of an option that must be given

# {key: (kind, default, help)}. A kind is int, float or str, [int] or
# [float] for a list of numbers (comma-separated in a flag, a JSON array in
# the file), or a tuple of the allowed values. A callable default is
# computed from the options resolved before it. An option's flag is its key
# with "-" for "_", except --n for n_levels.
MODEL = {
    "n_levels": (int, REQUIRED, "number of price levels"),
    "lambda_b": (float, REQUIRED, "buyer arrival rate"),
    "lambda_s": (float, REQUIRED, "seller arrival rate"),
    "alpha": (float, REQUIRED, "move-rate constant"),
    "beta": (float, REQUIRED, "quit-rate constant (>= 0)"),
    "gamma": (float, REQUIRED, "trade-rate constant"),
    "price_labels": ([float], None,
                     "comma-separated strictly increasing price labels"),
}
COMMON = {  # every subcommand's; the file's top level may set them too
    "out_dir": (str, lambda o: f"lobfluid_out/{o['command']}",
                "output directory"),
    "seed": (int, 0, "master seed (default 0)"),
}
INITIAL = {
    "x0": ([float], None, "comma-separated initial x (default zeros)"),
    "y0": ([float], None, "comma-separated initial y (default zeros)"),
}
LEVELS = ([int], REQUIRED, "comma-separated scaling levels")
OPTIONS = {
    "simulate": {
        "scale": (int, REQUIRED, "scaling level L"),
        "tau_max": (float, REQUIRED, "horizon in scaled time"),
        "sample_dt": (float, lambda o: max(o["tau_max"], 1.0) / 100,
                      "sampling step in scaled time"),
        **INITIAL,
        "max_events": (int, DEFAULT_MAX_EVENTS, "event budget cap"),
    },
    "integrate": {
        "tau_max": (float, REQUIRED, None),
        "tol": (float, DEFAULT_TOL, "integrator rtol = atol"),
        "grid_step": (float, lambda o: (o["tau_max"] or 1) / 100,
                      "output grid step (default tau_max / 100, or 0.01 "
                      "at tau_max 0)"),
        **INITIAL,
    },
    "solve": {
        "method": (("recursive", "shooting", "both"), "both",
                   "solver: recursive, shooting or both (default both)"),
    },
    "converge": {
        "levels": LEVELS,
        "tau_horizon": (float, REQUIRED, "study horizon T in scaled time"),
        "replicas": (int, REQUIRED, None),
        "grid_step": (float, None, None),
        "workers": (int, 1, "parallel replica workers"),
        **INITIAL,
    },
    "equilibrium": {
        "levels": LEVELS,
        "burn_in": (float, REQUIRED, None),
        "n_samples": (int, REQUIRED, None),
        "sample_gap": (float, REQUIRED, None),
    },
    "sweep": {
        "lambda_s_values": ([float], REQUIRED,
                            "comma-separated increasing lambda_s grid"),
    },
}
# the schema's minimums that the library does not check, checked before
# the run; an int option not named here takes any integer, and the library
# checks its range
MINIMUM = {"seed": 0, "max_events": 1}


def _flag(key: str) -> str:
    return "--n" if key == "n_levels" else "--" + key.replace("_", "-")


# the flags whose value is a comma-separated list of numbers
LIST_FLAGS = {_flag(key) for table in (MODEL, *OPTIONS.values())
              for key, (kind, _, _) in table.items() if isinstance(kind, list)}


def _join_list_values(argv: list[str]) -> list[str]:
    """argv with each list flag whose value starts with "-", such as
    "--x0 -1,0", joined into one "--x0=-1,0" token. argparse takes a
    separate value that starts with "-" and is not a plain number for an
    option, and exits with "expected one argument". The parser takes no
    abbreviation, so a flag's full name is its only spelling."""
    out = []
    for arg in argv:
        if (out and out[-1] in LIST_FLAGS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: every flag has one spelling
    parser = argparse.ArgumentParser(
        prog="lobfluid",
        description="Order-book Markov chain, fluid ODE limit, and fixed points.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=COMMANDS[command][1],
                           allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override it)")
        # each value stays the flag's string: _parse reads and checks it
        for key, (_, _, text) in {**COMMON, **MODEL, **options}.items():
            p.add_argument(_flag(key), dest=key, help=text)
    return parser


# JSON's number grammar (RFC 8259, section 6), in ASCII digits
JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def _number(text: str):
    """A flag's text as the config file would hold it: where JSON's number
    grammar reads a number (JSON_NUMBER, between JSON's whitespace), an int
    without a fraction or exponent, else a float; else the text itself. So
    `+1`, `.5`, `1.`, `01`, `1_000` and `١٠٠`, which Python reads as
    numbers and JSON does not, stay text. A spelling that float reads as
    NaN or infinite (`nan`, `inf`) is that float, so it reaches the
    library's finiteness checks."""
    number = JSON_NUMBER.fullmatch(text.strip(" \t\n\r"))
    if number:
        return float(number[0]) if number[1] or number[2] else int(number[0])
    with suppress(ValueError):
        if not math.isfinite(value := float(text)):
            return value
    return text


def _parse(kind, value, key: str, from_flag: bool = False):
    """value checked against kind, the one reader of a flag's and the
    file's values. A flag's text (each comma-separated item for a list) is
    first read by _number. An int takes what model._count takes, an
    integral number such as 10.0, not 10.5, a bool or a string, of at least
    MINIMUM[key] for a key there; a float takes a number that is not a
    bool. A list takes a flag's comma-separated items or a file's JSON
    array, not a comma string; each item is checked as kind[0]."""
    if from_flag and kind is not str:
        value = ([_number(v) for v in value.split(",") if v.strip()]
                 if isinstance(kind, list) else _number(value))
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a JSON array of numbers, "
                              f"got {value!r}")
        return [_parse(kind[0], v, key) for v in value]
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ConfigError(f"{key} must be one of {', '.join(kind)}, "
                          f"got {value!r}")
    if kind is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if kind is int:
        return _count(value, key, minimum=MINIMUM.get(key), error=ConfigError)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, say, or no permission to read it
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    return cfg


def _config_block(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(
            f"config key \"{key}\" must be a JSON object, got {value!r}")
    return dict(value)


def resolve(args: dict) -> tuple[ModelParams, dict, Path]:
    """The run's model parameters, its options and its out_dir, from the
    parsed flags (a dict). The options are the command, the seed and the
    subcommand's own. Each model value and option comes from its flag, else
    its file block ("model" or the subcommand's), else (seed and out_dir)
    the file's top level, else its default; a null in the file counts as
    absent."""
    command = args["command"]
    cfg = _load_config(args["config"])
    unknown = set(cfg) - {"model", *COMMON, *OPTIONS}
    if unknown:
        raise ConfigError(
            f"unknown top-level config key(s): {', '.join(sorted(unknown))}")
    if (all(args[key] is None for key in MODEL)
            and not _config_block(cfg, "model")):
        raise ConfigError(
            "no model parameters given (flags --n/--lambda-b/... or a "
            "config file with a \"model\" block)"
        )
    opts = {"command": command}
    for name, table in (("model", MODEL),
                        (command, {**COMMON, **OPTIONS[command]})):
        block = _config_block(cfg, name)
        unknown = set(block) - set(table)
        if unknown:
            raise ConfigError(f"unknown config key(s) in \"{name}\": "
                              f"{', '.join(sorted(unknown))}")
        for key, (kind, default, _) in table.items():
            v = args[key]
            if v is None:
                v = block.get(key)
            if v is None and key in COMMON:
                v = cfg.get(key)
            if v is None:
                v = default(opts) if callable(default) else default
            if v is REQUIRED:
                raise ConfigError(
                    f"missing required option for {command}: {key}")
            if v is not None:
                v = _parse(kind, v, key, args[key] is not None)
            opts[key] = v
    params = validate_params({key: opts.pop(key) for key in MODEL})
    return params, opts, Path(opts.pop("out_dir"))


def _initial_pair(opts: dict, n: int) -> tuple[np.ndarray, ...]:
    """x0 and y0, zeros where not given; the library checks them."""
    return tuple(np.zeros(n) if opts[key] is None else np.asarray(opts[key])
                 for key in ("x0", "y0"))


def _fmt_vec(v: np.ndarray) -> str:
    return "(" + ", ".join(format(float(t), ".10g") for t in v) + ")"


def cmd_simulate(params: ModelParams, opts: dict, out: Path) -> dict:
    scale = ScalingLevel(opts["scale"])
    x0, y0 = _initial_pair(opts, params.n_levels)
    traj = simulate(params, scale, x0, y0, opts["tau_max"], opts["sample_dt"],
                    opts["seed"], max_events=opts["max_events"])
    output.write_trajectory_csv(out / "trajectory.csv", traj)
    print(f"simulated {traj.n_events} events over tau <= {opts['tau_max']} "
          f"at L={scale.l}")
    print(f"final scaled state x={_fmt_vec(traj.x[-1])} y={_fmt_vec(traj.y[-1])}")
    print(f"wrote {out / 'trajectory.csv'}")
    return {"x0": x0, "y0": y0, "n_events": traj.n_events,
            "counters": traj.counters,
            "final_scaled_x": traj.x[-1], "final_scaled_y": traj.y[-1]}


def cmd_integrate(params: ModelParams, opts: dict, out: Path) -> dict:
    tau_max, step = opts["tau_max"], opts["grid_step"]
    x0, y0 = _initial_pair(opts, params.n_levels)
    sol = integrate(x0, y0, params, tau_max, tol=opts["tol"],
                    grid=uniform_grid(tau_max, step, ("tau_max", "grid_step")))
    output.write_solution_csv(out / "solution.csv", sol)
    print(f"integrated to tau={tau_max} with {sol.n_rhs_evals} derivative evaluations")
    print(f"final state x={_fmt_vec(sol.x[-1])} y={_fmt_vec(sol.y[-1])}")
    print(f"wrote {out / 'solution.csv'}")
    return {"x0": x0, "y0": y0, "grid_step": step,
            "final_x": sol.x[-1], "final_y": sol.y[-1]}


def cmd_solve(params: ModelParams, opts: dict, out: Path) -> dict:
    method = opts["method"]
    results = {}
    if method in ("recursive", "both"):
        results["recursive"] = solve_recursive(params)
    if method in ("shooting", "both"):
        results["shooting"] = solve_shooting(params)
    summary = {}
    for name, fp in results.items():
        output.write_fixed_point_csv(out / f"fixed_point_{name}.csv", fp,
                                     params.gamma)
        summary[name] = {
            "ell": fp.ell, "regime": fp.regime,
            "trade_volume": fp.trade_volume, "residual": fp.residual,
            "iterations": fp.iterations, "solver": fp.solver,
        }
        print(f"[{name}] x* = {_fmt_vec(fp.x_star)}")
        print(f"[{name}] y* = {_fmt_vec(fp.y_star)}")
        print(f"[{name}] regime ({fp.regime}), ell = {fp.ell}, trade volume = "
              f"{fp.trade_volume:.10g}, residual = {fp.residual:.3g}")
    if len(results) == 2:
        gap = max(
            float(np.abs(results["recursive"].x_star
                         - results["shooting"].x_star).max()),
            float(np.abs(results["recursive"].y_star
                         - results["shooting"].y_star).max()),
        )
        summary["solver_sup_gap"] = gap
        print(f"solver agreement sup-gap = {gap:.3g}")
    return {"result": summary}


def cmd_converge(params: ModelParams, opts: dict, out: Path) -> dict:
    x0, y0 = _initial_pair(opts, params.n_levels)
    report = experiments.fluid_convergence(
        params, x0, y0, opts["levels"], opts["tau_horizon"], opts["replicas"],
        opts["seed"], grid_step=opts["grid_step"], workers=opts["workers"])
    output.write_convergence_csv(out / "convergence.csv", report)
    quartiles = report.quartiles
    for lv in opts["levels"]:
        q25, q50, q75 = quartiles[lv]
        print(f"L={lv}: sup-distance median {q50:.4g} (IQR {q25:.4g}..{q75:.4g})")
    print(f"wrote {out / 'convergence.csv'}")
    return {"x0": x0, "y0": y0, "grid_step": report.grid_step,
            "quartiles": {str(k): v for k, v in quartiles.items()}}


def cmd_equilibrium(params: ModelParams, opts: dict, out: Path) -> dict:
    report = experiments.equilibrium_concentration(
        params, opts["levels"], opts["burn_in"], opts["n_samples"],
        opts["sample_gap"], opts["seed"])
    output.write_equilibrium_csv(out / "equilibrium.csv", report)
    quartiles = report.quartiles
    for lv, (_, q50, _) in quartiles.items():
        print(f"L={lv}: equilibrium distance median {q50:.4g}")
    print(f"wrote {out / 'equilibrium.csv'}")
    return {"fixed_point_solver": report.fixed_point.solver,
            "quartiles": {str(k): v for k, v in quartiles.items()}}


def cmd_sweep(params: ModelParams, opts: dict, out: Path) -> dict:
    report = experiments.overproduction_sweep(params, opts["lambda_s_values"])
    output.write_sweep_csv(out / "sweep.csv", report)
    for v, ell, regime, vol, res in report.rows:
        print(f"lambda_s={v:g}: regime ({regime}), ell={ell}, "
              f"trade volume {vol:.10g}")
    onset = report.saturation_onset
    if onset is not None:
        print(f"saturation onset at lambda_s = {onset:g}")
    print(f"wrote {out / 'sweep.csv'}")
    return {"saturation_onset": onset}


# {command: (run, help)}: run runs the subcommand, writes its CSV into out
# and returns what the manifest adds to the options; help is its --help
# line, held as data since python -OO strips docstrings
COMMANDS = {
    "simulate": (cmd_simulate, "run one scaled chain trajectory"),
    "integrate": (cmd_integrate, "integrate the fluid ODE system"),
    "solve": (cmd_solve, "compute the fixed point"),
    "converge": (cmd_converge, "fluid-limit convergence study"),
    "equilibrium": (cmd_equilibrium, "equilibrium concentration study"),
    "sweep": (cmd_sweep, "overproduction sweep over lambda_s"),
}


def _check_out_dir(out: Path) -> None:
    """Raise ConfigError, creating nothing, if out_dir cannot become a
    directory: the nearest of it and its ancestors that exists is not one.
    What this cannot see (no permission, say) shows when the first file is
    written."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"cannot write into out_dir {out}: "
                                  f"{path} is not a directory")
            return


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _join_list_values(sys.argv[1:] if argv is None else argv))
    try:
        params, opts, out = resolve(vars(args))
        _check_out_dir(out)
        results = COMMANDS[args.command][0](params, opts, out)
        model = {k: getattr(params, k) for k in PARAM_FIELDS}
        output.write_manifest(out / "manifest.json",
                              {"model": model, **opts, **results})
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        if exc.filename is None:  # not from a file written into out_dir
            raise
        print(f"config error: cannot write into out_dir {out}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
