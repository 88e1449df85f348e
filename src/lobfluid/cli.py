"""Command-line entry point.

Subcommands: simulate, integrate, solve, converge, equilibrium, sweep.
Every option is declared once, as (kind, default, help) in a table: MODEL
for the model parameters, COMMON for seed and out_dir, and
OPTIONS[command] for a subcommand's own options. The tables build the
parser, and `resolve` takes each value from its flag, else from the JSON
config file's block for the subcommand, else (seed and out_dir) from the
file's top level, else from the table's default, and checks it against its
kind (see docs/run-config.schema.json). Every run writes its artifacts plus
a manifest.json, the resolved options and the run's results, into out_dir,
and prints a short human-readable summary to stdout. Exit codes: 0 ok, 2
configuration error (an out_dir that cannot be written included), 3
numerical-solver failure, 4 event-budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, output
from .errors import (
    BudgetExceeded,
    ConfigError,
    InvariantViolation,
    NegativeState,
    NonMonotoneInput,
    ParamError,
    ResidualTooLarge,
    StepUnderflow,
)
from .fixed_point import solve_recursive, solve_shooting
from .model import PARAM_FIELDS, ModelParams, ScalingLevel, validate_params
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
MODEL = {  # a parameter missing altogether is left to validate_params
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
        "grid_step": (float, lambda o: o["tau_max"] / 100,
                      "output grid step (default tau_max / 100)"),
        **INITIAL,
    },
    "solve": {
        "method": (("recursive", "shooting", "both"), "both",
                   "solver choice (default both)"),
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
# lower bounds checked here; the library checks the other options' ranges
MINIMUM = {"max_events": 1, "workers": 1}


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
        p = sub.add_parser(command, help=COMMANDS[command].__doc__,
                           allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, (kind, _, text) in {**COMMON, **MODEL, **options}.items():
            p.add_argument(_flag(key), dest=key, help=text,
                           type=kind if kind in (int, float) else None,
                           choices=kind if isinstance(kind, tuple) else None)
    return parser


def _parse(kind, value, key: str, from_flag: bool = False):
    """value checked against kind. An int takes integral numbers such as
    10.0, not 10.5, a bool or a string; a float takes a number that is not a
    bool. A list takes a flag's comma-separated numbers or a file's JSON
    array, not a comma string; each item is checked as kind[0]."""
    if isinstance(kind, list):
        if from_flag:
            try:
                value = [float(v) for v in value.split(",") if v.strip()]
            except ValueError:
                raise ConfigError(f"{key} must be comma-separated numbers, "
                                  f"got {value!r}") from None
        elif not isinstance(value, list):
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
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{key} must be an integer, got {value!r}")
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


def _model_params(file_model: dict, args: dict) -> ModelParams:
    """The file's model block with the model flags over it. A null is
    an error except where the default is None (price_labels)."""
    flags = {key: args[key] for key in MODEL if args[key] is not None}
    merged = {**file_model, **flags}
    for key, v in merged.items():  # an unknown key is left to validate_params
        if key in MODEL and (v is not None or MODEL[key][1] is REQUIRED):
            merged[key] = _parse(MODEL[key][0], v, key, key in flags)
    if not merged:
        raise ConfigError(
            "no model parameters given (flags --n/--lambda-b/... or a "
            "config file with a \"model\" block)"
        )
    try:
        return validate_params(merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def resolve(args: dict) -> tuple[ModelParams, dict, Path]:
    """The run's model parameters, its options and its out_dir, from the
    parsed flags (a dict). The options are the command, the seed and the
    subcommand's own, each from its flag, else the file's block for the
    subcommand, else (seed and out_dir) the file's top level, else its
    default; a null in the file counts as absent."""
    command = args["command"]
    cfg = _load_config(args["config"])
    unknown = set(cfg) - {"model", *COMMON, *OPTIONS}
    if unknown:
        raise ConfigError(
            f"unknown top-level config key(s): {', '.join(sorted(unknown))}")
    file_model = _config_block(cfg, "model")
    block = _config_block(cfg, command)
    table = {**COMMON, **OPTIONS[command]}
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown config key(s) in \"{command}\": "
                          f"{', '.join(sorted(unknown))}")
    params = _model_params(file_model, args)
    opts = {"command": command}
    for key, (kind, default, _) in table.items():
        v = args[key]
        if v is None:
            v = block.get(key)
        if v is None and key in COMMON:
            v = cfg.get(key)
        if v is None:
            v = default(opts) if callable(default) else default
        if v is REQUIRED:
            raise ConfigError(f"missing required option for {command}: {key}")
        if v is not None:
            v = _parse(kind, v, key, args[key] is not None)
        if key in MINIMUM and v < MINIMUM[key]:
            raise ConfigError(f"{key} must be >= {MINIMUM[key]}, got {v}")
        opts[key] = v
    return params, opts, Path(opts.pop("out_dir"))


def _initial_pair(opts: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    x0, y0 = (np.zeros(n) if opts[key] is None else np.asarray(opts[key])
              for key in ("x0", "y0"))
    if x0.shape != (n,) or y0.shape != (n,):
        raise ConfigError(f"x0/y0 must have exactly {n} entries")
    return x0, y0


def _fmt_vec(v: np.ndarray) -> str:
    return "(" + ", ".join(format(float(t), ".10g") for t in v) + ")"


def cmd_simulate(params: ModelParams, opts: dict, out: Path) -> dict:
    """run one scaled chain trajectory"""
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
    """integrate the fluid ODE system"""
    tau_max = opts["tau_max"]
    x0, y0 = _initial_pair(opts, params.n_levels)
    grid = step = None
    if tau_max > 0:
        step = opts["grid_step"]
        grid = uniform_grid(tau_max, step)
    sol = integrate(x0, y0, params, tau_max, tol=opts["tol"], grid=grid)
    output.write_solution_csv(out / "solution.csv", sol)
    print(f"integrated to tau={tau_max} with {sol.n_rhs_evals} derivative evaluations")
    print(f"final state x={_fmt_vec(sol.x[-1])} y={_fmt_vec(sol.y[-1])}")
    print(f"wrote {out / 'solution.csv'}")
    return {"x0": x0, "y0": y0, "grid_step": step,
            "final_x": sol.x[-1], "final_y": sol.y[-1]}


def cmd_solve(params: ModelParams, opts: dict, out: Path) -> dict:
    """compute the fixed point"""
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
    """fluid-limit convergence study"""
    x0, y0 = _initial_pair(opts, params.n_levels)
    report = experiments.fluid_convergence(
        params, x0, y0, opts["levels"], opts["tau_horizon"], opts["replicas"],
        opts["seed"], grid_step=opts["grid_step"], workers=opts["workers"])
    output.write_convergence_csv(out / "convergence.csv", report)
    for lv in opts["levels"]:
        q25, q50, q75 = report.quartiles[lv]
        print(f"L={lv}: sup-distance median {q50:.4g} (IQR {q25:.4g}..{q75:.4g})")
    print(f"wrote {out / 'convergence.csv'}")
    return {"x0": x0, "y0": y0, "grid_step": report.grid_step,
            "quartiles": {str(k): v for k, v in report.quartiles.items()}}


def cmd_equilibrium(params: ModelParams, opts: dict, out: Path) -> dict:
    """equilibrium concentration study"""
    report = experiments.equilibrium_concentration(
        params, opts["levels"], opts["burn_in"], opts["n_samples"],
        opts["sample_gap"], opts["seed"])
    output.write_equilibrium_csv(out / "equilibrium.csv", report)
    for lv in opts["levels"]:
        if lv in report.quartiles:
            print(f"L={lv}: equilibrium distance median "
                  f"{report.quartiles[lv][1]:.4g}")
    print(f"wrote {out / 'equilibrium.csv'}")
    return {"fixed_point_solver": report.fixed_point.solver,
            "quartiles": {str(k): v for k, v in report.quartiles.items()}}


def cmd_sweep(params: ModelParams, opts: dict, out: Path) -> dict:
    """overproduction sweep over lambda_s"""
    report = experiments.overproduction_sweep(params, opts["lambda_s_values"])
    output.write_sweep_csv(out / "sweep.csv", report)
    for v, ell, regime, vol, res in report.rows:
        print(f"lambda_s={v:g}: regime ({regime}), ell={ell}, "
              f"trade volume {vol:.10g}")
    if report.saturation_onset is not None:
        print(f"saturation onset at lambda_s = {report.saturation_onset:g}")
    print(f"wrote {out / 'sweep.csv'}")
    return {"saturation_onset": report.saturation_onset}


# each runs its subcommand, writes its CSV into out and returns what the
# manifest adds to the options; its docstring is its --help line
COMMANDS = {
    "simulate": cmd_simulate,
    "integrate": cmd_integrate,
    "solve": cmd_solve,
    "converge": cmd_converge,
    "equilibrium": cmd_equilibrium,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        _join_list_values(sys.argv[1:] if argv is None else argv))
    try:
        params, opts, out = resolve(vars(args))
        results = COMMANDS[args.command](params, opts, out)
        model = {k: getattr(params, k) for k in PARAM_FIELDS}
        output.write_manifest(out / "manifest.json",
                              {"model": model, **opts, **results})
    except (ConfigError, ParamError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        if exc.filename is None:  # not from a file written into out_dir
            raise
        print(f"config error: cannot write into out_dir {out}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ResidualTooLarge, NonMonotoneInput, InvariantViolation,
            StepUnderflow, NegativeState) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
