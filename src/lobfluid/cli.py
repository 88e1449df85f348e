"""Command-line entry point.

Subcommands: simulate, integrate, solve, converge, equilibrium, sweep.
Model parameters and subcommand options come from flags and/or a JSON config
file (flags override the file; see docs/run-config.schema.json). Every run
writes its artifacts plus a manifest.json echoing the effective
configuration into --out-dir, and prints a short human-readable summary to
stdout. Exit codes: 0 ok, 2 configuration error, 3 numerical-solver failure,
4 event-budget exhaustion.
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


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", dest="n_levels", type=int, help="number of price levels")
    p.add_argument("--lambda-b", dest="lambda_b", type=float,
                   help="buyer arrival rate")
    p.add_argument("--lambda-s", dest="lambda_s", type=float,
                   help="seller arrival rate")
    p.add_argument("--alpha", type=float, help="move-rate constant")
    p.add_argument("--beta", type=float, help="quit-rate constant (>= 0)")
    p.add_argument("--gamma", type=float, help="trade-rate constant")
    p.add_argument("--price-labels", dest="price_labels",
                   help="comma-separated strictly increasing price labels")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    _add_model_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobfluid",
        description="Order-book Markov chain, fluid ODE limit, and fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scaled chain trajectory")
    _add_common_flags(p)
    p.add_argument("--scale", type=int, help="scaling level L")
    p.add_argument("--tau-max", dest="tau_max", type=float,
                   help="horizon in scaled time")
    p.add_argument("--sample-dt", dest="sample_dt", type=float,
                   help="sampling step in scaled time")
    p.add_argument("--x0", help="comma-separated initial x (default zeros)")
    p.add_argument("--y0", help="comma-separated initial y (default zeros)")
    p.add_argument("--max-events", dest="max_events", type=int,
                   help="event budget cap")

    p = sub.add_parser("integrate", help="integrate the fluid ODE system")
    _add_common_flags(p)
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--tol", type=float, help="integrator rtol = atol")
    p.add_argument("--grid-step", dest="grid_step", type=float,
                   help="output grid step (default tau_max / 100)")
    p.add_argument("--x0", help="comma-separated initial x (default zeros)")
    p.add_argument("--y0", help="comma-separated initial y (default zeros)")

    p = sub.add_parser("solve", help="compute the fixed point")
    _add_common_flags(p)
    p.add_argument("--method", choices=["recursive", "shooting", "both"],
                   help="solver choice (default both)")

    p = sub.add_parser("converge", help="fluid-limit convergence study")
    _add_common_flags(p)
    p.add_argument("--levels", help="comma-separated scaling levels")
    p.add_argument("--tau-horizon", dest="tau_horizon", type=float,
                   help="study horizon T in scaled time")
    p.add_argument("--replicas", type=int)
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--workers", type=int, help="parallel replica workers")
    p.add_argument("--x0", help="comma-separated initial x (default zeros)")
    p.add_argument("--y0", help="comma-separated initial y (default zeros)")

    p = sub.add_parser("equilibrium", help="equilibrium concentration study")
    _add_common_flags(p)
    p.add_argument("--levels", help="comma-separated scaling levels")
    p.add_argument("--burn-in", dest="burn_in", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--sample-gap", dest="sample_gap", type=float)

    p = sub.add_parser("sweep", help="overproduction sweep over lambda_s")
    _add_common_flags(p)
    p.add_argument("--lambda-s-values", dest="lambda_s_values",
                   help="comma-separated increasing lambda_s grid")
    return parser


def _parse_floats(value) -> list[float]:
    """Numbers from a comma-separated string or a config-file JSON list."""
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [v for v in str(value).split(",") if v.strip()]
    try:
        return [float(v) for v in items]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected numbers, got {value!r}") from exc


def _parse_int(value, key: str) -> int:
    """An integer option: integral numbers such as 10.0 are accepted,
    anything else is a ConfigError rather than a silent truncation."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _parse_ints(value, key: str) -> list[int]:
    return [_parse_int(v, key) for v in _parse_floats(value)]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
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


class Effective:
    """Flag-over-file option resolution for one subcommand run."""

    def __init__(self, args: argparse.Namespace, command: str):
        cfg = _load_config(args.config)
        self.command = command
        self.args = vars(args)
        unknown = set(cfg) - {"model", "seed", "out_dir", *COMMANDS}
        if unknown:
            raise ConfigError(
                f"unknown top-level config key(s): {', '.join(sorted(unknown))}")
        self.file_model = _config_block(cfg, "model")
        self.file_block = _config_block(cfg, command)
        # a block holds the subcommand's own options, and may set seed/out_dir
        own = set(self.args) - {"command", "config", *PARAM_FIELDS}
        unknown = set(self.file_block) - own
        if unknown:
            raise ConfigError(f"unknown config key(s) in \"{command}\": "
                              f"{', '.join(sorted(unknown))}")
        self.file_top = cfg

    def model_params(self) -> ModelParams:
        merged = dict(self.file_model)
        for key in PARAM_FIELDS:
            v = self.args.get(key)
            if v is not None:
                merged[key] = v
        if merged.get("price_labels") is not None:
            merged["price_labels"] = tuple(_parse_floats(merged["price_labels"]))
        if not merged:
            raise ConfigError(
                "no model parameters given (flags --n/--lambda-b/... or a "
                "config file with a \"model\" block)"
            )
        try:
            return validate_params(merged)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def get(self, key: str, default=None, required: bool = False):
        v = self.args.get(key)
        if v is None:
            v = self.file_block.get(key)
        if v is None and key in ("seed", "out_dir"):
            v = self.file_top.get(key)
        if v is None:
            v = default
        if v is None and required:
            raise ConfigError(f"missing required option for {self.command}: {key}")
        return v

    def get_int(self, key: str, default=None, required: bool = False,
                minimum: int | None = None) -> int:
        v = _parse_int(self.get(key, default, required), key)
        if minimum is not None and v < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {v}")
        return v

    def out_dir(self) -> Path:
        return Path(self.get("out_dir", default=f"lobfluid_out/{self.command}"))

    def seed(self) -> int:
        return self.get_int("seed", default=0)

    def echo(self, params: ModelParams, extras: dict) -> dict:
        model = {k: getattr(params, k) for k in PARAM_FIELDS}
        return {"command": self.command, "model": model,
                "seed": self.seed(), **extras}


def _initial_pair(eff: Effective, n: int) -> tuple[np.ndarray, np.ndarray]:
    x0 = eff.get("x0")
    y0 = eff.get("y0")
    x0 = np.zeros(n) if x0 is None else np.asarray(_parse_floats(x0))
    y0 = np.zeros(n) if y0 is None else np.asarray(_parse_floats(y0))
    if x0.shape != (n,) or y0.shape != (n,):
        raise ConfigError(f"x0/y0 must have exactly {n} entries")
    return x0, y0


def _fmt_vec(v: np.ndarray) -> str:
    return "(" + ", ".join(format(float(t), ".10g") for t in v) + ")"


def cmd_simulate(eff: Effective) -> int:
    params = eff.model_params()
    scale = ScalingLevel(eff.get_int("scale", required=True))
    tau_max = float(eff.get("tau_max", required=True))
    sample_dt = float(eff.get("sample_dt", default=max(tau_max, 1.0) / 100))
    max_events = eff.get_int("max_events", default=DEFAULT_MAX_EVENTS,
                             minimum=1)
    x0, y0 = _initial_pair(eff, params.n_levels)
    traj = simulate(params, scale, x0, y0, tau_max, sample_dt, eff.seed(),
                    max_events=max_events)
    out = eff.out_dir()
    output.write_trajectory_csv(out / "trajectory.csv", traj)
    output.write_manifest(out / "manifest.json", eff.echo(params, {
        "scale": scale.l, "tau_max": tau_max, "sample_dt": sample_dt,
        "max_events": max_events, "x0": x0, "y0": y0,
        "n_events": traj.n_events,
        "counters": traj.counters,
        "final_scaled_x": traj.x[-1], "final_scaled_y": traj.y[-1],
    }))
    print(f"simulated {traj.n_events} events over tau <= {tau_max} at L={scale.l}")
    print(f"final scaled state x={_fmt_vec(traj.x[-1])} y={_fmt_vec(traj.y[-1])}")
    print(f"wrote {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_integrate(eff: Effective) -> int:
    params = eff.model_params()
    tau_max = float(eff.get("tau_max", required=True))
    tol = float(eff.get("tol", default=DEFAULT_TOL))
    x0, y0 = _initial_pair(eff, params.n_levels)
    grid = step = None
    if tau_max > 0:
        step = float(eff.get("grid_step", default=tau_max / 100))
        grid = uniform_grid(tau_max, step)
    sol = integrate(x0, y0, params, tau_max, tol=tol, grid=grid)
    out = eff.out_dir()
    output.write_solution_csv(out / "solution.csv", sol)
    output.write_manifest(out / "manifest.json", eff.echo(params, {
        "tau_max": tau_max, "tol": tol, "x0": x0, "y0": y0,
        "grid_step": step,
        "final_x": sol.x[-1], "final_y": sol.y[-1],
    }))
    print(f"integrated to tau={tau_max} with {sol.n_rhs_evals} derivative evaluations")
    print(f"final state x={_fmt_vec(sol.x[-1])} y={_fmt_vec(sol.y[-1])}")
    print(f"wrote {out / 'solution.csv'}")
    return EXIT_OK


def cmd_solve(eff: Effective) -> int:
    params = eff.model_params()
    method = eff.get("method", default="both")
    out = eff.out_dir()
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
    output.write_manifest(out / "manifest.json", eff.echo(params, {
        "method": method, "result": summary,
    }))
    return EXIT_OK


def cmd_converge(eff: Effective) -> int:
    params = eff.model_params()
    levels = _parse_ints(eff.get("levels", required=True), "levels")
    T = float(eff.get("tau_horizon", required=True))
    replicas = eff.get_int("replicas", required=True)
    grid_step = eff.get("grid_step")
    workers = eff.get_int("workers", default=1, minimum=1)
    x0, y0 = _initial_pair(eff, params.n_levels)
    report = experiments.fluid_convergence(
        params, x0, y0, levels, T, replicas, eff.seed(),
        grid_step=None if grid_step is None else float(grid_step),
        workers=workers,
    )
    out = eff.out_dir()
    output.write_convergence_csv(out / "convergence.csv", report)
    output.write_manifest(out / "manifest.json", eff.echo(params, {
        "levels": levels, "tau_horizon": T, "replicas": replicas,
        "grid_step": report.grid_step, "workers": workers,
        "x0": x0, "y0": y0,
        "quartiles": {str(k): v for k, v in report.quartiles.items()},
    }))
    for lv in levels:
        q25, q50, q75 = report.quartiles[lv]
        print(f"L={lv}: sup-distance median {q50:.4g} (IQR {q25:.4g}..{q75:.4g})")
    print(f"wrote {out / 'convergence.csv'}")
    return EXIT_OK


def cmd_equilibrium(eff: Effective) -> int:
    params = eff.model_params()
    levels = _parse_ints(eff.get("levels", required=True), "levels")
    burn_in = float(eff.get("burn_in", required=True))
    n_samples = eff.get_int("n_samples", required=True)
    sample_gap = float(eff.get("sample_gap", required=True))
    report = experiments.equilibrium_concentration(
        params, levels, burn_in, n_samples, sample_gap, eff.seed())
    out = eff.out_dir()
    output.write_equilibrium_csv(out / "equilibrium.csv", report)
    output.write_manifest(out / "manifest.json", eff.echo(params, {
        "levels": levels, "burn_in": burn_in, "n_samples": n_samples,
        "sample_gap": sample_gap,
        "fixed_point_solver": report.fixed_point.solver,
        "quartiles": {str(k): v for k, v in report.quartiles.items()},
    }))
    for lv in levels:
        if lv in report.quartiles:
            print(f"L={lv}: equilibrium distance median "
                  f"{report.quartiles[lv][1]:.4g}")
    print(f"wrote {out / 'equilibrium.csv'}")
    return EXIT_OK


def cmd_sweep(eff: Effective) -> int:
    params = eff.model_params()
    values = _parse_floats(eff.get("lambda_s_values", required=True))
    report = experiments.overproduction_sweep(params, values)
    out = eff.out_dir()
    output.write_sweep_csv(out / "sweep.csv", report)
    output.write_manifest(out / "manifest.json", eff.echo(params, {
        "lambda_s_values": values,
        "saturation_onset": report.saturation_onset,
    }))
    for v, ell, regime, vol, res in report.rows:
        print(f"lambda_s={v:g}: regime ({regime}), ell={ell}, "
              f"trade volume {vol:.10g}")
    if report.saturation_onset is not None:
        print(f"saturation onset at lambda_s = {report.saturation_onset:g}")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "integrate": cmd_integrate,
    "solve": cmd_solve,
    "converge": cmd_converge,
    "equilibrium": cmd_equilibrium,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eff = Effective(args, args.command)
        return COMMANDS[args.command](eff)
    except (ConfigError, ParamError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResidualTooLarge, NonMonotoneInput, InvariantViolation,
            StepUnderflow, NegativeState) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
