"""CSV and run-manifest writers.

Floats are written with 17 significant digits so CSV round-trips reproduce
the binary values exactly; line endings are fixed to '\\n' and nothing
time-dependent is ever written, so identical runs produce identical bytes.
State matrices (trajectories and ODE solutions) are streamed one row at a
time through the row format "%.17g,%.17g,...\\n" (1 + 2N fields: tau, x,
y); `%.17g` is the same C formatting as `format(v, ".17g")`, so these files
have the bytes `write_csv` would give them.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .experiments import ConvergenceReport, SweepReport
from .fixed_point import FixedPoint
from .ode import OdeSolution
from .simulate import Trajectory


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.random.SeedSequence):
        return {"entropy": obj.entropy, "spawn_key": list(obj.spawn_key)}
    return obj


def write_manifest(path, payload: dict) -> None:
    """Structured run record: effective config, seeds, grids, code version."""
    from . import __version__

    body = {"lobfluid_version": __version__, **_jsonable(payload)}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def state_header(n: int) -> list[str]:
    return (["tau"] + [f"x_{k}" for k in range(1, n + 1)]
            + [f"y_{k}" for k in range(1, n + 1)])


def _write_states_csv(path, taus, x, y) -> None:
    """Row i is taus[i], x[i], y[i]. Rows are converted to Python floats one
    at a time, so the whole matrix never is."""
    n = x.shape[1]
    line = ",".join(["%.17g"] * (1 + 2 * n)) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(state_header(n)) + "\n")
        for tau, x_row, y_row in zip(taus.tolist(), x, y):
            fh.write(line % (tau, *x_row.tolist(), *y_row.tolist()))


def write_solution_csv(path, sol: OdeSolution) -> None:
    _write_states_csv(path, sol.taus, sol.x, sol.y)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    _write_states_csv(path, traj.taus, traj.x, traj.y)


def write_fixed_point_csv(path, fp: FixedPoint, gamma: float) -> None:
    rows = []
    cum = 0.0
    mins = np.minimum(fp.x_star, fp.y_star)
    for k in range(fp.x_star.shape[0]):
        m = float(mins[k])
        cum += gamma * m
        rows.append([k + 1, fp.x_star[k], fp.y_star[k], m, cum])
    write_csv(path, ["level", "x_star", "y_star", "min_xy",
                     "cum_trade_volume"], rows)


def write_convergence_csv(path, report: ConvergenceReport) -> None:
    write_csv(path, ["L", "replica", "seed", "sup_dist"], report.rows)


def write_equilibrium_csv(path, report: ConvergenceReport) -> None:
    rows = ((level, idx, dist) for level, idx, _seed, dist in report.rows)
    write_csv(path, ["L", "sample_idx", "dist"], rows)


def write_sweep_csv(path, report: SweepReport) -> None:
    write_csv(path, ["lambda_s", "ell", "regime", "trade_volume", "residual"],
              report.rows)
