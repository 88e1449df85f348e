"""CSV and run-manifest writers.

Floats are written with 17 significant digits so CSV round-trips reproduce
the binary values exactly; line endings are fixed to '\\n' and nothing
time-dependent is ever written, so identical runs produce identical bytes.
Every CSV goes through one row format per file, applied with `%` one row
at a time: `%.17g` for floats (the same C formatting as
`format(v, ".17g")`), `%d` for integers and `%s` for labels, which never
hold a comma, quote or newline. State matrices (trajectories and ODE
solutions) use "%.17g,%.17g,...\\n" (1 + 2N fields: tau, x, y).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .experiments import ConvergenceReport, SweepReport
from .fixed_point import FixedPoint
from .ode import OdeSolution
from .simulate import Trajectory


def _write_rows(path, header: list[str], line: str, rows) -> None:
    """The header, then `line % row` for each row (a tuple)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % row)


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
    return obj


def write_manifest(path, payload: dict) -> None:
    """Structured run record: effective config, seeds, grids, code version.

    The record is strict JSON: a NaN or infinite value raises ValueError
    before anything is written.
    """
    from . import __version__

    body = {"lobfluid_version": __version__, **_jsonable(payload)}
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def state_header(n: int) -> list[str]:
    return (["tau"] + [f"x_{k}" for k in range(1, n + 1)]
            + [f"y_{k}" for k in range(1, n + 1)])


def _write_states_csv(path, taus, x, y) -> None:
    """Row i is taus[i], x[i], y[i]. Rows are converted to Python floats one
    at a time, so the whole matrix never is."""
    n = x.shape[1]
    line = ",".join(["%.17g"] * (1 + 2 * n)) + "\n"
    rows = ((tau, *x_row.tolist(), *y_row.tolist())
            for tau, x_row, y_row in zip(taus.tolist(), x, y))
    _write_rows(path, state_header(n), line, rows)


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
        rows.append((k + 1, fp.x_star[k], fp.y_star[k], m, cum))
    _write_rows(path, ["level", "x_star", "y_star", "min_xy",
                       "cum_trade_volume"], "%d,%.17g,%.17g,%.17g,%.17g\n", rows)


def write_convergence_csv(path, report: ConvergenceReport) -> None:
    _write_rows(path, ["L", "replica", "seed", "sup_dist"],
                "%d,%d,%s,%.17g\n", report.rows)


def write_equilibrium_csv(path, report: ConvergenceReport) -> None:
    rows = ((level, idx, dist) for level, idx, _seed, dist in report.rows)
    _write_rows(path, ["L", "sample_idx", "dist"], "%d,%d,%.17g\n", rows)


def write_sweep_csv(path, report: SweepReport) -> None:
    _write_rows(path, ["lambda_s", "ell", "regime", "trade_volume", "residual"],
                "%.17g,%d,%s,%.17g,%.17g\n", report.rows)
