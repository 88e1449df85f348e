"""CSV and run-manifest writers.

Floats are written with 17 significant digits so CSV round-trips reproduce
the binary values exactly; line endings are fixed to '\\n' and nothing
time-dependent is ever written, so identical runs produce identical bytes.
Every float is written as `"%.17g" % v` (the same C formatting as
`format(v, ".17g")`), every integer as `%d` and every label as `%s`;
labels never hold a comma, quote or newline. Each CSV has one row
format, which `_write_rows` applies with one `%` per row. The state CSVs
(trajectories and ODE solutions, 1 + 2N fields per row: tau, x, y) are
written by the writer `_c_write` returns, loaded at the first state CSV
of a process, which runs the writer's load-time check alone: the C
writer `states` of the extension `lobfluid._cext`, which formats each
cell with the call that `%` makes and caches the texts by 64-bit
pattern, so each distinct value of a trajectory, which is mostly zeros
and repeats few values, is formatted about once. Where it cannot run (no
compiler `cc`, no `Python.h`, a failed build or check), its one Python
twin `_python_states`, on the same arguments, hands the file the rows of
`_state_rows` in the format `_state_line`, one row at a time; it is
also the check's oracle.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from pathlib import Path

import numpy as np

from .experiments import ConvergenceReport, SweepReport
from .fixed_point import FixedPoint
from .ode import OdeSolution
from .simulate import Trajectory


@contextlib.contextmanager
def _csv_file(path, header: list[str]):
    """An open text file, '\\n' line endings, its header line written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        yield fh


def _write_rows(path, header: list[str], line: str, rows) -> None:
    """The header, then `line % row` for each row (a tuple)."""
    with _csv_file(path, header) as fh:
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


@functools.cache
def _c_write():
    """The state CSV writer: the C one (`_cext.load("states",
    _python_states)`), or its twin where it cannot run; loaded, and built
    where it is not cached, at the first state CSV of the process."""
    from . import _cext
    return _cext.load("states", _python_states)


def _state_line(n: int) -> str:
    """The row format of a state CSV of n levels: 1 + 2n `%.17g` fields."""
    return ",".join(["%.17g"] * (1 + 2 * n)) + "\n"


def _state_rows(taus, x, y):
    """Row i as a tuple: taus[i], then x[i], then y[i]; one row's values
    are made at a time, so memory does not grow with the rows."""
    for tau, xi, yi in zip(taus, x, y):
        yield (tau, *xi.tolist(), *yi.tolist())


def _python_states(write, taus, x, y) -> None:
    """The C writer's Python twin, on its arguments: hands write the bytes
    of each row of `_state_rows` in the format `_state_line`."""
    line = _state_line(x.shape[1])
    for row in _state_rows(taus, x, y):
        write((line % row).encode())


def _write_states_csv(path, taus, x, y) -> None:
    """Row i is taus[i], x[i], y[i], each value `"%.17g" % v`, handed to
    the file's binary buffer by the writer `_c_write` returns: the C one
    reads the float64 arrays (views are not copied) and hands the text in
    chunks."""
    taus, x, y = (np.asarray(v, dtype=np.float64) for v in (taus, x, y))
    with _csv_file(path, state_header(x.shape[1])) as fh:
        fh.flush()  # the header, before the bytes written below it
        _c_write()(fh.buffer.write, taus, x, y)


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
