"""CSV and run-manifest writers.

Floats are written with 17 significant digits so CSV round-trips reproduce
the binary values exactly; line endings are fixed to '\\n' and nothing
time-dependent is ever written, so identical runs produce identical bytes.
Every float is written as `"%.17g" % v` (the same C formatting as
`format(v, ".17g")`), every integer as `%d` and every label as `%s`;
labels never hold a comma, quote or newline. The four small CSVs apply
one row format per file with `%`, one row at a time. State matrices
(trajectories and ODE solutions, 1 + 2N fields per row: tau, x, y) are
written by the C writer `states` of the extension `lobfluid._cext`
(`_c_write`, loaded at the first state CSV of a process, which runs the
writer's load-time check alone): it formats each cell with the call that
`%` makes and caches the texts by 64-bit pattern, so each distinct value
of a trajectory, which is mostly zeros and repeats few values, is
formatted about once. Where it cannot run (no compiler `cc`, no
`Python.h`, a failed build or load-time check), `_write_state_blocks`
applies the per-row format itself, to blocks of `BLOCK_ROWS` rows with
one `%` each. Either way, the bytes are those of the per-row format.
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


# Rows per block of a state CSV in the Python block writer, the C
# writer's fallback. The block bounds the writer's memory and does not
# set its speed: on the benchmark's 4,001 x 101 trajectory (a shared
# 2-core Xeon, Python 3.11, numpy 2.4) the medians of three runs of
# alternating writes at 32 to 512 rows came in no fixed order, 76 to
# 113 ms, while one write in a fresh process raised max RSS by 0.13,
# 0.38, 1.17 and 3.0 MiB at 64, 128, 256 and 512 rows (0.13 and 2.3 MiB
# at 64 and 256 on a distinct-valued solution of that size). 64 keeps
# the memory near nothing (CHANGES.md has the runs)
BLOCK_ROWS = 64


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
    """The state CSV writer in C (`_cext.load("states")`), or None where
    it cannot run; loaded, and built where it is not cached, at the first
    state CSV of the process."""
    from . import _cext
    return _cext.load("states")


def _write_states_csv(path, taus, x, y) -> None:
    """Row i is taus[i], x[i], y[i], each value `"%.17g" % v`: by the C
    writer, which reads the float64 arrays (views are not copied) and
    hands the text to the file in chunks, else by `_write_state_blocks`."""
    states = _c_write()
    if states is None:
        _write_state_blocks(path, taus, x, y)
        return
    taus, x, y = (np.asarray(v, dtype=np.float64) for v in (taus, x, y))
    with _csv_file(path, state_header(x.shape[1])) as fh:
        fh.flush()  # the header, before the bytes written below it
        states(fh.buffer.write, taus, x, y)


def _write_state_blocks(path, taus, x, y) -> None:
    """Row i is taus[i], x[i], y[i], each value `"%.17g" % v`.

    Each block of BLOCK_ROWS rows is copied into one float64 matrix and
    written with one `%` of the per-row format, repeated for its rows, so
    memory stays that of one block, whatever the row count.
    """
    n = x.shape[1]
    line = ",".join(["%.17g"] * (1 + 2 * n)) + "\n"
    block = np.empty((min(len(taus), BLOCK_ROWS), 1 + 2 * n))
    with _csv_file(path, state_header(n)) as fh:
        for start in range(0, len(taus), BLOCK_ROWS):
            rows = block[:len(taus) - start]
            stop = start + rows.shape[0]
            rows[:, 0] = taus[start:stop]
            rows[:, 1:1 + n] = x[start:stop]
            rows[:, 1 + n:] = y[start:stop]
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


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
