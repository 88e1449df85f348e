"""The four workloads: what one operation calls and how its output is checked.

`call` is the timed part and touches the program only through its public
functions, looked up on their modules at call time so that the traced run's
wrappers see every call. `check` runs after the timer stops and returns the
failure class of the operation (None when it passed) plus any counts the run
reports. lobfluid modules are imported inside the functions: the worker
imports each workload's `modules` during set-up, and nothing else, so a
workload that needs no ODE never pays for scipy through this file.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

RATES_ONE = ["--lambda-b", "1", "--lambda-s", "1",
             "--alpha", "1", "--beta", "1", "--gamma", "1"]
STUDY_LEVELS = (10, 100, 1000)
STUDY_ARGS = ["converge", "--n", "2", *RATES_ONE,
              "--levels", ",".join(map(str, STUDY_LEVELS)),
              "--tau-horizon", "5", "--replicas", "50", "--workers", "1"]
LONGCHAIN_N = 50
LONGCHAIN_TAU = 8.0
LONGCHAIN_BURN_IN = 4.0
LONGCHAIN_ARGS = ["simulate", "--n", str(LONGCHAIN_N), *RATES_ONE,
                  "--scale", "10000", "--tau-max", str(LONGCHAIN_TAU),
                  "--sample-dt", "0.002"]
AGREEMENT_TAU_MAX = 400.0
AGREEMENT_GAP = 1e-6
COMPARISON_TOL = 1e-8
DISTANCE_LIMIT = 0.1
RESIDUAL_REL = 1e-8
SOLVER_REL_GAP = 1e-6
COUNTER_FIELDS = ("trades", "buyer_quits", "seller_quits", "buyer_moves",
                  "seller_moves", "buyer_arrivals", "seller_arrivals",
                  "buyer_exit_top", "seller_exit_bottom")


def residual_bound(lambda_b: float, lambda_s: float) -> float:
    """Residual a returned fixed point may carry, relative to the arrivals."""
    return RESIDUAL_REL * max(1.0, lambda_b, lambda_s)


def _cli(argv: list[str]) -> int:
    import lobfluid.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _attempt(fn: Callable, *args, **kwargs):
    """Call fn, returning the package's typed error instead of raising it."""
    from lobfluid.errors import LobFluidError

    try:
        return fn(*args, **kwargs)
    except LobFluidError as exc:
        return exc


def _params(values: list):
    from lobfluid.model import ModelParams

    return ModelParams(*values)


# -- study -------------------------------------------------------------------

def study_call(op: dict, out_dir: str) -> int:
    return _cli([*STUDY_ARGS, "--seed", str(op["seed"]), "--out-dir", out_dir])


def study_check(op: dict, rc: int, out_dir: str) -> tuple[str | None, dict]:
    if rc != 0:
        return f"cli.exit_{rc}", {}
    dists: dict[int, list[float]] = {lv: [] for lv in STUDY_LEVELS}
    with open(Path(out_dir) / "convergence.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            dists[int(row["L"])].append(float(row["sup_dist"]))
    medians = [float(np.median(dists[lv])) for lv in STUDY_LEVELS]
    if not all(a > b for a, b in zip(medians, medians[1:])):
        return "study.medians_not_falling", {}
    if medians[-1] >= DISTANCE_LIMIT:
        return "study.median_at_top_level", {}
    return None, {}


# -- longchain ---------------------------------------------------------------

def longchain_call(op: dict, out_dir: str) -> int:
    return _cli([*LONGCHAIN_ARGS, "--seed", str(op["seed"]),
                 "--out-dir", out_dir])


@functools.cache
def _longchain_target():
    """Reference fixed point; checks run with tracing off, so the traced run
    does not count this solve."""
    import lobfluid.fixed_point as fixed_point

    fp = fixed_point.solve_recursive(_params([LONGCHAIN_N, 1.0, 1.0, 1.0, 1.0, 1.0]))
    return np.concatenate([fp.x_star, fp.y_star])


def longchain_check(op: dict, rc: int, out_dir: str) -> tuple[str | None, dict]:
    if rc != 0:
        return f"cli.exit_{rc}", {}
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    n_events = int(manifest["n_events"])
    counted = 0
    for name in COUNTER_FIELDS:
        v = manifest["counters"][name]
        counted += sum(v) if isinstance(v, list) else v
    extra = {"events": n_events}
    if counted != n_events:
        return "longchain.counters", extra
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    settled = rows[rows[:, 0] >= LONGCHAIN_BURN_IN, 1:]
    dist = np.sqrt(((settled - _longchain_target()) ** 2).sum(axis=1))
    if settled.shape[0] == 0 or float(np.median(dist)) >= DISTANCE_LIMIT:
        return "longchain.distance", extra
    return None, extra


# -- agreement ---------------------------------------------------------------

def agreement_call(op: dict, out_dir: str) -> dict:
    import lobfluid.fixed_point as fixed_point
    import lobfluid.ode as ode
    from lobfluid.model import FluidState

    p = _params(op["params"])
    zeros = np.zeros(p.n_levels)
    return {
        "recursive": _attempt(fixed_point.solve_recursive, p),
        "shooting": _attempt(fixed_point.solve_shooting, p),
        "ode": _attempt(ode.integrate_until_stationary, p, zeros, zeros,
                        tau_max=AGREEMENT_TAU_MAX),
        "comparison": _attempt(
            ode.check_comparison,
            FluidState(np.array(op["pair_a"][0]), np.array(op["pair_a"][1])),
            FluidState(np.array(op["pair_b"][0]), np.array(op["pair_b"][1])),
            p, op["tau_max"], tol=COMPARISON_TOL),
    }


def agreement_check(op: dict, res: dict, out_dir: str) -> tuple[str | None, dict]:
    for route, value in res.items():
        if isinstance(value, Exception):
            return f"{route}.{type(value).__name__}", {}
    state = res["ode"][0]
    points = [np.concatenate([res["recursive"].x_star, res["recursive"].y_star]),
              np.concatenate([res["shooting"].x_star, res["shooting"].y_star]),
              np.concatenate([state.x, state.y])]
    gap = max(float(np.abs(a - b).max())
              for i, a in enumerate(points) for b in points[i + 1:])
    if not gap < AGREEMENT_GAP:
        return "agreement.gap", {}
    if not res["comparison"].ok:
        return "comparison.violation", {}
    return None, {}


# -- solver-range ------------------------------------------------------------

def solver_range_call(op: dict, out_dir: str) -> dict:
    import lobfluid.fixed_point as fixed_point

    p = _params(op["params"])
    return {"recursive": _attempt(fixed_point.solve_recursive, p),
            "shooting": _attempt(fixed_point.solve_shooting, p)}


def solver_range_check(op: dict, res: dict, out_dir: str) -> tuple[str | None, dict]:
    for route, value in res.items():
        if isinstance(value, Exception):
            return f"{route}.{type(value).__name__}", {}
    _, lambda_b, lambda_s, *_ = op["params"]
    bound = residual_bound(lambda_b, lambda_s)
    for route, fp in res.items():
        if not fp.residual <= bound:
            return f"{route}.residual", {}
    r, s = res["recursive"], res["shooting"]
    scale = max(float(np.abs(r.x_star).max()), float(np.abs(r.y_star).max()))
    gap = max(float(np.abs(r.x_star - s.x_star).max()),
              float(np.abs(r.y_star - s.y_star).max()))
    if not gap <= SOLVER_REL_GAP * scale:
        return "solvers.disagree", {}
    return None, {}


@dataclass(frozen=True)
class Workload:
    modules: tuple[str, ...]  # what set-up imports, as a user's program would
    call: Callable[[dict, str], object]
    check: Callable[[dict, object, str], tuple[str | None, dict]]
    # failure classes that are open defects of the program at the seed
    # commit: counted in `failed`, but they do not make the run incorrect
    known_defects: frozenset = field(default_factory=frozenset)


WORKLOADS = {
    "study": Workload(("lobfluid.cli",), study_call, study_check),
    "longchain": Workload(("lobfluid.cli",), longchain_call, longchain_check),
    "agreement": Workload(("lobfluid.fixed_point", "lobfluid.ode"),
                          agreement_call, agreement_check),
    "solver-range": Workload(
        ("lobfluid.fixed_point",), solver_range_call, solver_range_check,
        frozenset({"recursive.NoConvergence", "shooting.residual"})),
}

