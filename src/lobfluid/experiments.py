"""Scripted numerical studies: fluid-limit convergence, equilibrium
concentration, and the overproduction saturation sweep.

All randomness flows from one master seed through numpy SeedSequence spawn
keys, one stream per (scaling level, replica), so every study is exactly
reproducible and replicas can run in any order or in parallel without
changing the output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fixed_point import FixedPoint, solve_recursive
from .model import ModelParams, ScalingLevel
from .ode import integrate, uniform_grid
from .simulate import simulate, empirical_equilibrium

__all__ = ["ConvergenceReport", "SweepReport", "fluid_convergence",
           "equilibrium_concentration", "overproduction_sweep"]


@dataclass
class ConvergenceReport:
    """Per-level distance samples with their quartiles.

    rows: one (L, index, seed_label, distance) tuple per replica or
    equilibrium sample, in deterministic order. quartiles: L -> (q25, q50,
    q75) of the distances at that level. grid_step is the shared ODE grid's
    step of a convergence study; fixed_point is the target an equilibrium
    study measured against.
    """

    levels: list[int]
    rows: list[tuple[int, int, str, float]]
    quartiles: dict[int, tuple[float, float, float]]
    grid_step: float | None = None
    fixed_point: FixedPoint | None = None

    def distances(self, level: int) -> np.ndarray:
        return np.array([r[3] for r in self.rows if r[0] == level])

    def medians(self) -> list[float]:
        return [self.quartiles[lv][1] for lv in self.levels]


@dataclass
class SweepReport:
    """Fixed-point summaries along an increasing lambda_s grid.

    saturation_onset is the first swept value whose fixed point has ell = 0
    (sellers dominate at every level), or None if the sweep never gets there.
    """

    lambda_s_values: list[float]
    rows: list[tuple[float, int, str, float, float]]
    saturation_onset: float | None


def _seed_label(master_seed: int, *key: int) -> str:
    return ":".join(str(v) for v in (master_seed, *key))


def _spawned_rng_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


def _sup_distance(traj_x, traj_y, ode_x, ode_y) -> float:
    gaps = np.hstack([traj_x - ode_x, traj_y - ode_y])
    return float(np.sqrt((gaps * gaps).sum(axis=1)).max())


def _convergence_replica(args) -> tuple[int, int, float]:
    params, level, i, j, master_seed, x0, y0, T, dt, ode_x, ode_y = args
    traj = simulate(params, ScalingLevel(level), x0, y0, T, dt,
                    _spawned_rng_seed(master_seed, i, j))
    return i, j, _sup_distance(traj.x, traj.y, ode_x, ode_y)


def fluid_convergence(
    params: ModelParams,
    x0: np.ndarray,
    y0: np.ndarray,
    levels: list[int],
    T: float,
    replicas: int,
    master_seed: int,
    grid_step: float | None = None,
    workers: int = 1,
) -> ConvergenceReport:
    """Sup-distance of the scaled chain from the fluid solution over [0, T].

    The ODE is integrated once on a shared grid (default step 0.01 * T); each
    replica's sup is taken over that grid using the Euclidean distance on the
    concatenated 2N-vector. The sup between grid points is dominated by Monte
    Carlo noise at these study sizes.
    """
    if sorted(set(levels)) != list(levels):
        raise ValueError("levels must be strictly increasing")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    dt = grid_step if grid_step is not None else 0.01 * T
    grid = uniform_grid(T, dt)
    sol = integrate(x0, y0, params, T, grid=grid)

    jobs = [
        (params, level, i, j, master_seed, x0, y0, T, dt, sol.x, sol.y)
        for i, level in enumerate(levels)
        for j in range(replicas)
    ]
    if workers > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_convergence_replica, jobs))
    else:
        results = [_convergence_replica(job) for job in jobs]

    rows = [
        (levels[i], j, _seed_label(master_seed, i, j), d) for i, j, d in results
    ]
    quartiles = {}
    for i, level in enumerate(levels):
        d = np.array([r[2] for r in results if r[0] == i])
        q25, q50, q75 = np.percentile(d, [25, 50, 75])
        quartiles[level] = (float(q25), float(q50), float(q75))
    return ConvergenceReport(list(levels), rows, quartiles, grid_step=dt)


def equilibrium_concentration(
    params: ModelParams,
    levels: list[int],
    burn_in: float,
    n_samples: int,
    sample_gap: float,
    master_seed: int,
) -> ConvergenceReport:
    """Distance of long-run equilibrium samples from the fixed point solved
    by solve_recursive, one long chain per scaling level."""
    if sorted(set(levels)) != list(levels):
        raise ValueError("levels must be strictly increasing")
    fp = solve_recursive(params)
    target = np.concatenate([fp.x_star, fp.y_star])
    rows: list[tuple[int, int, str, float]] = []
    quartiles = {}
    for i, level in enumerate(levels):
        samples = empirical_equilibrium(
            params, ScalingLevel(level), burn_in, n_samples, sample_gap,
            _spawned_rng_seed(master_seed, i),
        )
        d = np.array([
            float(np.linalg.norm(np.concatenate([s.x, s.y]) - target))
            for s in samples
        ])
        label = _seed_label(master_seed, i)
        rows.extend((level, j, label, float(dj)) for j, dj in enumerate(d))
        if d.size:
            q25, q50, q75 = np.percentile(d, [25, 50, 75])
            quartiles[level] = (float(q25), float(q50), float(q75))
    return ConvergenceReport(list(levels), rows, quartiles, fixed_point=fp)


def overproduction_sweep(
    params: ModelParams,
    lambda_s_values: list[float],
) -> SweepReport:
    """Fixed-point regime and trade volume along an increasing lambda_s grid.

    Once sellers dominate every level, the buyer chain decouples and the
    trade volume gamma * sum x* stops responding to lambda_s: extra sellers
    leave without trading. The report flags the first swept value in that
    regime.
    """
    values = [float(v) for v in lambda_s_values]
    if sorted(set(values)) != values:
        raise ValueError("lambda_s_values must be strictly increasing")
    rows = []
    onset = None
    for v in values:
        fp = solve_recursive(replace(params, lambda_s=v))
        rows.append((v, fp.ell, fp.regime, fp.trade_volume, fp.residual))
        if fp.ell == 0 and onset is None:
            onset = v
    return SweepReport(values, rows, onset)
