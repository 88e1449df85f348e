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
from .model import ModelParams, ScalingLevel, _count, _pair
from .ode import _check_positive, integrate, uniform_grid
# simulate is not called here, but stays bound: perfbench's tracer test
# finds its wrapper on this module
from .simulate import _replicas, empirical_equilibrium, simulate  # noqa: F401

__all__ = ["ConvergenceReport", "SweepReport", "fluid_convergence",
           "equilibrium_concentration", "overproduction_sweep"]


@dataclass
class ConvergenceReport:
    """Per-level distance samples.

    rows: one (L, index, seed_label, distance) tuple per replica or
    equilibrium sample, in deterministic order. grid_step is the shared ODE
    grid's step of a convergence study; fixed_point is the target an
    equilibrium study measured against.
    """

    levels: list[int]
    rows: list[tuple[int, int, str, float]]
    grid_step: float | None = None
    fixed_point: FixedPoint | None = None

    def distances(self, level: int) -> np.ndarray:
        return np.array([r[3] for r in self.rows if r[0] == level])

    @property
    def quartiles(self) -> dict[int, tuple[float, float, float]]:
        """L -> (q25, q50, q75) of the distances at each level with rows."""
        return {lv: tuple(float(q) for q in np.percentile(d, [25, 50, 75]))
                for lv in self.levels if (d := self.distances(lv)).size}

    def medians(self) -> list[float]:
        """The median distance of each level with rows, in level order."""
        return [q50 for _, q50, _ in self.quartiles.values()]


@dataclass
class SweepReport:
    """Fixed-point summaries along an increasing lambda_s grid: one
    (lambda_s, ell, regime, trade_volume, residual) row per swept value."""

    lambda_s_values: list[float]
    rows: list[tuple[float, int, str, float, float]]

    @property
    def saturation_onset(self) -> float | None:
        """The first swept value whose fixed point has ell = 0 (sellers
        dominate at every level), or None if the sweep never gets there."""
        return next((v for v, ell, *_ in self.rows if ell == 0), None)


def _increasing(values: list, name: str) -> list:
    """values as a list, checked to be strictly increasing and not empty:
    an empty list would run no study and report nothing."""
    values = list(values)
    if not values or sorted(set(values)) != values:
        raise ValueError(f"{name} must be strictly increasing and not empty")
    return values


def _seed_label(master_seed: int, *key: int) -> str:
    return ":".join(str(v) for v in (master_seed, *key))


def _spawned_rng_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


def _sup_distance(traj_x, traj_y, ode_x, ode_y) -> float:
    gaps = np.hstack([traj_x - ode_x, traj_y - ode_y])
    return float(np.sqrt((gaps * gaps).sum(axis=1)).max())


def _convergence_block(args) -> list[float]:
    """The sup-distances of replicas first..last-1 at the i-th scaling
    level, in replica order. The chain is set up once, as `simulate` sets
    it up, and each replica runs on it and is measured before the next one
    overwrites its samples, so each distance is that of `simulate` with
    the replica's seed."""
    (params, scale, i, first, last, master_seed, x0, y0, T, dt, ode_x,
     ode_y) = args
    _, chain = _replicas(params, scale, x0, y0, T, dt)
    distances = []
    for j in range(first, last):
        x, y, _ = chain.run(
            np.random.default_rng(_spawned_rng_seed(master_seed, i, j)))
        distances.append(_sup_distance(x, y, ode_x, ode_y))
    return distances


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
    levels = _increasing(levels, "levels")
    scales = [ScalingLevel(lv) for lv in levels]  # checked before any run
    replicas = _count(replicas, "replicas", minimum=1)
    workers = _count(workers, "workers", minimum=1)
    _check_positive(T, "T")  # a grid may stop at 0, a study may not
    dt = grid_step if grid_step is not None else 0.01 * T
    grid = uniform_grid(T, dt, ("T", "grid_step"))
    x0, y0 = _pair(x0, y0, params.n_levels)
    sol = integrate(x0, y0, params, T, grid=grid)

    # each level's replicas in workers contiguous blocks (one when serial),
    # so that every worker shares the longest chains
    bounds = [replicas * w // workers for w in range(workers + 1)]
    jobs = [
        (params, scale, i, first, last, master_seed, x0, y0, T, dt, sol.x,
         sol.y)
        for i, scale in enumerate(scales)
        for first, last in zip(bounds, bounds[1:]) if first < last
    ]
    if workers > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_convergence_block, jobs))
    else:
        blocks = [_convergence_block(job) for job in jobs]

    distances = [d for block in blocks for d in block]
    rows = [
        (level, j, _seed_label(master_seed, i, j), distances[i * replicas + j])
        for i, level in enumerate(levels)
        for j in range(replicas)
    ]
    return ConvergenceReport(levels, rows, grid_step=dt)


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
    levels = _increasing(levels, "levels")
    scales = [ScalingLevel(lv) for lv in levels]  # checked before any run
    fp = solve_recursive(params)
    target = np.concatenate([fp.x_star, fp.y_star])
    rows: list[tuple[int, int, str, float]] = []
    for i, (level, scale) in enumerate(zip(levels, scales)):
        samples = empirical_equilibrium(
            params, scale, burn_in, n_samples, sample_gap,
            _spawned_rng_seed(master_seed, i),
        )
        d = np.array([
            float(np.linalg.norm(np.concatenate([s.x, s.y]) - target))
            for s in samples
        ])
        label = _seed_label(master_seed, i)
        rows.extend((level, j, label, float(dj)) for j, dj in enumerate(d))
    return ConvergenceReport(levels, rows, fixed_point=fp)


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
    values = _increasing([*map(float, lambda_s_values)], "lambda_s_values")
    rows = []
    for v in values:
        fp = solve_recursive(replace(params, lambda_s=v))
        rows.append((v, fp.ell, fp.regime, fp.trade_volume, fp.residual))
    return SweepReport(values, rows)
