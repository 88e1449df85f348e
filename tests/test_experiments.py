"""Experiment harness: convergence studies, equilibrium sampling, sweeps."""

import numpy as np
import pytest

from lobfluid import (
    ModelParams,
    ScalingLevel,
    experiments,
    equilibrium_concentration,
    fluid_convergence,
    integrate,
    overproduction_sweep,
    simulate,
    uniform_grid,
)


def params(n=1, lam_b=1.0, lam_s=1.0, alpha=1.0, beta=1.0, gamma=1.0):
    return ModelParams(n, lam_b, lam_s, alpha, beta, gamma)


def small_convergence(workers=1):
    return fluid_convergence(params(), np.zeros(1), np.zeros(1),
                             levels=[10, 50], T=1.0, replicas=4,
                             master_seed=7, workers=workers)


def test_fluid_convergence_report_shape_and_quartiles():
    report = small_convergence()
    assert report.levels == [10, 50]
    assert len(report.rows) == 8
    for level, replica, seed, dist in report.rows:
        assert dist >= 0.0
        assert seed.startswith("7:")
    for level in report.levels:
        q25, q50, q75 = report.quartiles[level]
        assert q25 <= q50 <= q75


def test_fluid_convergence_reproducible():
    a = small_convergence()
    b = small_convergence()
    assert a.rows == b.rows
    assert a.quartiles == b.quartiles


def test_fluid_convergence_single_replica_reproducible():
    kw = dict(levels=[20], T=0.5, replicas=1, master_seed=11)
    a = fluid_convergence(params(), np.zeros(1), np.zeros(1), **kw)
    b = fluid_convergence(params(), np.zeros(1), np.zeros(1), **kw)
    assert a.rows == b.rows


def test_fluid_convergence_workers_do_not_change_results():
    assert small_convergence(workers=2).rows == small_convergence().rows


@pytest.mark.parametrize("workers", [1, 2], ids="workers={}".format)
def test_fluid_convergence_rows_are_simulate_distances(workers):
    # each level's replicas run on one chain set-up (with workers, in
    # contiguous blocks of a level); every row's distance is, bit for bit,
    # the one from `simulate` with the replica's seed. The README study's
    # arguments, with three replicas, so that two workers split each level
    # unevenly
    p = params(n=2)
    z = np.zeros(2)
    levels, T, replicas, seed = [10, 100, 1000], 5.0, 3, 42
    report = fluid_convergence(p, z, z, levels, T, replicas, seed,
                               workers=workers)
    sol = integrate(z, z, p, T, grid=uniform_grid(T, 0.01 * T))
    want = []
    for i, level in enumerate(levels):
        for j in range(replicas):
            traj = simulate(p, ScalingLevel(level), z, z, T, 0.01 * T,
                            np.random.SeedSequence(entropy=seed,
                                                   spawn_key=(i, j)))
            want.append((level, j, f"{seed}:{i}:{j}",
                         experiments._sup_distance(traj.x, traj.y, sol.x,
                                                   sol.y)))
    assert report.rows == want


def test_fluid_convergence_validates_arguments():
    with pytest.raises(ValueError):
        fluid_convergence(params(), np.zeros(1), np.zeros(1), [100, 10],
                          1.0, 2, 0)
    # 1.5 raised a TypeError in range(), and True ran one replica
    for replicas in (0, 1.5, True, np.float32(0.5)):
        with pytest.raises(ValueError, match="replicas must be a positive "
                                             "integer, got"):
            fluid_convergence(params(), np.zeros(1), np.zeros(1), [10],
                              1.0, replicas, 0)


def test_fluid_convergence_checks_workers():
    # 0 and True ran serially, and 2.5 raised a TypeError in the pool
    for workers in (0, -3, True, 2.5):
        with pytest.raises(ValueError, match="workers must be a positive "
                                             "integer, got"):
            fluid_convergence(params(), np.zeros(1), np.zeros(1), [10],
                              1.0, 2, 0, workers=workers)


@pytest.mark.parametrize("T, grid_step, message", [
    (0.0, None, "T must be finite and > 0, got 0.0"),
    (np.inf, None, "T must be finite and > 0, got inf"),
    (1.0, 0.0, "grid_step must be finite and > 0, got 0.0"),
    (1.0, np.nan, "grid_step must be finite and > 0, got nan"),
], ids=["T=0", "T=inf", "grid_step=0", "grid_step=nan"])
def test_fluid_convergence_grid_errors_name_the_argument(T, grid_step,
                                                         message):
    # these named the grid's own stop and step
    with pytest.raises(ValueError, match=message):
        fluid_convergence(params(), np.zeros(1), np.zeros(1), [10], T, 2, 0,
                          grid_step=grid_step)


def test_studies_check_their_scaling_levels_before_any_run(monkeypatch):
    # each level was checked when its first chain started, after the ODE
    # run or the fixed-point solve (and, with workers, inside the pool)
    def run(*args, **kwargs):
        raise AssertionError("ran before its scaling levels were checked")

    monkeypatch.setattr(experiments, "integrate", run)
    monkeypatch.setattr(experiments, "solve_recursive", run)
    z = np.zeros(1)
    for study in (lambda: fluid_convergence(params(), z, z, [0, 10], 1.0, 2,
                                            0, workers=2),
                  lambda: equilibrium_concentration(params(), [-1, 10], 1.0,
                                                    2, 0.5, 0)):
        with pytest.raises(ValueError, match="scaling level must be a "
                                             "positive integer, got"):
            study()


@pytest.mark.parametrize("study, name", [
    (lambda z: fluid_convergence(params(), z, z, [], 1.0, 2, 0), "levels"),
    (lambda z: equilibrium_concentration(params(), [], 1.0, 2, 0.5, 0),
     "levels"),
    (lambda z: overproduction_sweep(params(), []), "lambda_s_values"),
], ids=["fluid_convergence-levels", "equilibrium_concentration-levels",
        "overproduction_sweep-lambda_s_values"])
def test_studies_refuse_an_empty_list_before_any_run(monkeypatch, study,
                                                     name):
    # an empty list ran no chain and no sweep step, and the study returned
    # an empty report, after the ODE run or the fixed-point solve
    def run(*args, **kwargs):
        raise AssertionError("ran before its list was checked")

    monkeypatch.setattr(experiments, "integrate", run)
    monkeypatch.setattr(experiments, "solve_recursive", run)
    with pytest.raises(ValueError) as raised:
        study(np.zeros(1))
    assert str(raised.value) == (f"{name} must be strictly increasing and "
                                 "not empty")


def test_equilibrium_report_small_run():
    report = equilibrium_concentration(params(), [50], burn_in=5.0,
                                       n_samples=20, sample_gap=0.5,
                                       master_seed=3)
    assert len(report.rows) == 20
    assert all(r[3] >= 0 for r in report.rows)
    assert 50 in report.quartiles


def test_equilibrium_median_distance_decreases_with_l():
    report = equilibrium_concentration(params(), [100, 1000], burn_in=10.0,
                                       n_samples=100, sample_gap=0.3,
                                       master_seed=9)
    medians = report.medians()
    assert medians[0] > medians[1]


def test_equilibrium_empty_report():
    report = equilibrium_concentration(params(), [10, 20], burn_in=1.0,
                                       n_samples=0, sample_gap=1.0,
                                       master_seed=1)
    assert report.rows == []
    assert report.quartiles == {}


def test_studies_take_an_array_of_levels():
    # the list check reads a numpy array's length, not its truth value,
    # which is ambiguous for more than one element
    report = equilibrium_concentration(params(), np.array([10, 20]),
                                       burn_in=1.0, n_samples=0,
                                       sample_gap=1.0, master_seed=1)
    assert report.levels == [10, 20]


def test_sweep_saturation_plateau():
    # regime (ii) trade volume stops responding to lambda_s
    report = overproduction_sweep(params(n=3), [5.0, 10.0, 20.0])
    assert [r[1] for r in report.rows] == [0, 0, 0]
    volumes = [r[3] for r in report.rows]
    for v in volumes[1:]:
        assert abs(v - volumes[0]) <= 1e-9 * volumes[0]
    assert report.saturation_onset == 5.0


def test_sweep_below_saturation_volumes_differ():
    report = overproduction_sweep(params(n=3), [0.5, 1.0])
    (v1, v2) = (r[3] for r in report.rows)
    assert abs(v2 - v1) > 1e-6
    assert all(r[1] > 0 for r in report.rows)
    assert report.saturation_onset is None


def test_sweep_volume_nondecreasing_overall():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    report = overproduction_sweep(params(n=3), grid)
    volumes = [r[3] for r in report.rows]
    assert all(b >= a - 1e-12 for a, b in zip(volumes, volumes[1:]))


def test_sweep_single_value():
    report = overproduction_sweep(params(n=2), [1.5])
    assert len(report.rows) == 1
    assert report.lambda_s_values == [1.5]


def test_sweep_requires_increasing_grid():
    with pytest.raises(ValueError):
        overproduction_sweep(params(), [2.0, 1.0])
