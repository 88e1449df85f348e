"""Fluid ODE system: right-hand side, integration, comparison principle."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lobfluid
from lobfluid import ode
from lobfluid import (
    FluidState,
    HypothesisViolated,
    ModelParams,
    check_comparison,
    integrate,
    integrate_until_stationary,
    rhs,
    solve_recursive,
)


def params(n=1, lam_b=1.0, lam_s=1.0, alpha=1.0, beta=1.0, gamma=1.0):
    return ModelParams(n, lam_b, lam_s, alpha, beta, gamma)


def random_params(rng, n_max=6):
    n = int(rng.integers(1, n_max + 1))
    draw = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
    return ModelParams(n, draw(), draw(), draw(), draw(), draw())


def test_rhs_zero_state_is_pure_inflow():
    p = params(n=4, lam_b=2.0, lam_s=0.7)
    dx, dy = rhs(FluidState(np.zeros(4), np.zeros(4)), p)
    assert dx.tolist() == [2.0, 0.0, 0.0, 0.0]
    assert dy.tolist() == [0.0, 0.0, 0.0, 0.7]


def levelwise_rhs(x, y, p):
    """The fluid equations written out one level at a time."""
    n = p.n_levels
    bpa = p.beta + p.alpha
    dx = np.empty(n)
    dy = np.empty(n)
    for k in range(n):
        trade = p.gamma * min(x[k], y[k])
        inflow_x = p.lambda_b if k == 0 else p.alpha * x[k - 1]
        inflow_y = p.lambda_s if k == n - 1 else p.alpha * y[k + 1]
        dx[k] = inflow_x - bpa * x[k] - trade
        dy[k] = inflow_y - bpa * y[k] - trade
    return dx, dy


@pytest.mark.parametrize("n", [1, 2, 7])
def test_rhs_matches_levelwise_equations(n):
    rng = np.random.default_rng(36 + n)
    for _ in range(20):
        p = replace(random_params(rng), n_levels=n)
        x = rng.uniform(0, 2, n)
        y = rng.uniform(0, 2, n)
        dx, dy = rhs(FluidState(x, y), p)
        want_x, want_y = levelwise_rhs(x, y, p)
        # same operations in the same order, so the results agree exactly
        assert np.array_equal(dx, want_x) and np.array_equal(dy, want_y)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_stacked_flow_equals_separate_evaluations(n):
    # the comparison check integrates two states through the same equations
    rng = np.random.default_rng(37 + n)
    p = ModelParams(n, 1.3, 0.7, 0.9, 0.4, 2.5)
    a = ode._pack(rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    b = ode._pack(rng.uniform(0, 2, n), rng.uniform(0, 2, n))
    stacked = ode._flow(0.0, np.concatenate([a, b]), p)
    assert np.array_equal(stacked, np.concatenate([ode._flow(0.0, a, p),
                                                   ode._flow(0.0, b, p)]))


def test_single_level_integrate_and_comparison():
    # one level is a 2-component system: the Jacobian band must shrink to 1
    p = params(gamma=3.0)
    sol = integrate(np.array([0.5]), np.array([0.0]), p, 40.0)
    assert sol.x.shape == sol.y.shape == (len(sol.taus), 1)
    assert sol.taus[0] == 0.0 and sol.taus[-1] == 40.0
    fp = solve_recursive(p)
    assert abs(sol.x[-1, 0] - fp.x_star[0]) < 1e-7
    assert abs(sol.y[-1, 0] - fp.y_star[0]) < 1e-7
    lo = FluidState(np.array([0.0]), np.array([2.0]))
    hi = FluidState(np.array([2.0]), np.array([0.0]))
    report = check_comparison(lo, hi, p, 20.0)
    assert report.ok and report.x_ok.shape == report.y_ok.shape == (1,)


def test_large_n_integration_cost_is_banded():
    # a dense finite-difference Jacobian needs 2N evaluations per refresh
    # (about 6300 here); the banded one needs five
    n = 1000
    sol = integrate(np.zeros(n), np.zeros(n), ModelParams(n, 1, 1, 1, 1, 1),
                    50.0, grid=np.array([0.0, 50.0]))
    assert sol.n_rhs_evals < 2000
    assert sol.x.shape == (2, n)


def test_import_and_solve_do_not_load_scipy():
    src = str(Path(lobfluid.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, lobfluid\n"
            "lobfluid.solve_recursive(lobfluid.ModelParams(2, 1, 1, 1, 1, 1))\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_rhs_vanishes_at_analytic_fixed_points():
    dx, dy = rhs(FluidState(np.array([1 / 3]), np.array([1 / 3])), params())
    assert abs(dx[0]) < 1e-15 and abs(dy[0]) < 1e-15
    p2 = params(n=2)
    dx, dy = rhs(FluidState(np.array([3 / 7, 1 / 7]), np.array([1 / 7, 3 / 7])),
                 p2)
    assert np.abs(dx).max() < 1e-15 and np.abs(dy).max() < 1e-15


def test_integrate_stays_at_fixed_point():
    tol = 1e-9
    for p in (params(n=2), params(n=3, lam_b=2.0, lam_s=0.5, gamma=3.0)):
        fp = solve_recursive(p)
        sol = integrate(fp.x_star, fp.y_star, p, 100.0, tol=tol,
                        grid=np.linspace(0, 100, 51))
        assert np.abs(sol.x - fp.x_star).max() < 10 * tol
        assert np.abs(sol.y - fp.y_star).max() < 10 * tol


def test_integrate_from_empty_converges_to_one_third():
    sol = integrate(np.zeros(1), np.zeros(1), params(), 50.0,
                    grid=np.array([0.0, 50.0]))
    assert abs(sol.x[-1, 0] - 1 / 3) < 1e-6
    assert abs(sol.y[-1, 0] - 1 / 3) < 1e-6


def test_integrate_zero_horizon_single_point():
    sol = integrate(np.array([0.2]), np.array([0.4]), params(), 0.0)
    assert sol.taus.tolist() == [0.0]
    assert sol.x.tolist() == [[0.2]] and sol.y.tolist() == [[0.4]]


def test_integrate_rejects_negative_initial_data():
    with pytest.raises(ValueError):
        integrate(np.array([-0.1]), np.array([0.0]), params(), 1.0)


def test_uniform_grid_endpoint_never_overshoots():
    from lobfluid import uniform_grid

    for stop in (7.0, 6.6, 1.0, 0.123, 200.0):
        grid = uniform_grid(stop, stop / 100)
        assert grid[0] == 0.0
        assert grid[-1] <= stop
        assert len(grid) == 101
        # the clamped grid must be accepted by the integrator
        integrate(np.zeros(1), np.zeros(1), params(), stop, grid=grid)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.0)


def test_integrate_nonnegative_and_bounded():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng, n_max=5)
        n = p.n_levels
        x0 = rng.uniform(0, 3, n)
        y0 = rng.uniform(0, 3, n)
        sol = integrate(x0, y0, p, 20.0, grid=np.linspace(0, 20, 81))
        assert sol.x.min() >= 0 and sol.y.min() >= 0
        x_cap = max(x0.max(), p.lambda_b / (p.beta + p.alpha))
        y_cap = max(y0.max(), p.lambda_s / (p.beta + p.alpha))
        assert sol.x.max() <= x_cap + 1e-7
        assert sol.y.max() <= y_cap + 1e-7


def test_halved_tolerance_consistency():
    p = params(n=3, lam_b=2.0, gamma=0.5)
    x0 = np.array([1.0, 0.0, 0.5])
    y0 = np.array([0.0, 2.0, 0.1])
    grid = np.array([0.0, 10.0])
    tol = 1e-9
    a = integrate(x0, y0, p, 10.0, tol=tol, grid=grid)
    b = integrate(x0, y0, p, 10.0, tol=tol / 2, grid=grid)
    gap = max(np.abs(a.x[-1] - b.x[-1]).max(), np.abs(a.y[-1] - b.y[-1]).max())
    scale = 1.0 + max(a.x[-1].max(), a.y[-1].max())
    assert gap < 10 * tol * scale


def test_integrate_until_stationary_reaches_fixed_point():
    p = params(n=2)
    state, converged, tau = integrate_until_stationary(p, np.zeros(2),
                                                       np.zeros(2))
    fp = solve_recursive(p)
    assert converged
    assert np.abs(state.x - fp.x_star).max() < 1e-6
    assert np.abs(state.y - fp.y_star).max() < 1e-6


def test_long_horizon_flow_lands_on_fixed_point():
    # random nonnegative starts all relax to the solved stationary profile
    p = params(n=4)
    fp = solve_recursive(p)
    target = np.concatenate([fp.x_star, fp.y_star])
    rng = np.random.default_rng(35)
    for _ in range(10):
        sol = integrate(rng.uniform(0, 2, 4), rng.uniform(0, 2, 4), p, 200.0,
                        grid=np.array([0.0, 200.0]))
        endpoint = np.concatenate([sol.x[-1], sol.y[-1]])
        assert np.linalg.norm(endpoint - target) < 1e-6


def test_comparison_identical_pairs():
    p = params(n=3)
    point = FluidState(np.array([0.5, 0.2, 0.1]), np.array([0.1, 0.2, 0.5]))
    report = check_comparison(point, point, p, 10.0)
    assert report.ok
    assert report.max_violation <= 1e-12


def test_comparison_hypothesis_violation():
    p = params(n=2)
    hi = FluidState(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    lo = FluidState(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(HypothesisViolated):
        check_comparison(hi, lo, p, 1.0)


def test_comparison_randomized_ordered_pairs():
    rng = np.random.default_rng(32)
    for _ in range(25):
        p = random_params(rng)
        n = p.n_levels
        xa = rng.uniform(0, 2, n)
        ya = rng.uniform(0, 2, n)
        pair_a = FluidState(xa, ya + rng.uniform(0, 1.5, n))
        pair_b = FluidState(xa + rng.uniform(0, 1.5, n), ya)
        report = check_comparison(pair_a, pair_b, p, 20.0, tol=1e-8)
        assert report.ok, f"violation {report.max_violation:.3e} for {p}"


def extremal_bracket(p, x0, y0):
    """The enclosing initial pairs from the long-time convergence argument."""
    n = p.n_levels
    y_hi = max(p.lambda_s / (p.alpha + p.beta), y0.max())
    x_hi = max(p.lambda_b / (p.alpha + p.beta), x0.max())
    lower = FluidState(np.zeros(n), np.full(n, y_hi))
    upper = FluidState(np.full(n, x_hi), np.zeros(n))
    return lower, upper


def test_bracketing_pairs_enclose_middle_solutions():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = random_params(rng, n_max=5)
        n = p.n_levels
        x0 = rng.uniform(0, 2, n)
        y0 = rng.uniform(0, 2, n)
        middle = FluidState(x0, y0)
        lower, upper = extremal_bracket(p, x0, y0)
        assert check_comparison(lower, middle, p, 50.0, tol=1e-8).ok
        assert check_comparison(middle, upper, p, 50.0, tol=1e-8).ok


def test_monotone_flow_from_extremal_starts():
    # nonnegative drift in x and nonpositive in y at tau=0 propagates into
    # monotone trajectories (and mirrored), per the time-shift argument
    rng = np.random.default_rng(34)
    for _ in range(10):
        p = random_params(rng, n_max=4)
        n = p.n_levels
        lower, upper = extremal_bracket(p, np.zeros(n), np.zeros(n))
        for state, x_sign, y_sign in ((lower, 1, -1), (upper, -1, 1)):
            dx, dy = rhs(state, p)
            assert (x_sign * dx >= -1e-12).all()
            assert (y_sign * dy >= -1e-12).all()
            sol = integrate(state.x, state.y, p, 30.0,
                            grid=np.linspace(0, 30, 121))
            x_steps = np.diff(sol.x, axis=0) * x_sign
            y_steps = np.diff(sol.y, axis=0) * y_sign
            assert x_steps.min() > -1e-8
            assert y_steps.min() > -1e-8
