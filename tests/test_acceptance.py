"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Monte Carlo criteria use fixed seeds and are exactly
reproducible.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lobfluid import (
    BrokenLinePoint,
    FluidState,
    ModelParams,
    OnKink,
    ScalingLevel,
    check_comparison,
    classify_regime,
    fixed_point_residual,
    integrate,
    integrate_until_stationary,
    map_jacobian_check,
    overproduction_sweep,
    rhs,
    simulate,
    solve_recursive,
    solve_shooting,
    step_map,
)
from lobfluid.cli import main as cli_main
from lobfluid.experiments import equilibrium_concentration, fluid_convergence


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {desc} "
          f"[{time.perf_counter() - start:.2f}s]")


def ones(n=1, lam_b=1.0, lam_s=1.0):
    return ModelParams(n, lam_b, lam_s, 1.0, 1.0, 1.0)


def random_params(rng, n_max):
    n = int(rng.integers(1, n_max + 1))
    draw = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
    return ModelParams(n, draw(), draw(), draw(), draw(), draw())


def test_criterion_01_analytic_fixed_points():
    cases = [
        (ones(1), [1 / 3], [1 / 3]),
        (ModelParams(1, 2.0, 1.0, 1.0, 1.0, 1.0), [5 / 6], [1 / 3]),
        (ones(2), [3 / 7, 1 / 7], [1 / 7, 3 / 7]),
    ]
    with criterion(1, "analytic fixed points, both solvers, 1e-10"):
        start = time.perf_counter()
        for p, x_exp, y_exp in cases:
            for solve in (solve_recursive, solve_shooting):
                fp = solve(p)
                assert np.abs(fp.x_star - x_exp).max() < 1e-10
                assert np.abs(fp.y_star - y_exp).max() < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_02_triple_agreement():
    rng = np.random.default_rng(20240601)
    with criterion(2, "triple agreement on 100 random parameter sets, 1e-6"):
        start = time.perf_counter()
        for _ in range(100):
            p = random_params(rng, n_max=10)
            fr = solve_recursive(p)
            fs = solve_shooting(p)
            state, converged, _ = integrate_until_stationary(
                p, np.zeros(p.n_levels), np.zeros(p.n_levels), tau_max=400.0)
            assert converged, f"flow still moving at tau 400 for {p}"
            points = {
                "recursive": np.concatenate([fr.x_star, fr.y_star]),
                "shooting": np.concatenate([fs.x_star, fs.y_star]),
                "ode": np.concatenate([state.x, state.y]),
            }
            names = list(points)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    gap = np.abs(points[a] - points[b]).max()
                    assert gap < 1e-6, f"{a} vs {b}: {gap:.3e} for {p}"
        assert time.perf_counter() - start < 60.0


def test_criterion_03_stationary_equation_residuals():
    rng = np.random.default_rng(20240603)
    with criterion(3, "every returned fixed point has residual < 1e-8"):
        for _ in range(50):
            p = random_params(rng, n_max=10)
            for solve in (solve_recursive, solve_shooting):
                fp = solve(p)
                assert fp.residual < 1e-8
                assert fixed_point_residual(fp.x_star, fp.y_star, p) < 1e-8


def test_criterion_04_ordering_and_regimes():
    rng = np.random.default_rng(20240604)
    with criterion(4, "strict interleaving, single crossing, regime labels"):
        for _ in range(50):
            p = random_params(rng, n_max=10)
            for solve in (solve_recursive, solve_shooting):
                fp = solve(p)
                if p.n_levels > 1:
                    assert (np.diff(fp.x_star) < 0).all()
                    assert (np.diff(fp.y_star) > 0).all()
                above = fp.x_star > fp.y_star
                assert above[:fp.ell].all() and not above[fp.ell:].any()
                ell, label = classify_regime(fp)
                assert (ell, label) == (fp.ell, fp.regime)
                assert label == {0: "ii", p.n_levels: "i"}.get(fp.ell, "iii")


def test_criterion_05_comparison_principle_suite():
    rng = np.random.default_rng(20240605)
    with criterion(5, "order preservation on 200 random pairs, 1e-8"):
        start = time.perf_counter()
        for _ in range(200):
            p = random_params(rng, n_max=6)
            n = p.n_levels
            x_low = rng.uniform(0, 2, n)
            y_low = rng.uniform(0, 2, n)
            pair_a = FluidState(x_low, y_low + rng.uniform(0, 2, n))
            pair_b = FluidState(x_low + rng.uniform(0, 2, n), y_low)
            tau_max = float(rng.uniform(5.0, 50.0))
            report = check_comparison(pair_a, pair_b, p, tau_max, tol=1e-8)
            assert report.ok, f"violation {report.max_violation:.3e} for {p}"
        assert time.perf_counter() - start < 60.0


def test_criterion_06_monotone_extremal_trajectories():
    rng = np.random.default_rng(20240606)
    with criterion(6, "extremal starts give monotone solution components"):
        for _ in range(25):
            p = random_params(rng, n_max=6)
            n = p.n_levels
            base_x = rng.uniform(0, 2, n)
            base_y = rng.uniform(0, 2, n)
            y_hi = max(p.lambda_s / (p.alpha + p.beta), base_y.max())
            x_hi = max(p.lambda_b / (p.alpha + p.beta), base_x.max())
            primed = FluidState(np.zeros(n), np.full(n, y_hi))
            doubled = FluidState(np.full(n, x_hi), np.zeros(n))
            for state, x_sign, y_sign in ((primed, 1, -1), (doubled, -1, 1)):
                dx, dy = rhs(state, p)
                assert (x_sign * dx >= -1e-12).all()
                assert (y_sign * dy >= -1e-12).all()
                sol = integrate(state.x, state.y, p, 30.0,
                                grid=np.linspace(0.0, 30.0, 121))
                assert (np.diff(sol.x, axis=0) * x_sign).min() > -1e-8
                assert (np.diff(sol.y, axis=0) * y_sign).min() > -1e-8


def test_criterion_07_conservation_identities(each_engine):
    with criterion(7, "counter conservation, 1000 fuzzed runs, zero tolerance"):
        for _ in each_engine():
            rng = np.random.default_rng(20240607)
            for _ in range(1000):
                n = int(rng.integers(1, 6))
                p = ModelParams(n, float(rng.uniform(0.2, 4)),
                                float(rng.uniform(0.2, 4)),
                                float(rng.uniform(0.2, 4)),
                                float(rng.uniform(0.0, 4)),
                                float(rng.uniform(0.2, 4)))
                traj = simulate(p, ScalingLevel(int(rng.integers(1, 11))),
                                rng.uniform(0, 2, n), rng.uniform(0, 2, n),
                                tau_max=float(rng.uniform(0, 1)),
                                sample_dt=0.25,
                                seed=int(rng.integers(1 << 31)))
                db, ds = traj.counters.conservation_defects(
                    traj.initial_state, traj.final_state)
                assert not db.any() and not ds.any()


def test_criterion_08_fluid_limit_convergence():
    with criterion(8, "sup-distance medians fall with L; < 0.1 at L=1000"):
        start = time.perf_counter()
        report = fluid_convergence(ones(1), np.zeros(1), np.zeros(1),
                                   levels=[10, 100, 1000], T=5.0,
                                   replicas=50, master_seed=20240608)
        medians = report.medians()
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] < 0.1
        assert time.perf_counter() - start < 300.0


def test_criterion_09_equilibrium_concentration():
    hand_solved = np.array([3 / 7, 1 / 7, 1 / 7, 3 / 7])
    with criterion(9, "equilibrium samples concentrate near the fixed point"):
        start = time.perf_counter()
        report = equilibrium_concentration(
            ones(2), [1000], burn_in=10.0, n_samples=200, sample_gap=0.25,
            master_seed=20240609)
        dists = report.distances(1000)
        fp = solve_recursive(ones(2))
        target = np.concatenate([fp.x_star, fp.y_star])
        assert np.abs(target - hand_solved).max() < 1e-10
        assert np.median(dists) < 0.1
        assert time.perf_counter() - start < 300.0


def test_criterion_10_overproduction_saturation():
    grid = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    with criterion(10, "trade volume constant across the saturated regime"):
        onsets = []
        for _ in range(2):
            report = overproduction_sweep(ones(3), grid)
            saturated = [r for r in report.rows if r[1] == 0]
            assert saturated, "sweep never reached the saturated regime"
            base = saturated[0][3]
            for row in saturated[1:]:
                assert abs(row[3] - base) <= 1e-9 * base
            assert report.saturation_onset == saturated[0][0]
            onsets.append(report.saturation_onset)
        assert onsets[0] == onsets[1]
        # sellers swamp the book once lambda_s clears the decoupled chain
        assert onsets[0] == 5.0


def test_criterion_11_slope_formula_checks():
    p = ones(4)
    with criterion(11, "slope factors match finite differences, 1e-6"):
        cases_seen = set()
        rng = np.random.default_rng(20240611)
        for _ in range(40):
            q = random_params(rng, n_max=6)
            if q.n_levels < 2:
                continue
            anchor = q.lambda_b / (q.alpha + q.beta + q.gamma)
            w1 = float(rng.uniform(0.05, 0.95)) * anchor
            v1 = (q.lambda_b - q.gamma * w1) / (q.alpha + q.beta)
            point = BrokenLinePoint(v1, w1, 1)
            slope = -(q.alpha + q.beta) / q.gamma
            try:
                for _ in range(q.n_levels - 1):
                    check = map_jacobian_check(point, q, slope_in=slope)
                    assert check.rel_diff < 1e-6
                    cases_seen.add(check.case)
                    point = step_map(point, q)
                    slope = check.slope_out
            except OnKink:
                continue
            if point.v < point.w:  # non-terminal segment of the last line
                assert slope < -q.gamma / (q.alpha + q.beta)
        assert cases_seen == {1, 2, 3}
        # the middle case factor is exactly ((a+b+g)/a)^2
        t = 0.2
        check = map_jacobian_check(BrokenLinePoint((1 - t) / 2, t, 1), ones(2))
        assert check.case == 2
        assert check.factor_analytic == 9.0
        assert check.rel_diff < 1e-6


SUBCOMMANDS = [
    ["simulate", "--scale", "20", "--tau-max", "1", "--sample-dt", "0.1"],
    ["integrate", "--tau-max", "2"],
    ["solve"],
    ["converge", "--levels", "5,10", "--tau-horizon", "0.5",
     "--replicas", "2"],
    ["equilibrium", "--levels", "20", "--burn-in", "2", "--n-samples", "10",
     "--sample-gap", "0.5"],
    ["sweep", "--lambda-s-values", "1,2,8"],
]


def test_criterion_12_byte_identical_reruns(tmp_path, capsys):
    model = ["--n", "2", "--lambda-b", "1", "--lambda-s", "1", "--alpha", "1",
             "--beta", "1", "--gamma", "1", "--seed", "42"]
    with criterion(12, "identical seeds give byte-identical outputs"):
        for argv in SUBCOMMANDS:
            contents = []
            for tag in ("a", "b"):
                out_dir = tmp_path / argv[0] / tag
                code = cli_main(argv + model + ["--out-dir", str(out_dir)])
                capsys.readouterr()
                assert code == 0
                contents.append({p.name: p.read_bytes()
                                 for p in sorted(out_dir.iterdir())})
            assert contents[0] == contents[1], argv[0]
            assert any(name.endswith(".csv") for name in contents[0])
