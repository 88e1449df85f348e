"""Fixed-point solvers, the forward broken-line map, and regime structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobfluid import (
    BrokenLinePoint,
    FixedPoint,
    InvariantViolation,
    ModelParams,
    NonMonotoneInput,
    OnKink,
    ResidualTooLarge,
    classify_regime,
    fixed_point_residual,
    map_jacobian_check,
    solve_recursive,
    solve_shooting,
    step_map,
    trade_volume,
)
from lobfluid import fixed_point


def params(n=1, lam_b=1.0, lam_s=1.0, alpha=1.0, beta=1.0, gamma=1.0):
    return ModelParams(n, lam_b, lam_s, alpha, beta, gamma)


def random_params(rng, n_max=10):
    n = int(rng.integers(1, n_max + 1))
    draw = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
    return ModelParams(n, draw(), draw(), draw(), draw(), draw())


ANALYTIC_CASES = [
    (params(n=1), [1 / 3], [1 / 3]),
    (params(n=1, lam_b=2.0), [5 / 6], [1 / 3]),
    (params(n=2), [3 / 7, 1 / 7], [1 / 7, 3 / 7]),
]


# ---------------------------------------------------------------- step map

def test_step_map_from_symmetric_anchor():
    out = step_map(BrokenLinePoint(1 / 3, 1 / 3, 1), params(n=2))
    assert out.k == 2
    assert out.v == pytest.approx(1 / 9, abs=1e-15)
    assert out.w == pytest.approx(1.0, abs=1e-15)


def test_step_map_reproduces_symmetric_fixed_point_chain():
    out = step_map(BrokenLinePoint(3 / 7, 1 / 7, 1), params(n=2))
    assert out.v == pytest.approx(1 / 7, abs=1e-15)
    assert out.w == pytest.approx(3 / 7, abs=1e-15)


def test_step_map_fixes_origin():
    out = step_map(BrokenLinePoint(0.0, 0.0, 1), params(n=3))
    assert out.v == 0.0 and out.w == 0.0


def test_step_map_argument_checks():
    with pytest.raises(ValueError):
        step_map(BrokenLinePoint(0.1, 0.1, 2), params(n=2))
    with pytest.raises(ValueError):
        step_map(BrokenLinePoint(-0.1, 0.1, 1), params(n=2))


def test_ray_maps_to_documented_anchor():
    # the image of the first line's bisectrix corner has the closed form
    # (lambda_b * alpha / (alpha+beta+gamma)^2, lambda_b / alpha)
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = random_params(rng, n_max=2)
        if p.n_levels < 2:
            continue
        anchor = p.lambda_b / (p.alpha + p.beta + p.gamma)
        out = step_map(BrokenLinePoint(anchor, anchor, 1), p)
        assert out.v == pytest.approx(
            p.lambda_b * p.alpha / (p.alpha + p.beta + p.gamma) ** 2, rel=1e-14)
        assert out.w == pytest.approx(p.lambda_b / p.alpha, rel=1e-14)


# ------------------------------------------------------------ slope checks

def test_jacobian_middle_case_factor_is_nine():
    # all-ones constants, segment point mapping from below to above the
    # diagonal: the factor is (alpha+beta+gamma)^2 / alpha^2 = 9
    p = params(n=3)
    t = 0.2
    check = map_jacobian_check(BrokenLinePoint((1 - t) / 2, t, 1), p)
    assert check.case == 2
    assert check.factor_analytic == pytest.approx(9.0, abs=0)
    assert check.rel_diff < 1e-6


def test_jacobian_case_one_matches_finite_differences():
    p = params(n=3)
    t = 0.03
    check = map_jacobian_check(BrokenLinePoint((1 - t) / 2, t, 1), p)
    assert check.case == 1
    assert check.rel_diff < 1e-6
    # equivalent A-shaped form built from the image slope
    a_form = ((p.alpha + p.beta + p.gamma * check.slope_out)
              * (p.alpha + p.beta + p.gamma) / p.alpha**2)
    assert check.factor_analytic == pytest.approx(a_form, rel=1e-9)


def test_jacobian_case_three_matches_finite_differences():
    p = params(n=3)
    v = 0.13
    check = map_jacobian_check(BrokenLinePoint(v, 3 - 18 * v, 1), p,
                               slope_in=-18.0)
    assert check.case == 3
    assert check.rel_diff < 1e-6
    b_form = ((p.alpha + p.beta + p.gamma / check.slope_in)
              * (p.alpha + p.beta + p.gamma) / p.alpha**2)
    assert check.factor_analytic == pytest.approx(b_form, rel=1e-12)


def test_jacobian_on_diagonal_raises():
    with pytest.raises(OnKink):
        map_jacobian_check(BrokenLinePoint(0.4, 0.4, 1), params(n=2))


def chain_slopes(p, w1):
    """Push a first-line segment point forward, tracking the image slope."""
    v = (p.lambda_b - p.gamma * w1) / (p.alpha + p.beta)
    point = BrokenLinePoint(v, w1, 1)
    slope = -(p.alpha + p.beta) / p.gamma
    for _ in range(p.n_levels - 1):
        check = map_jacobian_check(point, p, slope_in=slope)
        assert check.rel_diff < 1e-6
        point = step_map(point, p)
        slope = check.slope_out
    return point, slope


def test_slope_bound_on_nonterminal_segments():
    # wherever the level-N image lies above the diagonal the measured slope
    # is steeper than the sloped piece of the terminal cut line
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        p = random_params(rng, n_max=6)
        if p.n_levels < 2:
            continue
        anchor = p.lambda_b / (p.alpha + p.beta + p.gamma)
        try:
            point, slope = chain_slopes(p, rng.uniform(0.05, 0.95) * anchor)
        except OnKink:
            continue
        if point.v < point.w:
            assert slope < -p.gamma / (p.alpha + p.beta)
            checked += 1
    assert checked >= 10


# ------------------------------------------------------------------ solvers

@pytest.mark.parametrize("p,x_exp,y_exp", ANALYTIC_CASES)
def test_shooting_analytic_cases(p, x_exp, y_exp):
    fp = solve_shooting(p)
    assert np.abs(fp.x_star - x_exp).max() < 1e-10
    assert np.abs(fp.y_star - y_exp).max() < 1e-10
    assert fp.residual < 1e-10


@pytest.mark.parametrize("p,x_exp,y_exp", ANALYTIC_CASES)
def test_recursive_analytic_cases(p, x_exp, y_exp):
    fp = solve_recursive(p)
    assert np.abs(fp.x_star - x_exp).max() < 1e-10
    assert np.abs(fp.y_star - y_exp).max() < 1e-10
    assert fp.residual < 1e-10


def test_recursive_where_gamma_dominates():
    # gamma > alpha + beta, where a sweep with frozen min terms diverges
    fp = solve_recursive(ModelParams(2, 0.249, 0.152, 1.448, 0.396, 2.208))
    assert fp.residual < 1e-10


def test_solvers_agree_on_random_parameters():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = random_params(rng)
        fr = solve_recursive(p)
        fs = solve_shooting(p)
        gap = max(np.abs(fr.x_star - fs.x_star).max(),
                  np.abs(fr.y_star - fs.y_star).max())
        assert gap < 1e-8
        assert fr.residual < 1e-8 and fs.residual < 1e-8
        assert fr.ell == fs.ell


def test_fixed_points_interleave_strictly():
    rng = np.random.default_rng(44)
    for _ in range(50):
        p = random_params(rng)
        fp = solve_shooting(p)
        if p.n_levels > 1:
            assert (np.diff(fp.x_star) < 0).all()
            assert (np.diff(fp.y_star) > 0).all()
        sign = fp.x_star > fp.y_star
        assert sign[:fp.ell].all() and not sign[fp.ell:].any()
        ell, label = classify_regime(fp)
        assert (ell, label) == (fp.ell, fp.regime)


# ----------------------------------------------------------- classification

def test_classify_regime_examples():
    fp = solve_shooting(params(n=1, lam_b=2.0))
    assert (fp.ell, fp.regime) == (1, "i")
    fp = solve_shooting(params(n=2))
    assert (fp.ell, fp.regime) == (1, "iii")
    fp = solve_shooting(params(n=2, lam_b=1e-3))
    assert (fp.ell, fp.regime) == (0, "ii")


def test_classify_rejects_nonmonotone_input():
    bad = FixedPoint(np.array([0.1, 0.2]), np.array([0.05, 0.3]), 1, "iii",
                     0.0, "synthetic", 0.0, 0)
    with pytest.raises(NonMonotoneInput):
        classify_regime(bad)


def test_trade_volume_values():
    p2 = params(n=2)
    assert trade_volume(solve_shooting(p2), p2) == pytest.approx(2 / 7,
                                                                 abs=1e-10)
    p1 = params(n=1, lam_b=2.0)
    assert trade_volume(solve_shooting(p1), p1) == pytest.approx(1 / 3,
                                                                 abs=1e-10)
    synthetic = FixedPoint(np.zeros(3), np.array([0.1, 0.2, 0.3]), 0, "ii",
                           0.0, "synthetic", 0.0, 0)
    assert trade_volume(synthetic, params(n=3)) == 0.0


def test_regime_ii_decoupling():
    # once sellers dominate everywhere the buyer chain ignores lambda_s
    p = params(n=3, lam_s=8.0)
    fp = solve_recursive(p)
    assert fp.ell == 0
    # min = x at every level: x_1 = lambda_b / (alpha+beta+gamma), then
    # each level keeps the fraction alpha / (alpha+beta+gamma)
    c = p.alpha / (p.alpha + p.beta + p.gamma)
    chain = p.lambda_b / p.alpha * c ** np.arange(1, p.n_levels + 1)
    assert np.abs(fp.x_star - chain).max() < 1e-10
    assert fp.trade_volume == pytest.approx(p.gamma * chain.sum(), abs=1e-10)


def test_residual_zero_at_analytic_points():
    assert fixed_point_residual(np.array([1 / 3]), np.array([1 / 3]),
                                params(n=1)) < 1e-15
    assert fixed_point_residual(np.array([3 / 7, 1 / 7]),
                                np.array([1 / 7, 3 / 7]), params(n=2)) < 1e-15


def test_recursive_rejects_bad_arguments():
    # the solvers are direct: iteration knobs are rejected, not ignored
    with pytest.raises(TypeError):
        solve_recursive(params(), scheme="implicit")
    with pytest.raises(TypeError):
        solve_recursive(params(), max_iter=10)
    with pytest.raises(TypeError):
        solve_shooting(params(), tol=1e-12)


# ------------------------------------------------ crossing-index pattern solve

def residual_bound(p):
    return 1e-8 * max(1.0, p.lambda_b, p.lambda_s)


def pattern_system(p, ell):
    """Solve the stationary equations as a dense linear system with the min
    terms fixed by crossing index ell (min = y on levels 1..ell, else x)."""
    n = p.n_levels
    m = np.zeros((2 * n, 2 * n))
    rhs = np.zeros(2 * n)
    for i in range(n):
        m[i, i] += p.alpha + p.beta
        m[n + i, n + i] += p.alpha + p.beta
        trade = n + i if i < ell else i
        m[i, trade] += p.gamma
        m[n + i, trade] += p.gamma
        if i:
            m[i, i - 1] -= p.alpha
        if i < n - 1:
            m[n + i, n + i + 1] -= p.alpha
    rhs[0] = p.lambda_b
    rhs[2 * n - 1] = p.lambda_s
    z = np.linalg.solve(m, rhs)
    return z[:n], z[n:]


def test_small_n_enumeration_matches_brute_force():
    # every crossing index whose linear solution has the sign pattern it
    # assumed is a fixed point; the solver's ell must be one of them and all
    # of them must be the same point
    rng = np.random.default_rng(45)
    for k in range(200):
        p = random_params(rng, n_max=12)
        if k % 5 == 0:
            p = ModelParams(p.n_levels, p.lambda_b, p.lambda_s, p.alpha, 0.0,
                            p.gamma)
        fr, fs = solve_recursive(p), solve_shooting(p)
        scale = max(fr.x_star.max(), fr.y_star.max())
        slack = 1e-9 * scale
        consistent = []
        for ell in range(p.n_levels + 1):
            x, y = pattern_system(p, ell)
            if ((x[:ell] >= y[:ell] - slack).all()
                    and (x[ell:] <= y[ell:] + slack).all()):
                consistent.append((ell, x, y))
        assert fr.ell in [c[0] for c in consistent], p
        assert fs.ell == fr.ell
        for _, x, y in consistent:
            for fp in (fr, fs):
                gap = max(np.abs(x - fp.x_star).max(),
                          np.abs(y - fp.y_star).max())
                assert gap < 1e-8 * scale, p


def test_balanced_beta_zero_profile_is_symmetric():
    # lambda_b = lambda_s at beta = 0: the profile is its own mirror image.
    # The residual is no guide here: a point 2.66 away from this one has
    # residual 1.5e-12, so the test compares coordinates.
    p = ModelParams(178, 1.8157118112524147, 1.8157118112524147,
                    0.6836933117513347, 0.0, 5.15003798128096)
    for solve in (solve_recursive, solve_shooting):
        fp = solve(p)
        scale = max(fp.x_star.max(), fp.y_star.max())
        assert fp.ell == 89
        assert np.abs(fp.x_star - fp.y_star[::-1]).max() <= 1e-12 * scale
        assert fp.residual <= residual_bound(p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 1000),
    alpha=st.floats(0.1, 10.0),
    beta=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    gamma_ratio=st.floats(1e-2, 1e4),
    lambda_b=st.floats(0.1, 10.0),
    log_ratio=st.floats(-6.0, 6.0),
)
def test_solvers_over_parameter_extremes(n, alpha, beta, gamma_ratio, lambda_b,
                                         log_ratio):
    p = ModelParams(n, lambda_b, lambda_b * 10.0 ** log_ratio, alpha, beta,
                    alpha * gamma_ratio)
    fr, fs = solve_recursive(p), solve_shooting(p)
    bound = residual_bound(p)
    assert fr.residual <= bound and fs.residual <= bound
    scale = max(fr.x_star.max(), fr.y_star.max())
    gap = max(np.abs(fr.x_star - fs.x_star).max(),
              np.abs(fr.y_star - fs.y_star).max())
    assert gap <= 1e-6 * scale
    for fp in (fr, fs):
        assert classify_regime(fp) == (fp.ell, fp.regime)


def test_non_solution_raises(monkeypatch):
    p = params(n=3)
    x, y, _ = fixed_point._pattern_solve(p)
    monkeypatch.setattr(fixed_point, "_pattern_solve",
                        lambda p: (x * 1.01, y, 1))
    with pytest.raises(ResidualTooLarge):
        solve_shooting(p)
    with pytest.raises(ResidualTooLarge):
        solve_recursive(p)


def test_downward_crossing_raises_typed_error(monkeypatch):
    # the theory rules this out; a broken map must raise, even under -O
    monkeypatch.setattr(fixed_point, "_advance", lambda v, w, p: (1.0, 0.1))
    with pytest.raises(InvariantViolation):
        map_jacobian_check(BrokenLinePoint(0.1, 0.5, 1), params(n=2))
