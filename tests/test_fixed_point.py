"""Fixed-point solvers, the forward broken-line map, and regime structure."""

import hashlib
import math
import random
import sys

import numpy as np
import pytest
from conftest import needs_cc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobfluid import (
    BrokenLinePoint,
    FixedPoint,
    InvariantViolation,
    ModelParams,
    NonMonotoneInput,
    OnKink,
    ResidualTooLarge,
    SolverError,
    classify_regime,
    fixed_point_residual,
    map_jacobian_check,
    solve_recursive,
    solve_shooting,
    step_map,
    trade_volume,
)
from lobfluid import _cext, fixed_point, ode, output


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

@pytest.fixture
def each_classify(monkeypatch):
    """Call it to iterate over the classification's routes by name, the
    Python twin first, then the C classify where it loads; on each step
    classify_regime and both solver names take that route."""
    c = fixed_point._c_classify()
    routes = {"python": None} | ({"c": c} if c is not None else {})

    def each():
        for name, classify in routes.items():
            monkeypatch.setattr(fixed_point, "_c_classify",
                                lambda classify=classify: classify)
            yield name
    return each


def test_classify_regime_examples(each_classify):
    for _ in each_classify():
        fp = solve_shooting(params(n=1, lam_b=2.0))
        assert (fp.ell, fp.regime) == (1, "i")
        fp = solve_shooting(params(n=2))
        assert (fp.ell, fp.regime) == (1, "iii")
        fp = solve_shooting(params(n=2, lam_b=1e-3))
        assert (fp.ell, fp.regime) == (0, "ii")
        # coordinates of another dtype are classified as float64
        ints = FixedPoint(np.array([3, 1]), np.array([2, 4]), 1, "iii", 0.0,
                          "synthetic", 0.0, 0)
        assert classify_regime(ints) == (1, "iii")


def test_classify_rejects_nonmonotone_input(each_classify):
    bad = FixedPoint(np.array([0.1, 0.2]), np.array([0.05, 0.3]), 1, "iii",
                     0.0, "synthetic", 0.0, 0)
    for _ in each_classify():
        with pytest.raises(NonMonotoneInput):
            classify_regime(bad)


@pytest.mark.parametrize("x, y, message", [
    ([0.3, 0.2], [0.2, 0.1], "y\\* is not strictly increasing"),
    # x* falls and y* rises by less than the 1e-9 slack the ordering
    # allows, so x* - y* is negative at level 1 and positive at level 2
    ([0.5, 0.5 + 5e-10], [0.5 + 1e-10, 0.5 + 2e-10],
     "crosses more than once"),
], ids=["y-falls", "x-y-cross-within-slack"])
def test_classify_rejects_a_broken_interleaving(x, y, message,
                                                each_classify):
    bad = FixedPoint(np.array(x), np.array(y), 1, "iii", 0.0, "synthetic",
                     0.0, 0)
    for _ in each_classify():
        with pytest.raises(NonMonotoneInput, match=message):
            classify_regime(bad)


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("level", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_classify_refuses_a_non_finite_point(side, level, value,
                                             each_classify):
    # NaN fails every comparison and inf passes some, so such a point
    # once classified: x* = [nan, 1], y* = [0.5, 2] as (0, "ii"), and
    # x* = [inf, 1] as (1, "iii"), where the first level of x is the one
    # not finite, as in the first-level cases here
    point = {"x": [1.0, 0.8, 0.6, 0.4, 0.2], "y": [0.1, 0.3, 0.5, 0.7, 0.9]}
    point[side][level] = value
    bad = FixedPoint(np.array(point["x"]), np.array(point["y"]), 0, "ii",
                     0.0, "synthetic", 0.0, 0)
    for _ in each_classify():
        with pytest.raises(NonMonotoneInput,
                           match="^x\\* or y\\* holds a value that is not "
                                 "finite$"):
            classify_regime(bad)


def test_trade_volume_values(each_classify):
    for _ in each_classify():
        p2 = params(n=2)
        fp = solve_shooting(p2)
        assert trade_volume(fp, p2) == pytest.approx(2 / 7, abs=1e-10)
        assert fp.trade_volume.hex() == trade_volume(fp, p2).hex()
        p1 = params(n=1, lam_b=2.0)
        fp = solve_shooting(p1)
        assert trade_volume(fp, p1) == pytest.approx(1 / 3, abs=1e-10)
        assert fp.trade_volume.hex() == trade_volume(fp, p1).hex()
        synthetic = FixedPoint(np.zeros(3), np.array([0.1, 0.2, 0.3]), 0,
                               "ii", 0.0, "synthetic", 0.0, 0)
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
# q = beta (2 alpha + beta + gamma) overflows (kappa's 1 - kappa would be
# inf / inf), and gamma alpha underflows to 0 at beta = 0 (kappa 0 / 0)
@example(n=3, alpha=1.0, beta=1e300, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
@example(n=1000, alpha=1.0, beta=1e155, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
@example(n=1, alpha=1.0, beta=1e300, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=3.0)
@example(n=3, alpha=1.0, beta=1e100, gamma_ratio=1e300, lambda_b=1.0,
         log_ratio=0.0)
@example(n=50, alpha=1e-100, beta=0.0, gamma_ratio=1e-200, lambda_b=2.0,
         log_ratio=-3.0)
# lambda_b / alpha underflows to 0 (1e-300 / 1e300), where the log of the
# quotient raised a math domain error: regime ii
@example(n=1, alpha=1e300, beta=0.0, gamma_ratio=1e-300, lambda_b=1e-300,
         log_ratio=300.0)
@example(n=1, alpha=1e300, beta=1.0, gamma_ratio=1e-300, lambda_b=1e-300,
         log_ratio=300.0)
@example(n=5, alpha=1e300, beta=0.0, gamma_ratio=1e-300, lambda_b=1e-300,
         log_ratio=300.0)
@example(n=5, alpha=1e300, beta=1.0, gamma_ratio=1e-300, lambda_b=1e-300,
         log_ratio=300.0)
# lambda_s / alpha overflows to inf (1e305 / 1e-10), where every trial was
# NaN and the residual bound refused the point: regime iii
@example(n=3, alpha=1e-10, beta=1.0, gamma_ratio=1e10, lambda_b=1e300,
         log_ratio=5.0)
# where lambda_s / alpha = 1e312 is past the float range and y_1 fills in
# log space
@example(n=1, alpha=1e-12, beta=1.0, gamma_ratio=1e12, lambda_b=1e305,
         log_ratio=-5.0)
def test_solvers_over_parameter_extremes(n, alpha, beta, gamma_ratio, lambda_b,
                                         log_ratio):
    assert_solvers_agree(ModelParams(n, lambda_b, lambda_b * 10.0 ** log_ratio,
                                     alpha, beta, alpha * gamma_ratio))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_arrivals_whose_ratio_to_alpha_overflows_scale_the_point(n):
    # the point is linear in the arrivals: with lambda_s / alpha = 1e315,
    # past the largest float, it is 1e300 times the point of the arrivals
    # divided by 1e300, to rounding (regime ii at N = 1, iii above; at
    # N = 10 x* falls to 3e208, the scaled point's to 3e-92)
    p = ModelParams(n, 1e300, 1e305, 1e-10, 1.0, 1.0)
    scaled = ModelParams(n, 1.0, 1e5, 1e-10, 1.0, 1.0)
    fp, want = assert_solvers_agree(p), solve_recursive(scaled)
    assert (fp.ell, fp.regime) == (want.ell, want.regime)
    for got, ref in [(fp.x_star, want.x_star), (fp.y_star, want.y_star)]:
        assert np.abs(got / (1e300 * ref) - 1.0).max() <= 1e-12


# gamma alpha overflows at alpha = gamma = 1e200 (kappa would be inf / inf,
# as would 1 - kappa where q overflows too); at N = 1 the point is pinned
@pytest.mark.parametrize("beta,x1", [(0.0, 5e-201), (1.0, 5e-201),
                                     (1e300, 1e-300)])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
def test_solvers_where_gamma_alpha_overflows(n, beta, x1):
    fp = assert_solvers_agree(ModelParams(n, 1.0, 1.0, 1e200, beta, 1e200))
    if n == 1:
        assert fp.x_star.tolist() == fp.y_star.tolist() == [x1]


def assert_solvers_agree(p):
    """Both solvers return within the residual bound, agree, and classify
    their own crossing index; returns solve_recursive's point."""
    fr, fs = solve_recursive(p), solve_shooting(p)
    bound = residual_bound(p)
    assert fr.residual <= bound and fs.residual <= bound
    scale = max(fr.x_star.max(), fr.y_star.max())
    gap = max(np.abs(fr.x_star - fs.x_star).max(),
              np.abs(fr.y_star - fs.y_star).max())
    assert gap <= 1e-6 * scale
    for fp in (fr, fs):
        assert classify_regime(fp) == (fp.ell, fp.regime)
    return fr


def pinned_params():
    """Parameter sets over the admissible range: N in {1, 6, 178, 1000},
    each with beta = 0 at balanced and at unbalanced arrivals,
    gamma/alpha = 1e4, arrival ratios 1e-6 and 1e6 and one moderate set,
    and beta just below where q = beta (2 alpha + beta + gamma) overflows.
    Where beta > 0 the rates are chosen so that (beta + alpha) + gamma and
    beta + (alpha + gamma) round apart, so a reordered sum shows."""
    for n in (1, 6, 178, 1000):
        yield ModelParams(n, 1.8157118112524147, 1.8157118112524147,
                          0.6836933117513347, 0.0, 5.15003798128096)
        yield ModelParams(n, 0.73, 2.9, 1.3, 0.0, 0.41)
        yield ModelParams(n, 1.7, 0.6, 0.910499, 1.495533, 9104.99)
        yield ModelParams(n, 3.1, 3.1e-6, 1.764429, 0.138031, 2.139209)
        yield ModelParams(n, 0.29, 0.29e6, 0.562852, 2.411726, 0.278119)
        yield ModelParams(n, 0.83, 1.21, 1.147451, 0.581273, 0.614107)
    yield ModelParams(3, 1.0, 1.0, 1.0, 1e154, 1.0)


PINNED_STEPS = [
    (BrokenLinePoint(0.3, 0.1, 1),
     ModelParams(2, 1.0, 1.0, 1.764429, 0.138031, 2.139209)),
    (BrokenLinePoint(0.1, 0.3, 1), params(n=2)),
    (BrokenLinePoint(0.2, 0.2, 2),
     ModelParams(3, 0.83, 1.21, 1.147451, 0.581273, 0.614107)),
    (BrokenLinePoint(0.7, 0.05, 1), ModelParams(4, 0.73, 2.9, 1.3, 0.0, 0.41)),
    (BrokenLinePoint(0.0, 0.0, 1),
     ModelParams(2, 1.7, 0.6, 0.910499, 1.495533, 9104.99)),
]
# sha256 over solve_recursive's x*, y*, ell, iterations and residual on
# pinned_params() and over step_map on PINNED_STEPS; it pins the solver's
# bits where the golden CSVs of test_cli (N = 2 and 40) do not reach
PINNED_SOLVER_DIGEST = (
    "2de0399329b2c246fd007dc49424bcf63182edccc3c1b32119a46b5793614b63")


def test_solver_bits_over_the_admissible_range():
    digest = hashlib.sha256()
    for p in pinned_params():
        fp = solve_recursive(p)
        digest.update(fp.x_star.astype("<f8").tobytes())
        digest.update(fp.y_star.astype("<f8").tobytes())
        digest.update(
            f"{fp.ell} {fp.iterations} {fp.residual.hex()}".encode())
    for point, p in PINNED_STEPS:
        out = step_map(point, p)
        digest.update(f"{out.v.hex()} {out.w.hex()} {out.k}".encode())
    assert digest.hexdigest() == PINNED_SOLVER_DIGEST


def test_non_solution_raises(monkeypatch):
    # the residual check runs on the C solve's point where it loads, and
    # on the Python twin's elsewhere: a bound below the residual of a
    # true solve raises on either route, and so does a twin that returns
    # a point off the fixed point
    p = ModelParams(3, 1.3, 0.7, 0.9, 0.4, 2.5)
    x, y, _ = fixed_point._pattern_solve(p)
    residual = fixed_point_residual(x, y, p)
    assert residual > 0.0
    for c_solve in (fixed_point._c_solve(), None):
        monkeypatch.setattr(fixed_point, "_c_solve",
                            lambda c_solve=c_solve: c_solve)
        with monkeypatch.context() as patch:
            patch.setattr(fixed_point, "RESIDUAL_REL", residual / 2.0)
            for solve in (solve_shooting, solve_recursive):
                with pytest.raises(ResidualTooLarge,
                                   match=f"residual {residual:.3e} exceeds"):
                    solve(p)
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


# ------------------------------------------------------------- the C solve

def c_solve():
    """The C solve, or a skip where it does not load."""
    solve = fixed_point._c_solve()
    if solve is None:
        pytest.skip("the C solve does not load here")
    return solve


def c_result(solve, p):
    """(x bytes, y bytes, trials, residual hex) of the C solve."""
    x, y = np.empty(p.n_levels), np.empty(p.n_levels)
    trials, residual = solve(_cext.rates(p), x, y)
    return x.tobytes(), y.tobytes(), trials, residual.hex()


def twin_result(p):
    """The same of the Python twin."""
    x, y, trials = fixed_point._pattern_solve(p)
    residual = fixed_point_residual(x, y, p)
    return x.tobytes(), y.tobytes(), trials, residual.hex()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 1000),
    alpha=st.floats(0.1, 10.0),
    beta=st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    gamma_ratio=st.floats(1e-2, 1e4),
    lambda_b=st.floats(0.1, 10.0),
    log_ratio=st.floats(-6.0, 6.0),
)
# the examples of test_solvers_over_parameter_extremes
@example(n=3, alpha=1.0, beta=1e300, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
@example(n=1000, alpha=1.0, beta=1e155, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
@example(n=1, alpha=1.0, beta=1e300, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=3.0)
@example(n=3, alpha=1.0, beta=1e100, gamma_ratio=1e300, lambda_b=1.0,
         log_ratio=0.0)
@example(n=50, alpha=1e-100, beta=0.0, gamma_ratio=1e-200, lambda_b=2.0,
         log_ratio=-3.0)
# those of test_solvers_where_gamma_alpha_overflows
@example(n=1, alpha=1e200, beta=0.0, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
@example(n=50, alpha=1e200, beta=1.0, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
@example(n=1000, alpha=1e200, beta=1e300, gamma_ratio=1.0, lambda_b=1.0,
         log_ratio=0.0)
# where an arrival rate over alpha underflows to 0 or overflows to inf,
# and both solves take the logarithms apart; at lambda_b = 1e300,
# alpha = gamma = 1e-10 the trial's exp(log_s) overflows, and so does x*
@example(n=1, alpha=1e300, beta=0.0, gamma_ratio=1e-300, lambda_b=1e-300,
         log_ratio=300.0)
@example(n=5, alpha=1e300, beta=1.0, gamma_ratio=1e-300, lambda_b=1e-300,
         log_ratio=300.0)
@example(n=3, alpha=1e-10, beta=0.0, gamma_ratio=1.0, lambda_b=1e300,
         log_ratio=-300.0)
@example(n=3, alpha=1e-10, beta=1.0, gamma_ratio=1e10, lambda_b=1e300,
         log_ratio=5.0)
# where lambda_s / alpha = 1e312 is past the float range and y_1 fills in
# log space
@example(n=1, alpha=1e-12, beta=1.0, gamma_ratio=1e12, lambda_b=1e305,
         log_ratio=-5.0)
# where _kappa's gamma alpha + q overflows though each term is finite
# (its other rescale needs gamma / alpha below 5e-324, past gamma_ratio's
# reach: test_kappa_at_rates_a_float_range_apart has it)
@example(n=2, alpha=1.0, beta=1e-12, gamma_ratio=1.7976931348623157e308,
         lambda_b=1.0, log_ratio=0.0)
def test_the_c_solve_matches_its_python_twin(n, alpha, beta, gamma_ratio,
                                             lambda_b, log_ratio):
    # the C solve returns its twin's bytes on every admitted input,
    # non-finite points and NaN residuals included, and the twin raises
    # on none
    p = ModelParams(n, lambda_b, lambda_b * 10.0 ** log_ratio, alpha, beta,
                    alpha * gamma_ratio)
    assert c_result(c_solve(), p) == twin_result(p)


@needs_cc
def test_the_c_solve_loads_where_a_compiler_is_found():
    # where cc and Python.h are found, both solver names run the C solve;
    # the tests that compare it with its twin then compare C with Python
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    assert fixed_point._c_solve() is not None


@pytest.mark.parametrize("n", [1, 3, 10])
def test_a_virtual_level_beyond_the_float_range_scales_the_point(n):
    # y_(N+1) = lambda_s / alpha = 1e312 is past the float range; the
    # point is linear in the arrivals, so it is 1e10 times the point at
    # arrivals 1e10 times smaller, where every level is in range. At one
    # level (regime i) y_1 fills in log space from y_(N+1), where it once
    # came out inf and capped nothing
    p = params(n=n, lam_b=1e305, lam_s=1e300, alpha=1e-12)
    small = params(n=n, lam_b=1e295, lam_s=1e290, alpha=1e-12)
    assert p.lambda_s / p.alpha == math.inf
    for solve in (solve_recursive, solve_shooting):
        point, scaled = solve(p), solve(small)
        for got, want in ((point.x_star, scaled.x_star),
                          (point.y_star, scaled.y_star)):
            np.testing.assert_allclose(got, 1e10 * want, rtol=1e-12, atol=0)
        if n == 1:
            y = p.lambda_s / (p.alpha + p.beta + p.gamma)
            x = (p.lambda_b - p.gamma * y) / (p.beta + p.alpha)
            assert point.regime == "i"
            np.testing.assert_allclose(point.y_star, [y], rtol=1e-12, atol=0)
            np.testing.assert_allclose(point.x_star, [x], rtol=1e-12, atol=0)


# rates of the two rescales of _kappa: gamma alpha + q overflows though
# each term is finite, and gamma alpha and q both round to 0 once divided
# by the largest rate squared
KAPPA_CASES = {
    "sum-overflows": (1.0, 1e-12, 1.7976931348623157e308),
    "terms-vanish": (1.7976931348623157e308, 0.0, 5e-324),
}


@pytest.mark.parametrize("n", [1, 2, 50], ids=["n1", "n2", "n50"])
@pytest.mark.parametrize("case", list(KAPPA_CASES), ids=list(KAPPA_CASES))
def test_kappa_at_rates_a_float_range_apart(monkeypatch, case, n):
    # where kappa and 1 - kappa were 0 and 0 (a zero determinant) or
    # 0 / 0, both names return a point within the bound, with one set of
    # bits from the C solve and from its Python twin
    alpha, beta, gamma = KAPPA_CASES[case]
    kappa, one_minus_kappa = fixed_point._kappa(alpha, beta, gamma)
    if beta == 0.0:
        assert (kappa, one_minus_kappa) == (1.0, 0.0)
    else:
        assert one_minus_kappa == pytest.approx(beta / alpha, rel=1e-2)
        assert kappa == 1.0 - one_minus_kappa
    p = ModelParams(n, 1.0, 1.0, alpha, beta, gamma)
    found = set()
    for c_solve in (fixed_point._c_solve(), None):
        monkeypatch.setattr(fixed_point, "_c_solve",
                            lambda c_solve=c_solve: c_solve)
        for solve in (solve_recursive, solve_shooting):
            fp = solve(p)
            assert fp.residual <= residual_bound(p)
            found.add((fp.x_star.tobytes(), fp.y_star.tobytes(),
                       fp.iterations, fp.residual.hex()))
    assert len(found) == 1


def test_the_solve_check_covers_every_regime():
    # the load-time check's draws: regimes i, ii and iii, beta = 0 at
    # balanced and at unbalanced arrivals, gamma alpha overflowing, arrival
    # rates over alpha underflowing to 0 and overflowing to inf, points
    # whose y_1 fills in log space past an out-of-range y_(N+1), four of
    # them with lambda_s near lambda_b, N = 1, and both rescales of
    # _kappa, on each of which the Python twin returns within the bound;
    # and one point past the float range, which both names refuse
    draws = list(_cext._solve_draws(random.Random(_cext.SEED)))
    outside = ModelParams(3, 1e300, 1.0, 1e-10, 0.0, 1e-10)
    assert draws.count(outside) == 1
    with pytest.raises(SolverError, match="outside the float range"):
        solve_recursive(outside)
    draws.remove(outside)
    points = [(p, solve_recursive(p)) for p in draws]
    assert {fp.regime for _, fp in points} == {"i", "ii", "iii"}
    zero_beta = [p for p in draws if p.beta == 0.0]
    assert any(p.lambda_b == p.lambda_s for p in zero_beta)
    assert any(p.lambda_b != p.lambda_s for p in zero_beta)
    assert any(p.gamma * p.alpha == math.inf for p in draws)
    assert any(p.lambda_b / p.alpha == 0.0 for p in draws)
    assert any(p.lambda_s / p.alpha == math.inf for p in draws)
    assert any(p.n_levels == 1 for p in draws)
    # the trial's scale exp(log_s) at the crossing is past the float range
    log_max = math.log(sys.float_info.max)
    fills = [p for p, fp in points if fp.regime == "i"
             and fixed_point._trials(p)(fp.ell)[2] > log_max]
    assert sum(p.n_levels == 1 and 0.9 <= p.lambda_s / p.lambda_b < 1.0
               for p in fills) >= 4
    big, tiny = 1.7976931348623157e308, 5e-324
    for rates in ((1.0, 1e-12, big), (big, 0.0, tiny)):
        assert ({p.n_levels for p in draws
                 if (p.alpha, p.beta, p.gamma) == rates}
                == set(_cext.SOLVE_SIZES))
    assert all(fp.residual <= residual_bound(p) for p, fp in points)


def test_both_solver_names_take_the_c_solve(monkeypatch):
    # the C solve, where it loads, gives both names their point, with the
    # bits of the Python twin
    p = ModelParams(178, 1.7, 0.6, 0.910499, 1.495533, 9104.99)
    solve, calls = c_solve(), []
    monkeypatch.setattr(fixed_point, "_c_solve", lambda: lambda *args: (
        calls.append(args) or solve(*args)))
    points = [f(p) for f in (solve_recursive, solve_shooting)]
    assert len(calls) == 2
    for fp in points:
        assert (fp.x_star.tobytes(), fp.y_star.tobytes(), fp.iterations,
                fp.residual.hex()) == twin_result(p)


# the solve's (beta + alpha) + gamma regrouped, one of its multiply-adds
# fused, and each level of its log-space fill one ulp high
SOLVE_MUTATIONS = {
    "regrouped": ("bpag = bpa + g", "bpag = b + (a + g)"),
    "fused": ("gain - g * y[k]", "fma(-g, y[k], gain)"),
    "fill-last-bit": ("y[k] = copysign(exp(level_y), found[1]);",
                      "y[k] = copysign(exp(level_y), found[1])"
                      " * (1.0 + 0x1p-52);"),
}


@needs_cc
@pytest.mark.parametrize("case", list(SOLVE_MUTATIONS))
def test_a_solve_library_that_differs_is_refused(tmp_path, monkeypatch,
                                                 fresh_extension_choice, case):
    # the library builds, loads and runs, but its solve's bits are not
    # the twin's: the solve's load-time check refuses it, and both solver
    # names run the twin, while the flow, the writer, the classify and
    # the engine of that library pass their own checks and stay in use
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    statement, replacement = SOLVE_MUTATIONS[case]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _cext.SOURCE.count(statement) == 1
    monkeypatch.setattr(_cext, "SOURCE",
                        _cext.SOURCE.replace(statement, replacement))
    agrees, checked = _cext._solve_agrees, []
    monkeypatch.setattr(_cext, "_solve_agrees",
                        lambda solve: checked.append(solve) or agrees(solve))
    assert fixed_point._c_solve() is None
    assert ode._c_flow() is not None
    assert output._c_write() is not None
    assert fixed_point._c_classify() is not None
    assert _cext.load("engine") is _cext._extension().engine
    # it was built and loaded, and refused by the check
    solve, = checked
    p = params(n=4)
    assert isinstance(solve(_cext.rates(p), np.empty(4), np.empty(4)), tuple)
    fp = solve_recursive(p)
    assert (fp.x_star.tobytes(), fp.y_star.tobytes(), fp.iterations,
            fp.residual.hex()) == twin_result(p)


@needs_cc
def test_the_solve_c_compiles_without_warnings(build_extension):
    # the solve's C is part of the extension's one source; the module
    # built from it with warnings as errors gives the twin's bits
    solve = build_extension.solve
    for p in pinned_params():
        assert c_result(solve, p) == twin_result(p), p


def solve_refusals() -> dict:
    """The C solve's refusals by case: (arguments, exception, message), at
    N = 2. A message of None is numpy's, the buffer exporter's, and is
    not pinned."""
    rates, x, y = _cext.rates(params(n=2)), np.zeros(2), np.zeros(2)
    read_only = y.copy()
    read_only.flags.writeable = False
    types = "solve takes float64 arrays"
    sizes = ("solve takes the rates (N, lambda_b, lambda_s, alpha, beta, "
             "gamma) and x and y of N values")
    return {
        "two-arguments": ((rates, x), TypeError, "solve takes (rates, x, y)"),
        "int64-rates": ((rates.astype(np.int64), x, y), TypeError, types),
        "float32-x": ((rates, x.astype(np.float32), y), TypeError, types),
        "list-y": ((rates, x, [0.0, 0.0]), TypeError, None),
        "read-only-y": ((rates, x, read_only), ValueError, None),
        "short-rates": ((rates[:5], x, y), ValueError, sizes),
        "n-zero": ((np.array([0.0, *rates[1:]]), np.empty(0), np.empty(0)),
                   ValueError, sizes),
        "n-fractional": ((np.array([1.5, *rates[1:]]), x, y), ValueError,
                         sizes),
        "y-longer": ((rates, x, np.empty(3)), ValueError, sizes),
    }


@pytest.mark.parametrize("case", list(solve_refusals()))
def test_the_c_solve_refuses_other_arguments(case):
    solve = c_solve()
    args, error, message = solve_refusals()[case]
    with pytest.raises(error) as raised:
        solve(*args)
    if message is not None:
        assert str(raised.value) == message


# ---------------------------------------------------------- the C classify

def c_classify():
    """The C classify, or a skip where it does not load."""
    classify = fixed_point._c_classify()
    if classify is None:
        pytest.skip("the C classify does not load here")
    return classify


def classified(classify, gamma, x, y):
    """(ell, refusal, trade volume hex) of classify, the C one or its
    Python twin, `_cext._classify_twin`."""
    ell, refusal, volume = classify(gamma, x, y)
    return ell, refusal, volume.hex()


def twin_classified(gamma, x, y):
    return classified(_cext._classify_twin, gamma, x, y)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
    top=st.floats(0.1, 10.0),
    gamma=st.floats(0.1, 10.0),
    zeros=st.booleans(),
    tie=st.booleans(),
)
def test_the_c_classify_matches_its_python_twin(n, seed, top, gamma, zeros,
                                                tie):
    # interleaved points: x the sorted draws of [0, 2] falling, read as a
    # reversed view, so the C reads it with its stride, and y those of
    # [0, 2 top] rising; with zeros x is 0 from the middle level on, and
    # with tie y equals x at the first level where x is not above it
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 2.0, n))[::-1]
    y = np.sort(rng.uniform(0.0, 2.0 * top, n))
    if zeros:
        x[n // 2:] = 0.0
    if tie:
        k = min(int(np.count_nonzero(x > y)), n - 1)
        y[k] = x[k]
    assert (classified(c_classify(), gamma, x, y)
            == twin_classified(gamma, x, y))


def test_the_c_classify_matches_its_twin_on_the_check_points():
    # the load-time check's points, one by one: every refusal, non-finite
    # values at the first, a middle and the last level of each side, and
    # interleaved points at every CLASSIFY_SIZES level count
    classify = c_classify()
    points = list(_cext._classify_points(random.Random(_cext.SEED)))
    refusals, sizes, non_finite = set(), set(), set()
    for gamma, x, y in points:
        x, y = np.array(x), np.array(y)
        want = twin_classified(gamma, x, y)
        assert classified(classify, gamma, x, y) == want, (x, y)
        refusals.add(want[1])
        if want[1] == 0:
            sizes.add(x.size)
        for side, v in (("x", x), ("y", y)):
            non_finite |= {(side, int(k), str(v[k]))
                           for k in np.flatnonzero(~np.isfinite(v))}
    assert refusals == set(range(len(fixed_point._REFUSALS)))
    assert sizes >= set(_cext.CLASSIFY_SIZES)
    assert non_finite == {(side, k, value) for side in "xy"
                          for k in (0, 2, 4) for value in ("nan", "inf",
                                                           "-inf")}


@pytest.mark.parametrize("route", ["c", "python"])
def test_the_trade_volume_is_numpys_sum_over_the_admissible_range(
        monkeypatch, route):
    # with the C solve and classify, and with their Python twins, each
    # solved point carries numpy's trade volume to the last bit
    if route == "python":
        monkeypatch.setattr(fixed_point, "_c_solve", lambda: None)
        monkeypatch.setattr(fixed_point, "_c_classify", lambda: None)
    for p in pinned_params():
        fp = solve_recursive(p)
        want = float(p.gamma * np.minimum(fp.x_star, fp.y_star).sum())
        assert fp.trade_volume.hex() == want.hex(), p
        assert classify_regime(fp) == (fp.ell, fp.regime)


def test_both_solver_names_take_the_c_classify(monkeypatch):
    # the C classify, where it loads, gives both names their crossing
    # index, regime and trade volume, with the twin's bits
    p = ModelParams(178, 1.7, 0.6, 0.910499, 1.495533, 9104.99)
    classify, calls = c_classify(), []
    monkeypatch.setattr(fixed_point, "_c_classify", lambda: lambda *args: (
        calls.append(args) or classify(*args)))
    points = [f(p) for f in (solve_recursive, solve_shooting)]
    assert len(calls) == 2
    for fp in points:
        want_ell, _, want_volume = twin_classified(p.gamma, fp.x_star,
                                                   fp.y_star)
        assert (fp.ell, fp.trade_volume.hex()) == (want_ell, want_volume)


@needs_cc
def test_the_c_classify_loads_where_a_compiler_is_found():
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    assert fixed_point._c_classify() is not None


# the x test's >= turned strict, so a step exactly at the slack passes, and
# the volume summed left to right, as numpy sums below 8 values
CLASSIFY_MUTATIONS = {
    "x-step-strict": ("if (AT(x, k) >= AT(x, k - 1) + slack)",
                      "if (AT(x, k) > AT(x, k - 1) + slack)"),
    "left-to-right-sum": ("if (n < 8) {", "if (n > 0) {"),
}


@needs_cc
@pytest.mark.parametrize("case", list(CLASSIFY_MUTATIONS))
def test_a_classify_library_that_differs_is_refused(
        tmp_path, monkeypatch, fresh_extension_choice, case):
    # the library builds, loads and runs, but its classify differs from
    # the twin: the classify's load-time check refuses it, and both solver
    # names and classify_regime run the twin, while the flow, the writer,
    # the solve and the engine of that library pass their own checks
    if _cext._python_flags() is None:
        pytest.skip("no Python.h for this interpreter")
    statement, replacement = CLASSIFY_MUTATIONS[case]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _cext.SOURCE.count(statement) == 1
    monkeypatch.setattr(_cext, "SOURCE",
                        _cext.SOURCE.replace(statement, replacement))
    agrees, checked = _cext._classify_agrees, []
    monkeypatch.setattr(_cext, "_classify_agrees", lambda classify: (
        checked.append(classify) or agrees(classify)))
    assert fixed_point._c_classify() is None
    assert ode._c_flow() is not None
    assert output._c_write() is not None
    assert fixed_point._c_solve() is not None
    assert _cext.load("engine") is _cext._extension().engine
    # it was built and loaded, and refused by the check
    classify, = checked
    assert isinstance(classify(1.0, np.ones(2), np.ones(2)), tuple)
    p = params(n=4)
    fp = solve_recursive(p)
    assert (fp.ell, fp.trade_volume.hex()) == twin_classified(
        p.gamma, fp.x_star, fp.y_star)[::2]
    assert classify_regime(fp) == (fp.ell, fp.regime)


@needs_cc
def test_the_classify_c_compiles_without_warnings(build_extension):
    # the classify's C is part of the extension's one source; the module
    # built from it with warnings as errors passes the classify's check
    # and gives the twin's bits on every pinned point
    classify = build_extension.classify
    assert _cext._classify_agrees(classify)
    for p in pinned_params():
        x, y, _ = fixed_point._pattern_solve(p)
        assert (classified(classify, p.gamma, x, y)
                == twin_classified(p.gamma, x, y)), p


def classify_refusals() -> dict:
    """The C classify's refusals by case: (arguments, exception, message).
    A message of None is numpy's or Python's, and is not pinned."""
    x, y = np.ones(2), np.zeros(2)
    types = "classify takes float64 vectors"
    sizes = "classify takes gamma and x and y of N >= 1 values"
    return {
        "two-arguments": ((1.0, x), TypeError, "classify takes (gamma, x, y)"),
        "string-gamma": (("1", x, y), TypeError, None),
        "int64-x": ((1.0, x.astype(np.int64), y), TypeError, types),
        "float32-y": ((1.0, x, y.astype(np.float32)), TypeError, types),
        "matrix-x": ((1.0, np.ones((2, 2)), y), TypeError, types),
        "list-y": ((1.0, x, [0.0, 0.0]), TypeError, None),
        "empty": ((1.0, np.empty(0), np.empty(0)), ValueError, sizes),
        "y-longer": ((1.0, x, np.zeros(3)), ValueError, sizes),
    }


@pytest.mark.parametrize("case", list(classify_refusals()))
def test_the_c_classify_refuses_other_arguments(case):
    classify = c_classify()
    args, error, message = classify_refusals()[case]
    with pytest.raises(error) as raised:
        classify(*args)
    if message is not None:
        assert str(raised.value) == message
