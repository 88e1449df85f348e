"""Fixed points of the fluid system: a direct solve on the crossing index.

The stationary equations for (x*, y*) are the zeros of the fluid right-hand
side (ode._flow), level by level (1-based):

    lambda_b       = (beta+alpha) x*_1 + gamma min(x*_1, y*_1)
    alpha x*_{k-1} = (beta+alpha) x*_k + gamma min(x*_k, y*_k)   1 < k <= N
    alpha y*_{k+1} = (beta+alpha) y*_k + gamma min(x*_k, y*_k)   1 <= k < N
    lambda_s       = (beta+alpha) y*_N + gamma min(x*_N, y*_N)

Every solution interleaves strictly (x* decreasing, y* increasing), so the
sign of x*-y* crosses once: x* > y* on levels 1..ell and not above. The
crossing index ell classifies the parameter regime (buyers dominate
everywhere, sellers dominate everywhere, or one interior crossing).

Once ell is fixed the min terms are known and the equations are linear.
With r = alpha/(alpha+beta), c = alpha/(alpha+beta+gamma), rho = r c and
kappa = gamma alpha / (gamma alpha + beta (2 alpha + beta + gamma)), y* is
geometric below the crossing (y*_k = c^(ell+1-k) Y) and x* above it
(x*_k = c^(k-ell) X), and X = x*_ell, Y = y*_(ell+1) solve

    X + kappa (1 - rho^ell) Y     = (lambda_b / alpha) r^ell
    kappa (1 - rho^(N-ell)) X + Y = (lambda_s / alpha) r^(N-ell)

(at ell = 0 the first row gives the virtual X = lambda_b / alpha, at ell = N
the second the virtual Y = lambda_s / alpha). For a trial ell, c X > Y means
x would exceed y one level up, so the crossing lies higher; X < c Y means it
lies lower. The test is monotone in ell, so bisection finds ell in
O(log N) trials of O(1) work each. The profile is then filled in O(N) by one
implicit sweep against the trial's y: x forward from lambda_b, y backward
from lambda_s, each scalar equation solved exactly with its min term
implicit, which keeps every entry nonnegative.

solve_shooting and solve_recursive currently run this same solve, bisecting
ell over [0, N], and return the same bits under their own labels; the ODE
route (ode.integrate_until_stationary) is the independent check. Every
returned point carries its residual, and a residual above
1e-8 * max(1, lambda_b, lambda_s) raises ResidualTooLarge instead of
returning a non-solution.

The forward broken-line map (step_map, map_jacobian_check) is the geometric
picture behind uniqueness: the first equation confines (x*_1, y*_1) to a
broken line, the middle equations push it forward level by level with
slopes that only steepen, and the last equation cuts the image once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    NonMonotoneInput,
    OnKink,
    ResidualTooLarge,
)
from .model import ModelParams
from .ode import _flow, _pack

__all__ = [
    "FixedPoint",
    "BrokenLinePoint",
    "SlopeCheck",
    "step_map",
    "map_jacobian_check",
    "solve_shooting",
    "solve_recursive",
    "classify_regime",
    "trade_volume",
    "fixed_point_residual",
]

# residual bound of a returned fixed point, relative to
# max(1, lambda_b, lambda_s)
RESIDUAL_REL = 1e-8
SLOPE_STEP = 1e-7  # finite-difference step of map_jacobian_check


@dataclass(frozen=True)
class BrokenLinePoint:
    """Auxiliary (v, w) coordinates at level k (1-based) along the
    forward construction; v plays the buyer role, w the seller role."""

    v: float
    w: float
    k: int


@dataclass(frozen=True)
class FixedPoint:
    """Solved stationary point with regime metadata.

    ell counts the levels with x*_i > y*_i (strict; exact ties fall on the
    other side and sit on a measure-zero regime boundary). regime is "i"
    (ell = N), "ii" (ell = 0) or "iii" (interior crossing). residual is the
    sup-norm defect over all 2N stationary equations; iterations counts the
    crossing-index trials of the bisection.
    """

    x_star: np.ndarray
    y_star: np.ndarray
    ell: int
    regime: str
    trade_volume: float
    solver: str
    residual: float
    iterations: int


def _advance(v: float, w: float, p: ModelParams) -> tuple[float, float]:
    """One forward step of the broken-line map (level k -> k+1).

    w' is explicit; v' is the _pw_root of (beta+alpha) u + gamma min(u, w')
    = alpha v. The root exists for any v >= 0 because the left side
    vanishes at 0 and is unbounded.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    w2 = ((a + b) * w + g * min(v, w)) / a
    v2 = _pw_root(a * v, w2, p)
    if v2 < 0.0:
        raise InvariantViolation("branch solve escaped the nonnegative orthant")
    return v2, w2


def step_map(point: BrokenLinePoint, params: ModelParams) -> BrokenLinePoint:
    """Push a broken-line point from level k to level k+1."""
    if point.k >= params.n_levels:
        raise ValueError(f"level {point.k} is already the last level")
    if point.v < 0 or point.w < 0:
        raise ValueError("broken-line coordinates must be nonnegative")
    v2, w2 = _advance(point.v, point.w, params)
    return BrokenLinePoint(v2, w2, point.k + 1)


@dataclass(frozen=True)
class SlopeCheck:
    """Finite-difference verification of the slope-propagation factor."""

    case: int            # 1: below->below, 2: below->above, 3: above->above
    slope_in: float
    slope_out: float     # measured via finite differences
    factor_numeric: float
    factor_analytic: float
    rel_diff: float


def _case_factor(case: int, p: ModelParams, slope_in: float) -> float:
    """Exact multiplicative factor slope_out / slope_in for each case.

    Case 2 is the constant (alpha+beta+gamma)^2 / alpha^2. Cases 1 and 3
    depend on the incoming slope and can equivalently be written as
    A * (alpha+beta+gamma) / alpha^2 with A = alpha + beta +
    gamma * (dw_{k+1}/dv_{k+1}) for case 1, and with the analogous B built
    from dv_k/dw_k for case 3. A straight segment maps to a straight
    segment in every case, so the factor is constant along it.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    if case == 1:
        return (a + b) * (a + b + g) / (a * a - g * (a + b + g) * slope_in)
    if case == 2:
        return (a + b + g) ** 2 / (a * a)
    if case == 3:
        return (a + b + g) * ((a + b) + g / slope_in) / (a * a)
    raise ValueError(f"no such case: {case}")


def map_jacobian_check(
    point: BrokenLinePoint,
    params: ModelParams,
    slope_in: float | None = None,
) -> SlopeCheck:
    """Differentiate the forward map along a tangent direction and compare
    the induced slope ratio with the analytic case factor.

    slope_in is the direction dw/dv at the input point (default: the slope
    of the initial segment, -(alpha+beta)/gamma). The point must lie strictly
    inside a case region: a tie v = w at input or image raises OnKink.
    """
    p, h = params, SLOPE_STEP
    if slope_in is None:
        slope_in = -(p.alpha + p.beta) / p.gamma
    v, w = point.v, point.w
    scale = max(abs(v), abs(w), 1.0)
    if abs(v - w) <= h * scale * max(1.0, abs(slope_in)):
        raise OnKink(f"input point sits on the diagonal: v={v}, w={w}")
    v2, w2 = _advance(v, w, p)
    if abs(v2 - w2) <= h * scale * max(1.0, abs(slope_in)):
        raise OnKink(f"image point sits on the diagonal: v={v2}, w={w2}")
    if v > w:
        case = 1 if v2 > w2 else 2
    else:
        if v2 > w2:
            raise InvariantViolation("map cannot cross the diagonal downward")
        case = 3
    va, wa = _advance(v + h, w + h * slope_in, p)
    dv = (va - v2) / h
    dw = (wa - w2) / h
    slope_out = dw / dv
    numeric = slope_out / slope_in
    analytic = _case_factor(case, p, slope_in)
    rel = abs(numeric - analytic) / abs(analytic)
    return SlopeCheck(case, slope_in, slope_out, numeric, analytic, rel)


def fixed_point_residual(
    x: np.ndarray, y: np.ndarray, params: ModelParams
) -> float:
    """Sup-norm defect of (x, y) over all 2N stationary equations: the
    largest component of the fluid right-hand side at that point."""
    return float(np.abs(_flow(0.0, _pack(x, y), params)).max())


def _classify(x: np.ndarray, y: np.ndarray) -> tuple[int, str]:
    """Crossing index and regime label; validates the interleaving."""
    n = x.shape[0]
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), 1.0)
    slack = 1e-9 * scale
    if n > 1:
        if (x[1:] >= x[:-1] + slack).any():
            raise NonMonotoneInput("x* is not strictly decreasing")
        if (y[1:] <= y[:-1] - slack).any():
            raise NonMonotoneInput("y* is not strictly increasing")
    above = x > y
    ell = int(above.sum())
    if above[:ell].sum() != ell or above[ell:].any():
        raise NonMonotoneInput("sign pattern of x*-y* crosses more than once")
    label = "i" if ell == n else ("ii" if ell == 0 else "iii")
    return ell, label


def classify_regime(fp: FixedPoint) -> tuple[int, str]:
    """Recompute (ell, regime label) from a fixed point's coordinates."""
    return _classify(fp.x_star, fp.y_star)


def trade_volume(fp: FixedPoint, params: ModelParams) -> float:
    """Stationary trade throughput gamma * sum_k min(x*_k, y*_k)."""
    return float(params.gamma * np.minimum(fp.x_star, fp.y_star).sum())


def _package(
    x: np.ndarray, y: np.ndarray, params: ModelParams, solver: str, iters: int
) -> FixedPoint:
    res = fixed_point_residual(x, y, params)
    bound = RESIDUAL_REL * max(1.0, params.lambda_b, params.lambda_s)
    if not res <= bound:
        raise ResidualTooLarge(
            f"{solver}: residual {res:.3e} exceeds the bound {bound:.3e}")
    ell, label = _classify(x, y)
    vol = float(params.gamma * np.minimum(x, y).sum())
    return FixedPoint(x, y, ell, label, vol, solver, res, iters)


def _pw_root(rhs: float, cap: float, p: ModelParams) -> float:
    """Root of (beta+alpha) u + gamma min(u, cap) = rhs for u >= 0."""
    u = rhs / (p.beta + p.alpha + p.gamma)
    if u <= cap:
        return u
    return (rhs - p.gamma * cap) / (p.beta + p.alpha)


def _sweep(y: list[float], p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """One implicit sweep: x forward from lambda_b against y, then y
    backward from lambda_s against the new x."""
    x = []
    gain = p.lambda_b
    for cap in y:
        x.append(_pw_root(gain, cap, p))
        gain = p.alpha * x[-1]
    yn = []
    gain = p.lambda_s
    for cap in reversed(x):
        yn.append(_pw_root(gain, cap, p))
        gain = p.alpha * yn[-1]
    return np.array(x), np.array(yn[::-1])


def _over_exp(d: float, log_w: float) -> float:
    """d / exp(log_w), saturating near 1e300 where only the sign matters."""
    if d == 0.0:
        return 0.0
    return math.copysign(math.exp(min(math.log(abs(d)) - log_w, 690.0)), d)


def _trial(p: ModelParams, ell: int) -> tuple[float, float, float]:
    """(X, Y, log_s) of the linear solve for crossing index ell: X = x_ell
    and Y = y_(ell+1), both divided by exp(log_s) > 0.

    The right-hand sides are divided by the larger of the two, and the
    numerators and the determinant by max(1 - kappa^2, rho^ell,
    rho^(N-ell)): at beta = 0 all three vanish together as N grows, and
    the ratio stays exact.
    """
    n, a, b, g = p.n_levels, p.alpha, p.beta, p.gamma
    q = b * (2.0 * a + b + g)
    kappa = g * a / (g * a + q)
    one_minus_kappa = q / (g * a + q)  # exactly 0 at beta = 0
    log_r = -math.log1p(b / a)
    log_rho = log_r - math.log1p((b + g) / a)
    log_a = math.log(p.lambda_b / a) + ell * log_r
    log_b = math.log(p.lambda_s / a) + (n - ell) * log_r
    log_s = max(log_a, log_b)
    rhs_a, rhs_b = math.exp(log_a - log_s), math.exp(log_b - log_s)
    log_u, log_v = ell * log_rho, (n - ell) * log_rho
    log_k = (math.log(one_minus_kappa * (1.0 + kappa)) if one_minus_kappa > 0
             else -math.inf)
    log_w = max(log_k, log_u, log_v)
    u, v = math.exp(log_u - log_w), math.exp(log_v - log_w)
    det = (math.exp(log_k - log_w)
           + kappa * kappa * (u + v - u * math.exp(log_v)))
    num_x = (_over_exp(rhs_a - rhs_b + one_minus_kappa * rhs_b, log_w)
             + kappa * u * rhs_b)
    num_y = (_over_exp(rhs_b - rhs_a + one_minus_kappa * rhs_a, log_w)
             + kappa * v * rhs_a)
    return num_x / det, num_y / det, log_s


def _pattern_solve(p: ModelParams) -> tuple[np.ndarray, np.ndarray, int]:
    """Fixed point from the crossing index, bisected over [0, N] with the
    pattern sign test; returns (x, y, trials)."""
    n = p.n_levels
    c = p.alpha / (p.alpha + p.beta + p.gamma)
    lo, hi = 0, n
    trials = 0
    while True:
        ell = (lo + hi) // 2
        big_x, big_y, log_s = _trial(p, ell)
        trials += 1
        if c * big_x > big_y and ell < hi:
            lo = ell + 1
        elif big_x < c * big_y and ell > lo:
            hi = ell - 1
        else:
            break
    # the trial's y below the crossing; above it min = x, so y does not cap x
    y = [math.inf] * n
    level_y = big_y * math.exp(log_s)
    for i in range(ell - 1, -1, -1):
        level_y *= c
        y[i] = level_y
    x, y = _sweep(y, p)
    return x, y, trials


def solve_shooting(params: ModelParams) -> FixedPoint:
    """Fixed point by bisection on the crossing index over [0, N], then one
    implicit sweep against the solved pattern.

    Raises ResidualTooLarge if the result misses its residual bound.
    """
    x, y, trials = _pattern_solve(params)
    return _package(x, y, params, "shooting", trials)


def solve_recursive(params: ModelParams) -> FixedPoint:
    """Fixed point by the same crossing-index solve as solve_shooting,
    labelled "recursive-implicit".

    The two names return the same bits today; the ODE route is the
    independent check. Raises ResidualTooLarge if the result misses its
    residual bound.
    """
    x, y, trials = _pattern_solve(params)
    return _package(x, y, params, "recursive-implicit", trials)
