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
O(log N) trials of O(1) work each, on constants computed once per solve
(_trials). The profile is then filled in O(N) by one implicit sweep against
the trial's y: x forward from lambda_b, y backward from lambda_s, each
scalar equation solved exactly with its min term implicit, which keeps
every entry nonnegative. Each direction is one loop of _chain, the one
statement of that piecewise-linear root; the broken-line map's _advance
takes a single step of it.

solve_shooting and solve_recursive currently run this same solve, bisecting
ell over [0, N], and return the same bits under their own labels; the ODE
route (ode.integrate_until_stationary) is the independent check. Every
returned point carries its residual; a point with a value outside the
float range raises SolverError, and a residual above
1e-8 * max(1, lambda_b, lambda_s) raises ResidualTooLarge, instead of
returning a non-solution.

Division of work, behind both names (_solve): the C solve (`solve` of the
extension `_cext`, loaded by _c_solve at the first solve of a process)
writes the point into two float64 arrays and returns (trials, residual),
with _pattern_solve's operations in its order and fixed_point_residual's
bits, non-finite points included, so a solve runs no Python per trial or
level; its load-time check compares it with the twin byte for byte. The
twin, _pattern_solve and then fixed_point_residual, runs at every N in a
process where the C solve did not load. The residual bound (_package)
runs in Python on either route. Then the C classify (`classify` of the
extension, loaded by _c_classify at the first solve or classification)
returns the crossing index, which of _classify's refusals applies, and
the trade volume, with _classify's comparisons in its order and numpy's
pairwise sum, so the same bits and no Python object per level; its one
twin, _classify and then _volume, is its load-time oracle and its
fallback. The regime labels and the refusals' messages (_REFUSALS) stay
in Python on either route (_classified).

The forward broken-line map (step_map, map_jacobian_check) is the geometric
picture behind uniqueness: the first equation confines (x*_1, y*_1) to a
broken line, the middle equations push it forward level by level with
slopes that only steepen, and the last equation cuts the image once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantViolation,
    NonMonotoneInput,
    OnKink,
    ResidualTooLarge,
    SolverError,
)
from .model import ModelParams, rates
from .ode import _defect

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

    w' is explicit; v' is one step of _chain from gain alpha v against the
    cap w', the root of (beta+alpha) u + gamma min(u, w') = alpha v. The
    root exists for any v >= 0 because the left side vanishes at 0 and is
    unbounded.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    w2 = ((a + b) * w + g * min(v, w)) / a
    v2, = _chain(a * v, (w2,), p)
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
    largest component of the fluid right-hand side at that point, the
    defect integrate_until_stationary tests (ode._defect); NaN, without
    a warning, where a value of the point is infinite."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return _defect(x, y, params)


# _classify's refusals, the messages of its NonMonotoneInput, by the
# index that the C classify returns (0 where the point interleaves)
_REFUSALS = (None, "x* or y* holds a value that is not finite",
             "x* is not strictly decreasing", "y* is not strictly increasing",
             "sign pattern of x*-y* crosses more than once")


def _label(ell: int, n: int) -> str:
    """The regime label of crossing index ell at n levels."""
    return "i" if ell == n else ("ii" if ell == 0 else "iii")


def _classify(x: np.ndarray, y: np.ndarray) -> tuple[int, str]:
    """Crossing index and regime label; validates the interleaving."""
    n = x.shape[0]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonMonotoneInput(_REFUSALS[1])
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), 1.0)
    slack = 1e-9 * scale
    if n > 1:
        if np.count_nonzero(x[1:] >= x[:-1] + slack):
            raise NonMonotoneInput(_REFUSALS[2])
        if np.count_nonzero(y[1:] <= y[:-1] - slack):
            raise NonMonotoneInput(_REFUSALS[3])
    above = x > y
    ell = int(np.count_nonzero(above))
    if np.count_nonzero(above[:ell]) != ell:  # one lies at ell or beyond
        raise NonMonotoneInput(_REFUSALS[4])
    return ell, _label(ell, n)


def _volume(gamma: float, x: np.ndarray, y: np.ndarray) -> float:
    """The trade volume gamma * sum_k min(x_k, y_k), in numpy's sum."""
    return float(gamma * np.minimum(x, y).sum())


@functools.cache
def _c_classify():
    """The crossing index, the interleaving checks and the trade volume in
    C (`_cext.load("classify")`), or None where it cannot run; loaded at
    the first solve or classification of the process."""
    from . import _cext
    return _cext.load("classify")


def _classified(gamma: float, x: np.ndarray,
                y: np.ndarray) -> tuple[int, str, float]:
    """(ell, regime label, trade volume) of the point (x, y): the C
    classify's where it loaded, else its one Python twin's, _classify and
    then _volume. Raises NonMonotoneInput, with _classify's message, where
    the point does not interleave or holds a value that is not finite."""
    classify = _c_classify()
    if classify is None:
        ell, label = _classify(x, y)
        return ell, label, _volume(gamma, x, y)
    ell, refusal, volume = classify(gamma, x, y)
    if refusal:
        raise NonMonotoneInput(_REFUSALS[refusal])
    return ell, _label(ell, x.shape[0]), volume


def classify_regime(fp: FixedPoint) -> tuple[int, str]:
    """Recompute (ell, regime label) from a fixed point's coordinates,
    taken as float64, which the C classify reads."""
    ell, label, _ = _classified(1.0, np.asarray(fp.x_star, float),
                                np.asarray(fp.y_star, float))
    return ell, label


def trade_volume(fp: FixedPoint, params: ModelParams) -> float:
    """Stationary trade throughput gamma * sum_k min(x*_k, y*_k)."""
    return _volume(params.gamma, fp.x_star, fp.y_star)


def _package(params: ModelParams, solver: str) -> FixedPoint:
    """The solve's point with its residual, crossing index, regime and
    trade volume; raises SolverError where a value of the point is not
    finite, and ResidualTooLarge above the bound."""
    x, y, iters, res = _solve(params)
    bound = RESIDUAL_REL * max(1.0, params.lambda_b, params.lambda_s)
    if not res <= bound:
        # a value of the point that is not finite makes the residual NaN
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise SolverError(f"{solver}: x* or y* is outside the float "
                              "range")
        raise ResidualTooLarge(
            f"{solver}: residual {res:.3e} exceeds the bound {bound:.3e}")
    ell, label, vol = _classified(params.gamma, x, y)
    return FixedPoint(x, y, ell, label, vol, solver, res, iters)


def _chain(gain: float, caps: Iterable[float], p: ModelParams) -> list[float]:
    """u_k for each cap_k in order: the root u >= 0 of
    (beta+alpha) u + gamma min(u, cap_k) = gain, where gain is the one
    given for the first cap and alpha u_(k-1) after it.

    The root is gain / (beta+alpha+gamma) where that is at most the cap,
    and (gain - gamma cap) / (beta+alpha) otherwise.
    """
    a, g = p.alpha, p.gamma
    bpa = p.beta + a
    bpag = bpa + g
    out = []
    for cap in caps:
        u = gain / bpag
        if not u <= cap:
            u = (gain - g * cap) / bpa
        out.append(u)
        gain = a * u
    return out


def _over_exp(d: float, log_w: float) -> float:
    """d / exp(log_w), saturating near 1e300 where only the sign matters."""
    if d == 0.0:
        return 0.0
    return math.copysign(math.exp(min(math.log(abs(d)) - log_w, 690.0)), d)


def _kappa(a: float, b: float, g: float) -> tuple[float, float]:
    """(kappa, 1 - kappa) with kappa = gamma alpha / (gamma alpha + q) and
    q = beta (2 alpha + beta + gamma); 1 - kappa = q / (gamma alpha + q) is
    exactly 0 at beta = 0. Three cases:

    - where gamma alpha + q is finite and above 0, the ratios as written;
    - where it overflows (beta above about 1e154 at unit rates, or gamma
      alpha near 1.8e308, or each term finite and their sum not) or
      rounds to 0 (gamma alpha below 5e-324 at beta = 0), the rates are
      first divided by m, the largest of them, which moves neither ratio;
    - where gamma alpha / m^2 and q / m^2 both round to 0 (alpha 1.8e308,
      beta 0, gamma 5e-324), m is alpha or gamma, and both terms are
      divided by m once: gamma alpha / m is min(alpha, gamma) and q / m is
      beta (2 alpha + beta + gamma) / m.
    """
    ga, q = g * a, b * (2.0 * a + b + g)
    if not ga + q < math.inf or ga + q == 0.0:
        m, least, beta = max(a, b, g), min(a, g), b
        a, b, g = a / m, b / m, g / m
        ga, q = g * a, b * (2.0 * a + b + g)
        if ga + q == 0.0:
            ga, q = least, beta * (2.0 * a + b + g)
    return ga / (ga + q), q / (ga + q)


def _log_ratio(rate: float, a: float) -> float:
    """log(rate / a); where the quotient underflows to 0 (rate 1e-300 at
    alpha 1e300) or overflows to inf (rate 1e305 at alpha 1e-10),
    log(rate) - log(a)."""
    ratio = rate / a
    return (math.log(ratio) if 0.0 < ratio < math.inf
            else math.log(rate) - math.log(a))


def _trials(p: ModelParams) -> Callable[[int], tuple[float, float, float]]:
    """The linear solve for a trial crossing index, as a function of ell
    that returns (X, Y, log_s): X = x_ell and Y = y_(ell+1), both divided
    by exp(log_s) > 0. The constants that depend on the parameters alone
    are computed once, here.

    The right-hand sides are divided by the larger of the two, and the
    numerators and the determinant by max(1 - kappa^2, rho^ell,
    rho^(N-ell)): at beta = 0 all three vanish together as N grows, and
    the ratio stays exact.
    """
    n, a, b, g = p.n_levels, p.alpha, p.beta, p.gamma
    kappa, one_minus_kappa = _kappa(a, b, g)
    log_r = -math.log1p(b / a)
    log_rho = log_r - math.log1p((b + g) / a)
    log_k = (math.log(one_minus_kappa * (1.0 + kappa)) if one_minus_kappa > 0
             else -math.inf)
    log_lb, log_ls = _log_ratio(p.lambda_b, a), _log_ratio(p.lambda_s, a)

    def trial(ell: int) -> tuple[float, float, float]:
        log_a = log_lb + ell * log_r
        log_b = log_ls + (n - ell) * log_r
        log_s = max(log_a, log_b)
        rhs_a, rhs_b = math.exp(log_a - log_s), math.exp(log_b - log_s)
        log_u, log_v = ell * log_rho, (n - ell) * log_rho
        log_w = max(log_k, log_u, log_v)
        u, v = math.exp(log_u - log_w), math.exp(log_v - log_w)
        det = (math.exp(log_k - log_w)
               + kappa * kappa * (u + v - u * math.exp(log_v)))
        num_x = (_over_exp(rhs_a - rhs_b + one_minus_kappa * rhs_b, log_w)
                 + kappa * u * rhs_b)
        num_y = (_over_exp(rhs_b - rhs_a + one_minus_kappa * rhs_a, log_w)
                 + kappa * v * rhs_a)
        return num_x / det, num_y / det, log_s
    return trial


def _pattern_solve(p: ModelParams) -> tuple[np.ndarray, np.ndarray, int]:
    """Fixed point from the crossing index, bisected over [0, N] with the
    pattern sign test, then one implicit sweep against the trial's y: x
    forward from lambda_b, y backward from lambda_s against the new x.
    Returns (x, y, trials)."""
    n = p.n_levels
    c = p.alpha / (p.alpha + p.beta + p.gamma)
    trial = _trials(p)
    lo, hi = 0, n
    trials = 0
    while True:
        ell = (lo + hi) // 2
        big_x, big_y, log_s = trial(ell)
        trials += 1
        if c * big_x > big_y and ell < hi:
            lo = ell + 1
        elif big_x < c * big_y and ell > lo:
            hi = ell - 1
        else:
            break
    # the trial's y below the crossing; above it min = x, so y does not cap x
    y = [math.inf] * n
    try:
        level_y = big_y * math.exp(log_s)
    except OverflowError:  # y_(ell+1) is past the float range: in logs
        log_c = math.log(c) if c else -math.inf
        log_y = (math.log(abs(big_y)) if big_y else -math.inf) + log_s
        for i in range(ell - 1, -1, -1):
            log_y += log_c
            try:
                level_y = math.exp(log_y)
            except OverflowError:
                level_y = math.inf
            y[i] = math.copysign(level_y, big_y)
    else:
        for i in range(ell - 1, -1, -1):
            level_y *= c
            y[i] = level_y
    x = _chain(p.lambda_b, y, p)
    y = _chain(p.lambda_s, reversed(x), p)
    y.reverse()
    return np.fromiter(x, float, n), np.fromiter(y, float, n), trials


@functools.cache
def _c_solve():
    """The crossing-index solve and its residual in C
    (`_cext.load("solve")`), or None where it cannot run; loaded, and
    built where it is not cached, at the first solve of the process."""
    from . import _cext
    return _cext.load("solve")


def _solve(p: ModelParams) -> tuple[np.ndarray, np.ndarray, int, float]:
    """(x, y, trials, residual): the C solve's where it loaded, at every N
    and for every admitted input, else its one Python twin's,
    _pattern_solve and then fixed_point_residual."""
    solve = _c_solve()
    if solve is None:
        x, y, trials = _pattern_solve(p)
        return x, y, trials, fixed_point_residual(x, y, p)
    x, y = np.empty(p.n_levels), np.empty(p.n_levels)
    return x, y, *solve(rates(p), x, y)


def solve_shooting(params: ModelParams) -> FixedPoint:
    """Fixed point by bisection on the crossing index over [0, N], then one
    implicit sweep against the solved pattern.

    Raises ResidualTooLarge if the result misses its residual bound.
    """
    return _package(params, "shooting")


def solve_recursive(params: ModelParams) -> FixedPoint:
    """Fixed point by the same crossing-index solve as solve_shooting,
    labelled "recursive-implicit".

    The two names return the same bits today; the ODE route is the
    independent check. Raises ResidualTooLarge if the result misses its
    residual bound.
    """
    return _package(params, "recursive-implicit")
