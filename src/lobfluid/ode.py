"""Fluid-limit ODE system: right-hand side, integration, comparison checks.

The scaled occupancies obey, for levels k = 1..N (1-based here, 0-based in
code):

    dx_1/dtau = lambda_b - (beta+alpha) x_1 - gamma min(x_1, y_1)
    dx_k/dtau = alpha x_{k-1} - (beta+alpha) x_k - gamma min(x_k, y_k)
    dy_k/dtau = alpha y_{k+1} - (beta+alpha) y_k - gamma min(x_k, y_k)
    dy_N/dtau = lambda_s - (beta+alpha) y_N - gamma min(x_N, y_N)

The right-hand side is piecewise linear, continuous, and globally Lipschitz,
and it is stiff whenever gamma is much larger than beta + alpha. It is
integrated with LSODA, which switches between Adams and BDF steps as the
stiffness changes. Internally the state is stored level-major,
(x_1, y_1, x_2, y_2, ...), so each component couples only to components at
most two places away: the Jacobian is banded with lower and upper bandwidth
2, and LSODA's finite-difference Jacobian costs five right-hand-side
evaluations and an O(N) factorisation whatever N is.

scipy is imported only by the functions that integrate, so the solvers and
the simulator run without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, NegativeState, StepUnderflow
from .model import FluidState, ModelParams

__all__ = ["OdeSolution", "ComparisonReport", "rhs", "integrate",
           "integrate_until_stationary", "check_comparison", "uniform_grid"]

DEFAULT_TOL = 1e-9


def uniform_grid(stop: float, step: float) -> np.ndarray:
    """Grid 0, step, 2*step, ... ending at stop; the last point is clamped
    so float round-up cannot push it past the integration span."""
    if step <= 0 or stop < 0:
        raise ValueError("need step > 0 and stop >= 0")
    m = int(np.floor(stop / step + 1e-9))
    grid = np.arange(m + 1) * step
    grid[-1] = min(grid[-1], stop)
    return grid


def rhs(state: FluidState, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (dx/dtau, dy/dtau) at a fluid state."""
    d = _flow(0.0, _pack(state.x, state.y), params).reshape(-1, 2)
    return d[:, 0], d[:, 1]


def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Level-major flat state (x_1, y_1, x_2, y_2, ...)."""
    return np.column_stack([x, y]).ravel()


def _flow(t: float, z: np.ndarray, p: ModelParams) -> np.ndarray:
    """The fluid equations on one or more stacked level-major states.

    z holds any number of states of 2N components each; every state is
    advanced independently, so one call evaluates a single trajectory or the
    stacked pair of a comparison check.
    """
    s = z.reshape(-1, p.n_levels, 2)  # (state, level, x/y)
    gain = np.empty_like(s)
    gain[:, 0, 0] = p.lambda_b
    gain[:, 1:, 0] = p.alpha * s[:, :-1, 0]
    gain[:, :-1, 1] = p.alpha * s[:, 1:, 1]
    gain[:, -1, 1] = p.lambda_s
    trade = p.gamma * s.min(axis=2, keepdims=True)
    return (gain - (p.beta + p.alpha) * s - trade).ravel()


def _solve(z0: np.ndarray, params: ModelParams, tau_max: float, tol: float,
           t_eval: np.ndarray | None):
    """LSODA over [0, tau_max] on packed states with a banded Jacobian."""
    from scipy.integrate import solve_ivp

    band = min(2, z0.size - 1)  # LSODA rejects a band wider than the system
    sol = solve_ivp(_flow, (0.0, tau_max), z0, args=(params,),
                    method="LSODA", lband=band, uband=band,
                    rtol=tol, atol=tol, t_eval=t_eval)
    if not sol.success:
        raise StepUnderflow(sol.message)
    return sol


@dataclass
class OdeSolution:
    """Numerical solution on a strictly increasing tau grid."""

    taus: np.ndarray
    x: np.ndarray  # shape (len(taus), N)
    y: np.ndarray
    rtol: float
    atol: float
    n_rhs_evals: int

    def state_at(self, i: int) -> FluidState:
        return FluidState(self.x[i], self.y[i])

    @property
    def final(self) -> FluidState:
        return FluidState(self.x[-1], self.y[-1])


def _clamp(states: np.ndarray, tol: float) -> np.ndarray:
    """Zero small negative round-off; anything below -100*tol is a real bug."""
    floor = -100.0 * tol
    low = states.min()
    if low < floor:
        raise NegativeState(f"solution component reached {low:.3e}")
    return np.maximum(states, 0.0)


def integrate(
    x0: np.ndarray,
    y0: np.ndarray,
    params: ModelParams,
    tau_max: float,
    tol: float = DEFAULT_TOL,
    grid: np.ndarray | None = None,
) -> OdeSolution:
    """Integrate the fluid system over [0, tau_max] with rtol = atol = tol.

    With `grid` given, states are reported on it (it must start at 0 and end
    at tau_max); otherwise the integrator's accepted steps form the grid.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    n = params.n_levels
    if x0.shape != (n,) or y0.shape != (n,):
        raise ValueError("initial data dimension does not match n_levels")
    if (x0 < 0).any() or (y0 < 0).any():
        raise ValueError("initial data must be nonnegative")
    if tau_max == 0.0:
        return OdeSolution(np.array([0.0]), x0[None, :].copy(),
                           y0[None, :].copy(), tol, tol, 0)
    sol = _solve(_pack(x0, y0), params, tau_max, tol, grid)
    states = _clamp(sol.y.T, tol).reshape(-1, n, 2)
    return OdeSolution(sol.t, states[:, :, 0], states[:, :, 1], tol, tol,
                       sol.nfev)


def integrate_until_stationary(
    params: ModelParams,
    x0: np.ndarray,
    y0: np.ndarray,
    rhs_tol: float = 1e-10,
    tau_block: float = 50.0,
    tau_max: float = 2000.0,
    tol: float = DEFAULT_TOL,
) -> tuple[FluidState, bool, float]:
    """Run the flow in blocks of tau_block until sup-norm of the right-hand
    side drops below rhs_tol or the tau budget is exhausted.

    Returns (state, converged, tau_used); converged=False means the budget
    ran out while the flow was still moving faster than rhs_tol. The
    integrator's BDF steps settle onto the fixed point rather than jitter
    around it, so from moderate parameters this flag is normally True well
    inside a budget of a few hundred tau units.
    """
    state = FluidState(np.asarray(x0, dtype=np.float64),
                       np.asarray(y0, dtype=np.float64))
    tau = 0.0
    while True:
        dx, dy = rhs(state, params)
        if max(np.abs(dx).max(), np.abs(dy).max()) < rhs_tol:
            return state, True, tau
        if tau >= tau_max:
            return state, False, tau
        sol = integrate(state.x, state.y, params, tau_block, tol=tol,
                        grid=np.array([0.0, tau_block]))
        state = sol.final
        tau += tau_block


@dataclass
class ComparisonReport:
    """Outcome of the two-trajectory ordering check on a shared grid."""

    taus: np.ndarray
    x_ok: np.ndarray  # per level: x_a <= x_b + tol at every grid point
    y_ok: np.ndarray  # per level: y_a >= y_b - tol at every grid point
    max_violation: float

    @property
    def ok(self) -> bool:
        return bool(self.x_ok.all() and self.y_ok.all())


def check_comparison(
    pair_a: FluidState,
    pair_b: FluidState,
    params: ModelParams,
    tau_max: float,
    tol: float = 1e-8,
    n_grid: int = 201,
) -> ComparisonReport:
    """Verify the comparison principle: componentwise x_a <= x_b, y_a >= y_b
    at tau = 0 must propagate to every later time.

    Raises HypothesisViolated when the initial ordering fails. Both systems
    are integrated jointly (one stacked solve, shared adaptive steps) at a
    tolerance two orders below tol, so apparent ordering violations reflect
    the dynamics rather than independent discretization noise.
    """
    if (pair_a.x > pair_b.x).any() or (pair_a.y < pair_b.y).any():
        raise HypothesisViolated(
            "need x_a <= x_b and y_a >= y_b componentwise at tau = 0"
        )
    grid = np.linspace(0.0, tau_max, n_grid)
    z0 = np.concatenate([_pack(pair_a.x, pair_a.y), _pack(pair_b.x, pair_b.y)])
    itol = min(tol / 100.0, DEFAULT_TOL)
    sol = _solve(z0, params, tau_max, itol, grid)
    states = sol.y.T.reshape(-1, 2, params.n_levels, 2)  # (tau, pair, level, x/y)
    a, b = states[:, 0], states[:, 1]
    x_gap = a[..., 0] - b[..., 0]          # should stay <= 0
    y_gap = b[..., 1] - a[..., 1]
    x_ok = (x_gap <= tol).all(axis=0)
    y_ok = (y_gap <= tol).all(axis=0)
    max_violation = float(max(x_gap.max(), y_gap.max(), 0.0))
    return ComparisonReport(grid, x_ok, y_ok, max_violation)
