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

Every integration is one call of LSODA's `odeint` entry point: LSODA steps
inside Fortran from 0 to the last output time and interpolates onto the
requested grid there, with `tcrit = tau_max` so that no step passes the
span. Only the right-hand side runs in Python, and it is written twice,
selected by the state's size. Up to SCALAR_FLOW_MAX components it computes
on Python floats, since numpy's per-call dispatch costs more than the
arithmetic on so few values; above that the numpy form is faster (on a
2-core Xeon the crossover lay between 64 and 72 components, and at N = 1000
the float form made integration four times slower), so both stay. The two
forms make the same operations in the same order, with the same tie rule in
the min, so they agree to the last bit; tests/test_ode.py compares their
bytes on both sides of the threshold.

LSODA is called through scipy's compiled ODEPACK module,
`scipy.integrate._odepack`, which `_lsoda` loads on its own from the file
`scipy/integrate/_odepack*.so`, running neither scipy's nor scipy.integrate's
package `__init__`. Importing the public `scipy.integrate.odeint` runs both:
scipy.integrate's loads some 580 modules (345 of them scipy's: special,
optimize, sparse.linalg, linalg, fft, ...) for about 40 MiB of memory and
half a second, and scipy's own, which a lookup of any scipy submodule runs,
loads 10 more (among them `scipy._lib._testutils`, which imports
subprocess and sysconfig) for about 0.7 MiB and 15 ms. The extension
itself needs only numpy and loads in milliseconds.
`_solve` passes it the arguments the public wrapper passes, so the results
are the same bits, and checks LSODA's return code itself: a negative
`istate` raises StepUnderflow with LSODA's message for it.
tests/test_ode.py pins `_solve` to the public `odeint` bit for bit, and
compares every argument the two pass to the extension, since some (such as
the Adams order cap mxordn) change no output bit on this system.

The extension is loaded only by the functions that integrate, so the
solvers and the simulator run without scipy, and no route adds a scipy
module to sys.modules.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, NegativeState, StepUnderflow
from .model import FluidState, ModelParams

__all__ = ["OdeSolution", "ComparisonReport", "rhs", "integrate",
           "integrate_until_stationary", "check_comparison", "uniform_grid"]

DEFAULT_TOL = 1e-9
STATIONARY_RHS_TOL = 1e-10  # sup-norm of the right-hand side at stationarity
STATIONARY_BLOCK = 50.0     # tau span integrated between stationarity tests
COMPARISON_GRID = 201       # grid points of a comparison check
SCALAR_FLOW_MAX = 64        # state components up to which _flow uses floats
MAX_STEPS = 10**9           # LSODA's step cap per output interval; never binds

ODEPACK = "scipy.integrate._odepack"
# LSODA's failure codes (istate < 0), with the messages scipy's odeint gives
LSODA_ERRORS = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}


def uniform_grid(stop: float, step: float) -> np.ndarray:
    """Grid 0, step, 2*step, ... ending at stop. A last positive multiple of
    step within 1e-9 * step of stop ends the grid, clamped so float round-up
    cannot push it past the integration span; one further short of stop, or
    0 for a positive stop, is followed by stop itself."""
    for name, v in (("stop", stop), ("step", step)):
        if not np.isfinite(v):
            raise ValueError(f"grid {name} must be finite, got {v}")
    if step <= 0 or stop < 0:
        raise ValueError("need step > 0 and stop >= 0")
    m = int(np.floor(stop / step + 1e-9))
    grid = np.arange(m + 1) * step
    grid[-1] = min(grid[-1], stop)
    # tau 0 alone never ends the grid of a positive stop, however short
    if stop - grid[-1] > (1e-9 * step if m else 0.0):
        grid = np.append(grid, stop)
    return grid


def rhs(state: FluidState, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (dx/dtau, dy/dtau) at a finite fluid state with
    params.n_levels levels; any other state raises ValueError."""
    _check_state(state, params)
    d = _flow(0.0, _pack(state.x, state.y), params).reshape(-1, 2)
    return d[:, 0], d[:, 1]


def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Level-major flat state (x_1, y_1, x_2, y_2, ...)."""
    return np.column_stack([x, y]).ravel()


def _flow(t: float, z: np.ndarray, p: ModelParams) -> np.ndarray:
    """The fluid equations on one or more stacked level-major states.

    z holds any number of states of 2N components each; every state is
    advanced independently, so one call evaluates a single trajectory or the
    stacked pair of a comparison check. Small z runs on Python floats
    (_flow_floats); both forms give the same bits.
    """
    if z.size <= SCALAR_FLOW_MAX:
        return _flow_floats(z, p)
    s = z.reshape(-1, p.n_levels, 2)  # (state, level, x/y)
    gain = np.empty_like(s)
    gain[:, 0, 0] = p.lambda_b
    gain[:, 1:, 0] = p.alpha * s[:, :-1, 0]
    gain[:, :-1, 1] = p.alpha * s[:, 1:, 1]
    gain[:, -1, 1] = p.lambda_s
    trade = p.gamma * s.min(axis=2, keepdims=True)
    return (gain - (p.beta + p.alpha) * s - trade).ravel()


def _flow_floats(z: np.ndarray, p: ModelParams) -> np.ndarray:
    """_flow's equations one level at a time on Python floats.

    The min takes y on a tie, as numpy's min over the (x, y) axis does, so
    a signed zero comes out the same.
    """
    v = z.tolist()
    a, bpa, g, lambda_s = p.alpha, p.beta + p.alpha, p.gamma, p.lambda_s
    width = 2 * p.n_levels
    out = []
    for start in range(0, len(v), width):
        end = start + width
        x_in = p.lambda_b
        for k in range(start, end, 2):
            x = v[k]
            y = v[k + 1]
            y_in = a * v[k + 3] if k + 2 < end else lambda_s
            trade = g * (x if x < y else y)
            out += (x_in - bpa * x - trade, y_in - bpa * y - trade)
            x_in = a * x
    return np.array(out)


@functools.cache
def _lsoda():
    """scipy's compiled ODEPACK module, without any scipy package __init__.

    The extension is the file scipy/integrate/_odepack*.so. A find_spec of
    a dotted name such as "scipy.integrate" imports the parent package
    first, so it would run scipy's __init__; a find_spec of the top-level
    "scipy" only searches sys.path (or returns the loaded package's spec)
    and runs no package code. The extension is loaded from the integrate
    directory under it and registered nowhere in sys.modules. If
    scipy.integrate was imported first, CPython hands back the extension
    it already loaded from that file.
    """
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(package.submodule_search_locations[0], "integrate"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(ODEPACK)
    if spec is None:
        raise ModuleNotFoundError(f"no {ODEPACK} extension in {finder.path}",
                                  name=ODEPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve(z0: np.ndarray, params: ModelParams, taus: np.ndarray,
           tau_max: float, tol: float) -> tuple[np.ndarray, int]:
    """LSODA on packed states with a banded Jacobian, reported at taus
    (which start at 0 and end at most at tau_max); returns the states, one
    row per output time, and the number of right-hand-side evaluations.

    The positional arguments are those scipy.integrate.odeint passes for
    `odeint(_flow, z0, taus, args=(params,), tfirst=True, ml=band, mu=band,
    rtol=tol, atol=tol, tcrit=[tau_max], mxstep=MAX_STEPS,
    full_output=True)`, on copies of z0 and taus, since LSODA integrates in
    the state array it is given. A negative istate, LSODA's only report of
    a failed integration, raises StepUnderflow.
    """
    band = min(2, z0.size - 1)  # LSODA rejects a band wider than the system
    states, info, istate = _lsoda().odeint(
        _flow, z0.copy(), taus.copy(), (params,),
        None, 0,              # Dfun, col_deriv: finite-difference Jacobian
        band, band, True,     # ml, mu, full_output
        tol, tol, [tau_max],  # rtol, atol, tcrit
        0.0, 0.0, 0.0, 0,     # h0, hmax, hmin, ixpr
        MAX_STEPS, 0, 12, 5,  # mxstep, mxhnil, mxordn, mxords
        1)                    # tfirst
    if istate < 0:
        raise StepUnderflow(LSODA_ERRORS[istate])
    return states, int(info["nfe"][-1])


@dataclass
class OdeSolution:
    """Numerical solution on a strictly increasing tau grid."""

    taus: np.ndarray
    x: np.ndarray  # shape (len(taus), N)
    y: np.ndarray
    n_rhs_evals: int

    @property
    def final(self) -> FluidState:
        return FluidState(self.x[-1], self.y[-1])


def _check_span(tau_max: float) -> None:
    """LSODA takes a NaN output time and steps on without end, and a
    negative one integrates backwards."""
    if not np.isfinite(tau_max):
        raise ValueError(f"tau_max must be finite, got {tau_max}")
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")


def _check_tol(tol: float) -> None:
    """LSODA returns a non-solution for a non-finite tolerance and rejects
    one <= 0 as illegal input."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _check_state(state: FluidState, params: ModelParams) -> None:
    """The equations index n_levels levels, and a NaN component would turn
    a comparison into a violation of NaN."""
    if state.x.size != params.n_levels:
        raise ValueError(f"state dimension {state.x.size} does not match "
                         f"n_levels = {params.n_levels}")
    if not (np.isfinite(state.x).all() and np.isfinite(state.y).all()):
        raise ValueError(f"state must be finite, got x = {state.x.tolist()}, "
                         f"y = {state.y.tolist()}")


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

    With `grid` given, states are reported on it: it must be strictly
    increasing, start at 0 and end at most at tau_max. Without it, the states
    at the two endpoints 0 and tau_max are reported, and at tau_max = 0 the
    initial state alone, as on the grid [0]. A tau_max that is not finite
    and >= 0 raises ValueError.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    n = params.n_levels
    if x0.shape != (n,) or y0.shape != (n,):
        raise ValueError("initial data dimension does not match n_levels")
    for name, v in (("x0", x0), ("y0", y0)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v.tolist()}")
    if (x0 < 0).any() or (y0 < 0).any():
        raise ValueError("initial data must be nonnegative")
    _check_tol(tol)
    _check_span(tau_max)
    taus = np.array(grid if grid is not None else
                    [0.0, tau_max] if tau_max else [0.0], dtype=np.float64)
    if (taus.size == 0 or taus[0] != 0.0 or taus[-1] > tau_max
            or not (np.diff(taus) > 0).all()):
        raise ValueError("grid must increase strictly from 0 to at most tau_max")
    if taus.size == 1:  # LSODA reports no evaluation count for one time
        return OdeSolution(taus, x0[None, :].copy(), y0[None, :].copy(), 0)
    states, nfev = _solve(_pack(x0, y0), params, taus, tau_max, tol)
    states = _clamp(states, tol).reshape(-1, n, 2)
    return OdeSolution(taus, states[:, :, 0], states[:, :, 1], nfev)


def integrate_until_stationary(
    params: ModelParams,
    x0: np.ndarray,
    y0: np.ndarray,
    tau_max: float = 2000.0,
) -> tuple[FluidState, bool, float]:
    """Run the flow in STATIONARY_BLOCK spans until the right-hand side's
    sup-norm drops below STATIONARY_RHS_TOL or the tau budget is exhausted.

    Returns (state, converged, tau_used); converged=False means the budget
    ran out while the flow was still moving faster than that. The
    integrator's BDF steps settle onto the fixed point rather than jitter
    around it, so from moderate parameters this flag is normally True well
    inside a budget of a few hundred tau units. A budget that is not finite
    and >= 0 raises ValueError: the loop would never end on a flow that
    does not settle.
    """
    _check_span(tau_max)
    state = FluidState(np.asarray(x0, dtype=np.float64),
                       np.asarray(y0, dtype=np.float64))
    tau = 0.0
    while True:
        dx, dy = rhs(state, params)
        if max(np.abs(dx).max(), np.abs(dy).max()) < STATIONARY_RHS_TOL:
            return state, True, tau
        if tau >= tau_max:
            return state, False, tau
        state = integrate(state.x, state.y, params, STATIONARY_BLOCK).final
        tau += STATIONARY_BLOCK


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
) -> ComparisonReport:
    """Verify the comparison principle: componentwise x_a <= x_b, y_a >= y_b
    at tau = 0 must propagate to every later time.

    Raises ValueError for a tau_max that is not finite and >= 0, a tol that
    is not finite and > 0, or states that are not finite or whose level
    count is not params.n_levels, and HypothesisViolated when the initial
    ordering fails. Both systems are integrated jointly (one stacked solve,
    shared adaptive steps) at a tolerance two orders below tol, so apparent
    ordering violations reflect the dynamics rather than independent
    discretization noise.
    """
    _check_span(tau_max)
    _check_tol(tol)
    _check_state(pair_a, params)
    _check_state(pair_b, params)
    if (pair_a.x > pair_b.x).any() or (pair_a.y < pair_b.y).any():
        raise HypothesisViolated(
            "need x_a <= x_b and y_a >= y_b componentwise at tau = 0"
        )
    grid = np.linspace(0.0, tau_max, COMPARISON_GRID)
    z0 = np.concatenate([_pack(pair_a.x, pair_a.y), _pack(pair_b.x, pair_b.y)])
    itol = min(tol / 100.0, DEFAULT_TOL)
    states, _ = _solve(z0, params, grid, tau_max, itol)
    states = states.reshape(-1, 2, params.n_levels, 2)  # (tau, pair, level, x/y)
    a, b = states[:, 0], states[:, 1]
    x_gap = a[..., 0] - b[..., 0]          # should stay <= 0
    y_gap = b[..., 1] - a[..., 1]
    x_ok = (x_gap <= tol).all(axis=0)
    y_ok = (y_gap <= tol).all(axis=0)
    max_violation = float(max(x_gap.max(), y_gap.max(), 0.0))
    return ComparisonReport(grid, x_ok, y_ok, max_violation)
