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
span. The equations are stated once as the numpy form _flow, which every
evaluation outside LSODA runs: rhs, and the stationarity defect _defect
that integrate_until_stationary tests and fixed_point.fixed_point_residual
returns. Inside LSODA, _solve hands the extension the flow that _c_flow
returns, with the arguments (out, rates). Division of work:

- the C flow (`flow` of the extension `_cext`, loaded by _c_flow at the
  first _solve of a process): a CPython extension function, built with
  cc, that writes every stacked state's equations into a preallocated
  float64 array and returns it, so an evaluation runs no Python code and
  makes no Python float. One function serves every state shape; its
  load-time check, the only one _c_flow runs, compares it with _flow byte
  for byte.
- where the C flow cannot run (no compiler, no Python.h, a failed build or
  check), _flow itself, at every size: the one Python form of the
  equations takes the C flow's arguments and is both its oracle and its
  fallback, so _solve calls whichever _c_flow returns alike.

On a 2-core Xeon, inside LSODA, in us per evaluation with LSODA's own
work included (medians of 21 runs, the forms alternating, of one
integration from a random state over tau 40):

    components     C   numpy
         8        1.2   18.6
        40        1.9   20.4
        64        2.4   21.4
       104        3.1   22.9
       120        3.4   22.6
       240        5.7   26.7

so the C flow takes from a fifteenth of the numpy form's time at 8
components to a fifth at 240. The two forms make the same operations in
the same order, with the same tie rule in the min, so they agree to the
last bit; tests/test_ode.py compares their bytes at every size.

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
`istate` raises StepUnderflow with LSODA's message for it, and so does a
non-finite state, which LSODA returns without a failure code for a span
so short that its first step underflows.
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
from .model import FluidState, ModelParams, _pair, rates

__all__ = ["OdeSolution", "ComparisonReport", "rhs", "integrate",
           "integrate_until_stationary", "check_comparison", "uniform_grid"]

DEFAULT_TOL = 1e-9
STATIONARY_RHS_TOL = 1e-10  # sup-norm of the right-hand side at stationarity
STATIONARY_BLOCK = 50.0     # tau span integrated between stationarity tests
COMPARISON_GRID = 201       # grid points of a comparison check
MAX_STEPS = 10**9           # LSODA's step cap per output interval; never binds
GRID_MAX = 10**7            # points of a uniform grid, checked before allocation

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


def uniform_grid(stop: float, step: float,
                 names: tuple[str, str] = ("grid stop", "grid step")
                 ) -> np.ndarray:
    """Grid 0, step, 2*step, ... ending at stop. A last positive multiple of
    step within 1e-9 * step of stop ends the grid, clamped so float round-up
    cannot push it past the integration span; one further short of stop, or
    0 for a positive stop, is followed by stop itself. A stop that is not
    finite and >= 0, or a step that is not finite and > 0, raises
    ValueError naming the caller's argument, names = (stop's, step's), and
    so does a step that would make more than GRID_MAX points, before any
    is allocated: a simulation preallocates its samples, and a grid of
    7 TiB failed inside numpy."""
    _check_span(stop, names[0])
    _check_positive(step, names[1])
    ratio = stop / step + 1e-9  # inf for a step far below stop
    m = int(np.floor(ratio)) if ratio < GRID_MAX else GRID_MAX
    last = min(m * step, stop)
    # tau 0 alone never ends the grid of a positive stop, however short
    then_stop = stop - last > (1e-9 * step if m else 0.0)
    if m + 1 + then_stop > GRID_MAX:
        raise ValueError(f"{names[1]} = {step} would make more than "
                         f"{GRID_MAX} grid points up to {names[0]} = {stop}")
    grid = np.arange(m + 1) * step
    grid[-1] = last
    if then_stop:
        grid = np.append(grid, stop)
    return grid


def rhs(state: FluidState, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (dx/dtau, dy/dtau) at a finite fluid state with
    params.n_levels levels; any other state raises ValueError."""
    x, y = _pair(state.x, state.y, params.n_levels, ("state.x", "state.y"))
    z = _pack(x, y)
    d = _flow(0.0, z, np.empty_like(z), rates(params)).reshape(-1, 2)
    return d[:, 0], d[:, 1]


def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Level-major flat state (x_1, y_1, x_2, y_2, ...)."""
    return np.column_stack([x, y]).ravel()


def _flow(t: float, z: np.ndarray, out: np.ndarray,
          r: np.ndarray) -> np.ndarray:
    """The fluid equations on one or more stacked level-major states, on
    arrays of shape (state, level, x/y), written into out, which it
    returns: the C flow's arguments, with r = `rates(params)`, the array
    (N, lambda_b, lambda_s, alpha, beta, gamma), and out a contiguous
    float64 array of z's size.

    z holds any number of states of 2N components each; every state is
    advanced independently, so one call evaluates a single trajectory or the
    stacked pair of a comparison check. The min is numpy's elementwise
    minimum of the x and y columns, which takes y on a tie (so a signed
    zero comes out as y's) and is NaN where either is; an axis reduction
    over the (x, y) pairs gives the same values at some 25 times the cost
    at N = 1000.
    """
    n, lambda_b, lambda_s, alpha, beta, gamma = r.tolist()
    s = z.reshape(-1, int(n), 2)
    gain = np.empty_like(s)
    gain[:, 0, 0] = lambda_b
    gain[:, 1:, 0] = alpha * s[:, :-1, 0]
    gain[:, :-1, 1] = alpha * s[:, 1:, 1]
    gain[:, -1, 1] = lambda_s
    trade = gamma * np.minimum(s[:, :, 0:1], s[:, :, 1:2])
    np.subtract(gain - (beta + alpha) * s, trade, out=out.reshape(s.shape))
    return out


def _defect(x: np.ndarray, y: np.ndarray, params: ModelParams) -> float:
    """Sup-norm of the right-hand side at (x, y): how far the point is from
    stationary."""
    z = _pack(x, y)
    return float(np.abs(_flow(0.0, z, np.empty_like(z), rates(params))).max())


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


@functools.cache
def _c_flow():
    """The right-hand side that LSODA's extension calls directly: the C
    flow (`_cext.load("flow", _flow)`), or _flow where it cannot run;
    loaded, and built where it is not cached, at the first _solve of the
    process."""
    from . import _cext
    return _cext.load("flow", _flow)


def _solve(z0: np.ndarray, params: ModelParams, taus: np.ndarray,
           tau_max: float, tol: float) -> tuple[np.ndarray, int]:
    """LSODA on packed states with a banded Jacobian, reported at taus
    (which start at 0 and end at most at tau_max); returns the states, one
    row per output time, and the number of right-hand-side evaluations.

    The positional arguments are those scipy.integrate.odeint passes for
    `odeint(f, z0, taus, args=args, tfirst=True, ml=band, mu=band,
    rtol=tol, atol=tol, tcrit=[tau_max], mxstep=MAX_STEPS,
    full_output=True)`, on copies of z0 and taus, since LSODA integrates in
    the state array it is given. f is the flow `_c_flow` returns, with args
    (out, rates): the array it writes and returns, and the rates. A
    negative istate, LSODA's report of a failed integration, raises
    StepUnderflow, and so does a non-finite state.
    """
    band = min(2, z0.size - 1)  # LSODA rejects a band wider than the system
    states, info, istate = _lsoda().odeint(
        _c_flow(), z0.copy(), taus.copy(),
        (np.empty(z0.size), rates(params)),  # args: out, rates
        None, 0,              # Dfun, col_deriv: finite-difference Jacobian
        band, band, True,     # ml, mu, full_output
        tol, tol, [tau_max],  # rtol, atol, tcrit
        0.0, 0.0, 0.0, 0,     # h0, hmax, hmin, ixpr
        MAX_STEPS, 0, 12, 5,  # mxstep, mxhnil, mxordn, mxords
        1)                    # tfirst
    if istate < 0:
        raise StepUnderflow(LSODA_ERRORS[istate])
    if not np.isfinite(states).all():
        raise StepUnderflow(f"LSODA returned a non-finite state over a span "
                            f"of {tau_max}")
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


def _check_span(tau_max: float, name: str = "tau_max") -> None:
    """LSODA takes a NaN output time and steps on without end, and a
    negative one integrates backwards. The error names the argument."""
    if not np.isfinite(tau_max):
        raise ValueError(f"{name} must be finite, got {tau_max}")
    if tau_max < 0:
        raise ValueError(f"{name} must be >= 0, got {tau_max}")


def _check_positive(value: float, name: str) -> None:
    """The one check of a value that must be finite and > 0: a tolerance
    (LSODA returns a non-solution for a non-finite one and rejects one <= 0
    as illegal input), a grid or sample step, a study horizon, a burn-in
    and a sample gap. The error names the argument."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


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
    and >= 0 raises ValueError, and so do an x0 or y0 that is not
    params.n_levels finite, nonnegative values.
    """
    n = params.n_levels
    x0, y0 = _pair(x0, y0, n)
    _check_positive(tol, "tol")
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
    """Run the flow in STATIONARY_BLOCK spans, the last one cut short at
    the budget, until the right-hand side's sup-norm drops below
    STATIONARY_RHS_TOL or the tau budget is exhausted.

    Returns (state, converged, tau_used), with tau_used <= tau_max;
    converged=False means the budget ran out while the flow was still
    moving faster than that. The integrator's BDF steps settle onto the
    fixed point rather than jitter around it, so from moderate parameters
    this flag is normally True well inside a budget of a few hundred tau
    units. A budget that is not finite and >= 0 raises ValueError: the loop
    would never end on a flow that does not settle. So do an x0 or y0
    that is not params.n_levels finite, nonnegative values; each block
    starts from integrate's output, which is.
    """
    _check_span(tau_max)
    state = FluidState(*_pair(x0, y0, params.n_levels))
    tau = 0.0
    while True:
        if _defect(state.x, state.y, params) < STATIONARY_RHS_TOL:
            return state, True, tau
        if tau >= tau_max:
            return state, False, tau
        end = min(tau + STATIONARY_BLOCK, tau_max)
        state = integrate(state.x, state.y, params, end - tau).final
        tau = end


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
    is not finite and > 0, or states that are not params.n_levels finite,
    nonnegative values per side, and HypothesisViolated when the initial
    ordering fails. Both systems are integrated jointly (one stacked solve,
    shared adaptive steps) at a tolerance two orders below tol, so apparent
    ordering violations reflect the dynamics rather than independent
    discretization noise. The solved states are clamped as integrate's
    are: round-off below 0 becomes 0, and a component below -100 times
    the integration tolerance raises NegativeState.
    """
    _check_span(tau_max)
    _check_positive(tol, "tol")
    for name, pair in (("pair_a", pair_a), ("pair_b", pair_b)):
        _pair(pair.x, pair.y, params.n_levels, (f"{name}.x", f"{name}.y"))
    if (pair_a.x > pair_b.x).any() or (pair_a.y < pair_b.y).any():
        raise HypothesisViolated(
            "need x_a <= x_b and y_a >= y_b componentwise at tau = 0"
        )
    grid = np.linspace(0.0, tau_max, COMPARISON_GRID)
    z0 = np.concatenate([_pack(pair_a.x, pair_a.y), _pack(pair_b.x, pair_b.y)])
    itol = min(tol / 100.0, DEFAULT_TOL)
    states, _ = _solve(z0, params, grid, tau_max, itol)
    # (tau, pair, level, x/y)
    states = _clamp(states, itol).reshape(-1, 2, params.n_levels, 2)
    a, b = states[:, 0], states[:, 1]
    x_gap = a[..., 0] - b[..., 0]          # should stay <= 0
    y_gap = b[..., 1] - a[..., 1]
    x_ok = (x_gap <= tol).all(axis=0)
    y_ok = (y_gap <= tol).all(axis=0)
    max_violation = float(max(x_gap.max(), y_gap.max(), 0.0))
    return ComparisonReport(grid, x_ok, y_ok, max_violation)
