"""lobfluid: a limit-order-book Markov model, its fluid-limit ODE system,
and fixed-point solvers for the stationary book profile."""

__version__ = "0.5.0"

from .errors import (
    BadN,
    BadPriceLabels,
    BudgetExceeded,
    ConfigError,
    DisabledEvent,
    HypothesisViolated,
    InvariantViolation,
    LobFluidError,
    NegativeBeta,
    NegativeState,
    NoConvergence,
    NonMonotoneInput,
    NonPositiveRate,
    OnKink,
    ParamError,
    ResidualTooLarge,
    StepUnderflow,
)
from .experiments import (
    ConvergenceReport,
    SweepReport,
    equilibrium_concentration,
    fluid_convergence,
    overproduction_sweep,
)
from .fixed_point import (
    BrokenLinePoint,
    FixedPoint,
    SlopeCheck,
    classify_regime,
    fixed_point_residual,
    map_jacobian_check,
    solve_recursive,
    solve_shooting,
    step_map,
    trade_volume,
)
from .model import (
    DiscreteState,
    Event,
    EventKind,
    FluidState,
    ModelParams,
    ScalingLevel,
    apply_event,
    enumerate_events,
    scale_state,
    validate_params,
)
from .ode import (
    ComparisonReport,
    OdeSolution,
    check_comparison,
    integrate,
    integrate_until_stationary,
    rhs,
    uniform_grid,
)
from .simulate import (
    EventCounters,
    Trajectory,
    empirical_equilibrium,
    initial_discrete_state,
    simulate,
    step,
)
