"""Exception hierarchy for the lobfluid package."""


class LobFluidError(Exception):
    """Base class for all package errors."""


class ParamError(LobFluidError, ValueError):
    """Invalid model parameters."""


class NonPositiveRate(ParamError):
    """lambda_b, lambda_s, alpha, or gamma is not strictly positive."""


class NegativeBeta(ParamError):
    """beta is negative (beta = 0 is allowed)."""


class BadN(ParamError):
    """n_levels is below 1."""


class BadPriceLabels(ParamError):
    """price_labels has the wrong length or is not strictly increasing."""


class DisabledEvent(LobFluidError):
    """Event applied to a state where its rate is zero."""


class BudgetExceeded(LobFluidError):
    """Simulation hit its event-count safety cap."""


class StepUnderflow(LobFluidError):
    """ODE integrator failed; the right-hand side is globally Lipschitz,
    so this signals a bug rather than stiffness."""


class NegativeState(LobFluidError):
    """ODE solution drifted below zero beyond the clamping tolerance."""


class HypothesisViolated(LobFluidError):
    """Initial ordering required by the comparison principle does not hold."""


class NoConvergence(LobFluidError):
    """Iterative solver hit its iteration cap with change above tolerance.
    The fixed-point solvers are direct and no longer raise it; it stays
    in the hierarchy for callers that import it."""


class ResidualTooLarge(LobFluidError):
    """Solver result misses its stated residual bound: not a solution."""


class InvariantViolation(LobFluidError):
    """A property the theory guarantees failed in floating point (a bug,
    not bad input)."""


class OnKink(LobFluidError):
    """Jacobian check requested at or too close to a v = w tie."""


class NonMonotoneInput(LobFluidError):
    """Fixed point violates the strict interleaving ordering (upstream bug)."""


class ConfigError(LobFluidError):
    """Malformed or incomplete run configuration."""
