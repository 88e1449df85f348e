"""lobfluid: a limit-order-book Markov model, its fluid-limit ODE system,
and fixed-point solvers for the stationary book profile.

The package's public names are each module's `__all__` and the error
classes of `errors`, re-exported here without being restated."""

__version__ = "0.5.0"

from .errors import *  # noqa: F403 (errors defines only its classes)
from .experiments import *  # noqa: F403
from .fixed_point import *  # noqa: F403
from .model import *  # noqa: F403
from .ode import *  # noqa: F403
from .simulate import *  # noqa: F403
