"""Mean-field Hawkes toolkit: particle simulation, limit equations, fluctuation
processes and moderate-deviation rate functionals."""

__version__ = "0.1.0"

from .model import Kernel, RateFn, kernel_norms, validate_assumptions
from .meanfield import TimeGrid, MeanPath, solve_mean, limit_law
from .engine import (
    EventLog,
    CouplingLog,
    simulate_hawkes,
    simulate_coupled,
    simulate_perturbed,
)
from .fluct import (
    FieldPath,
    centered_field,
    simulate_limit_mean,
    limit_mean_variance,
    limit_field_variance,
    simulate_limit_field,
)
from .deviations import (
    TestFunction,
    MeanDeviationPath,
    rate_mean,
    inner,
    upsilon,
    solve_linearized,
    rate_field,
)

__all__ = [
    "__version__",
    "Kernel", "RateFn", "kernel_norms", "validate_assumptions",
    "TimeGrid", "MeanPath", "solve_mean", "limit_law",
    "EventLog", "CouplingLog", "simulate_hawkes", "simulate_coupled",
    "simulate_perturbed",
    "FieldPath", "centered_field", "simulate_limit_mean",
    "limit_mean_variance", "limit_field_variance", "simulate_limit_field",
    "TestFunction", "MeanDeviationPath", "rate_mean", "inner", "upsilon",
    "solve_linearized", "rate_field",
]
