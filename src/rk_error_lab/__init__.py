"""Explicit Runge-Kutta integration with local error control and per-step
global-error instrumentation.

The package integrates initial-value problems with a lower/higher-order
method pair, controls the estimated local error of every step against an
absolute tolerance, propagates the higher-order solution, and records per
accepted step the measured local error, the global errors of both method
orders, and the accumulated-error condition that governs how long the
global error can stay within the tolerance.
"""

from .controller import (
    ControllerConfig,
    MaxRejectsExceeded,
    MaxStepsExceeded,
    NonFiniteState,
    StepsizeOutOfRange,
    StepsizeUnderflow,
    Trace,
    TraceSummary,
    attempt_step,
    integrate,
    propose_stepsize,
)
from .error_analysis import (
    BetaTracker,
    ConditionCheck,
    DegenerateFit,
    StepRecord,
    StepUnderflow,
    alpha_propagation_term,
    condition_check,
    empirical_order,
    estimate_beta,
    find_crossing,
    inf_norm,
    local_error_exact,
    mean_beta_higher,
    sigma_bound,
)
from .problems import (
    GROWTH_RATE,
    IVProblem,
    UnknownProblem,
    builtin,
    problem_names,
    reference_solution,
)
from .rk_core import (
    ButcherTableau,
    ConsistencyViolation,
    DimensionMismatch,
    ExplicitnessViolation,
    MethodPair,
    NonFiniteStage,
    UnknownPair,
    builtin_pair,
    classic_rk4,
    increment_function,
    kutta3,
    pair_names,
    rk_step,
    validate_tableau,
)

__version__ = "0.1.0"
