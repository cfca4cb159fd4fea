"""Explicit Runge-Kutta integration with local error control and per-step
global-error instrumentation.

The package integrates initial-value problems with a lower/higher-order
method pair, controls the estimated local error of every step against an
absolute tolerance, propagates the higher-order solution, and records per
accepted step the measured local error, the global errors of both method
orders, and the accumulated-error condition that governs how long the
global error can stay within the tolerance.
"""

from . import controller, error_analysis, problems, rk_core
from .controller import *
from .error_analysis import *
from .problems import *
from .rk_core import *

__all__ = list(dict.fromkeys(
    name for module in (controller, error_analysis, problems, rk_core) for name in module.__all__
))
__version__ = "0.1.0"
