"""Initial-value problems with exact solutions, and the reference oracle built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .rk_core import RHSFunction

__all__ = [
    "IVProblem",
    "UnknownProblem",
    "builtin",
    "problem_names",
    "reference_solution",
    "GROWTH_RATE",
]

#: rate of the slow exponential benchmark: the solution grows from 1 to
#: exactly 1000 over [0, 100], so absolute error control stays meaningful.
GROWTH_RATE = math.log(1000.0) / 100.0


class UnknownProblem(KeyError):
    """Requested problem is not in the registry."""


@dataclass(frozen=True)
class IVProblem:
    """One initial-value problem ``y' = f(x, y)``, ``y(x0) = y0`` on ``[x0, x_end]``.

    ``exact``, when given, maps an abscissa to the true solution vector and
    must agree with ``y0`` at ``x0``.  Right-hand sides must be pure
    functions of ``(x, y)``.  ``x0`` and ``x_end`` must be finite.
    """

    name: str
    f: RHSFunction
    x0: float
    y0: np.ndarray
    x_end: float
    exact: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "y0", np.atleast_1d(np.asarray(self.y0, dtype=float)))
        if not (math.isfinite(self.x0) and math.isfinite(self.x_end)):
            raise ValueError(f"{self.name}: x0={self.x0} and x_end={self.x_end} must be finite")
        if not self.x_end > self.x0:
            raise ValueError(f"{self.name}: x_end={self.x_end} must exceed x0={self.x0}")
        if self.exact is not None:
            y_start = np.atleast_1d(np.asarray(self.exact(self.x0), dtype=float))
            err = float(np.max(np.abs(y_start - self.y0)))
            if err > 1e-14 * (1.0 + float(np.max(np.abs(self.y0)))):
                raise ValueError(f"{self.name}: exact({self.x0}) disagrees with y0 by {err}")

    def with_x_end(self, x_end: float) -> "IVProblem":
        return replace(self, x_end=x_end)


def _paper_exponential() -> IVProblem:
    return IVProblem(
        name="paper_exponential",
        f=lambda x, y: GROWTH_RATE * y,
        x0=0.0,
        y0=[1.0],
        x_end=100.0,
        exact=lambda x: np.array([math.exp(GROWTH_RATE * x)]),
    )


def _decay() -> IVProblem:
    return IVProblem(
        name="decay",
        f=lambda x, y: -y,
        x0=0.0,
        y0=[1.0],
        x_end=10.0,
        exact=lambda x: np.array([math.exp(-x)]),
    )


def _riccati_simple() -> IVProblem:
    return IVProblem(
        name="riccati_simple",
        f=lambda x, y: -y * y,
        x0=0.0,
        y0=[1.0],
        x_end=5.0,
        exact=lambda x: np.array([1.0 / (1.0 + x)]),
    )


_PROBLEMS: dict[str, Callable[[], IVProblem]] = {
    "paper_exponential": _paper_exponential,
    "decay": _decay,
    "riccati_simple": _riccati_simple,
}


def builtin(name: str) -> IVProblem:
    """Look up a registered problem by name."""
    try:
        factory = _PROBLEMS[name]
    except KeyError:
        raise UnknownProblem(f"unknown problem {name!r}; known: {sorted(_PROBLEMS)}") from None
    return factory()


def problem_names() -> list[str]:
    return sorted(_PROBLEMS)


def reference_solution(p: IVProblem, x: float) -> np.ndarray:
    """True solution at ``x`` from the problem's registered exact function.

    Raises ``ValueError`` if the problem has no exact solution or ``x`` lies
    outside its interval.
    """
    if p.exact is None:
        raise ValueError(f"{p.name}: no exact solution to take a reference from")
    span = p.x_end - p.x0
    if not (p.x0 - 1e-12 * span <= x <= p.x_end + 1e-12 * span):
        raise ValueError(f"x={x} outside [{p.x0}, {p.x_end}]")
    return np.atleast_1d(np.asarray(p.exact(x), dtype=float))
