"""Initial-value problems with exact solutions, and the reference oracle built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .rk_core import RHSFunction, _readonly, inf_norm

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


@dataclass(frozen=True, eq=False)
class IVProblem:
    """One initial-value problem ``y' = f(x, y)``, ``y(x0) = y0`` on ``[x0, x_end]``.

    ``exact``, when given, maps an abscissa to the true solution vector and
    must agree with ``y0`` at ``x0``, in shape and to within ``1e-14``
    relative to ``y0``.  Right-hand sides must be pure
    functions of ``(x, y)``.  ``x0``, ``x_end`` and ``y0`` must be finite, and ``y0``
    a scalar or a nonempty flat vector.  ``y0`` is copied into a read-only
    float array of at least one dimension when the problem is built.

    ``rowwise`` declares that ``f`` also takes many states at once:
    ``f(X, Y)`` with ``X`` of shape ``(n,)`` and ``Y`` of shape ``(n, d)``
    returns shape ``(n, d)``, and its row ``i`` equals ``f(X[i], Y[i])`` bit
    for bit.  The oracle then calls ``f`` once per stage of its exact-state pair
    over all accepted steps; without the flag, or if those rows raise, once per
    step and stage.  Wrong rows that raise nothing go undetected (``n == d``
    lets a one-state ``f`` return some).  The controller calls ``f`` on one state.
    """

    name: str
    f: RHSFunction
    x0: float
    y0: np.ndarray
    x_end: float
    exact: Optional[Callable[[float], np.ndarray]] = None
    rowwise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "y0", _readonly(self.y0, ndmin=1))
        if not (math.isfinite(self.x0) and math.isfinite(self.x_end)):
            raise ValueError(f"{self.name}: x0={self.x0} and x_end={self.x_end} must be finite")
        if not self.x_end > self.x0:
            raise ValueError(f"{self.name}: x_end={self.x_end} must exceed x0={self.x0}")
        if self.y0.ndim != 1 or self.y0.size == 0:
            raise ValueError(f"{self.name}: y0 must be a nonempty flat vector, "
                             f"got shape {self.y0.shape}")
        if not np.isfinite(self.y0).all():
            raise ValueError(f"{self.name}: y0={self.y0} must be finite")
        if self.exact is not None:
            y_exact = reference_solution(self, self.x0)
            if y_exact.shape != self.y0.shape:
                raise ValueError(f"{self.name}: exact solution at x0={self.x0} has shape "
                                 f"{y_exact.shape}, y0 has shape {self.y0.shape}")
            err = inf_norm(y_exact - self.y0)
            if not err <= 1e-14 * (1.0 + inf_norm(self.y0)):  # a NaN exact(x0) fails too
                raise ValueError(f"{self.name}: exact solution at x0={self.x0} is {y_exact}, "
                                 f"which disagrees with y0 by {err}")

    def with_x_end(self, x_end: float) -> "IVProblem":
        return replace(self, x_end=x_end)


def reference_solution(p: IVProblem, x: float) -> np.ndarray:
    """True solution at ``x`` from the problem's registered exact function.

    Raises ``ValueError`` if the problem has no exact solution or ``x`` lies
    outside its interval, and ``OverflowError`` naming the problem if the
    exact function overflows at ``x`` (``math.exp`` raises rather than
    returning inf).
    """
    if p.exact is None:
        raise ValueError(f"{p.name}: no exact solution to take a reference from")
    span = p.x_end - p.x0
    if not (p.x0 - 1e-12 * span <= x <= p.x_end + 1e-12 * span):
        raise ValueError(f"x={x} outside [{p.x0}, {p.x_end}]")
    try:
        return np.atleast_1d(np.asarray(p.exact(x), dtype=float))
    except OverflowError:
        raise OverflowError(f"{p.name}: exact solution overflows at x={x}") from None


_PROBLEMS: dict[str, IVProblem] = {p.name: p for p in (
    IVProblem(name="paper_exponential", f=lambda x, y: GROWTH_RATE * y, x0=0.0, y0=[1.0],
              x_end=100.0, exact=lambda x: np.array([math.exp(GROWTH_RATE * x)]), rowwise=True),
    IVProblem(name="decay", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=10.0,
              exact=lambda x: np.array([math.exp(-x)]), rowwise=True),
    IVProblem(name="riccati_simple", f=lambda x, y: -y * y, x0=0.0, y0=[1.0], x_end=5.0,
              exact=lambda x: np.array([1.0 / (1.0 + x)]), rowwise=True),
)}


def builtin(name: str) -> IVProblem:
    """Look up a registered problem by name.

    Problems are read-only, so every lookup returns the same shared value.
    """
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise UnknownProblem(f"unknown problem {name!r}; known: {sorted(_PROBLEMS)}") from None


def problem_names() -> list[str]:
    return sorted(_PROBLEMS)
