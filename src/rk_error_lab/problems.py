"""Initial-value problems with exact solutions, and the reference oracle built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .rk_core import _FLOAT, RHSFunction, _number, _readonly, _real_numbers, _Refusal, inf_norm

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

    ``y0`` is copied into a read-only float array of at least one dimension
    through the one conversion, ``rk_core._real_numbers``.  ``exact``, when
    given, maps an abscissa to the true solution, as ``reference_solution``
    checks it, and must agree with ``y0`` at ``x0`` to within ``1e-14``
    relative to ``y0``.  The build does not call ``f``: each value of ``f`` is
    checked where a lane stores it, under the ``rk_core`` lane and read-only
    rules.  What the build refuses is in the README's failure table.

    ``rowwise`` declares that ``f`` also takes many states at once:
    ``f(X, Y)`` with ``X`` of shape ``(n,)`` and ``Y`` of shape ``(n, d)``
    returns shape ``(n, d)``, and its row ``i`` equals ``f(X[i], Y[i])`` bit
    for bit.  The oracle then calls ``f`` once per stage on all its rows, and
    otherwise once per row; the controller always calls ``f`` on one state.
    The promise is not checked.  ``scalar`` declares only that ``f`` also takes
    and returns a Python float for a one-component state; it moves no bit of a
    run.
    """

    name: str
    f: RHSFunction
    x0: float
    y0: np.ndarray
    x_end: float
    exact: Optional[Callable[[float], np.ndarray]] = None
    rowwise: bool = False
    scalar: bool = False

    def __post_init__(self):
        object.__setattr__(self, "y0", _readonly(f"{self.name}: y0", self.y0, ndmin=1))
        for key in ("x0", "x_end"):
            _number(f"{self.name}: {key}", getattr(self, key), "finite", math.isfinite)
        if not self.x_end > self.x0:
            raise ValueError(f"{self.name}: x_end={self.x_end} must exceed x0={self.x0}")
        if self.y0.ndim != 1 or self.y0.size == 0:
            raise ValueError(f"{self.name}: y0 must be a nonempty flat vector, "
                             f"got shape {self.y0.shape}")
        if not np.isfinite(self.y0).all():
            raise ValueError(f"{self.name}: y0={self.y0} must be finite")
        if self.scalar and self.y0.size != 1:
            raise ValueError(f"{self.name}: scalar is set, but y0 has shape {self.y0.shape}, "
                             "not one component")
        if self.exact is not None:
            y_exact = reference_solution(self, self.x0)
            err = inf_norm(y_exact - self.y0)
            if err > 1e-14 * (1.0 + inf_norm(self.y0)):
                raise ValueError(f"{self.name}: exact solution at x0={self.x0} is {y_exact}, "
                                 f"which disagrees with y0 by {err}")

    def with_x_end(self, x_end: float) -> "IVProblem":
        return replace(self, x_end=x_end)


def reference_solution(p: IVProblem, x: float) -> np.ndarray:
    """True solution at ``x`` from the problem's registered exact function, as a
    float array of ``y0``'s shape: the one-x case of ``_exact_states``.

    Raises ``ValueError`` naming the problem if it has no exact solution,
    ``ValueError`` if ``x`` is not a real number, and otherwise what
    ``_exact_states`` raises: ``ValueError`` naming the problem and ``x`` if
    ``x`` lies outside its interval or the value is refused, and
    ``OverflowError`` naming the problem if the exact function overflows.
    """
    if p.exact is None:
        raise ValueError(f"{p.name}: no exact solution to take a reference from")
    _number("x", x, "a real number", lambda v: True)
    return _exact_states(p, [x])[0]


def _exact_states(p: IVProblem, xs: list) -> np.ndarray:
    """The exact state at each abscissa of ``xs``, looked up in order, as the
    rows of a new float array: the one check of a value of ``exact``, at ``x0``
    and at every lookup.

    A float64 value of ``y0``'s shape is stored as it is; any other goes
    through the one conversion, ``rk_core._real_numbers``.  Finiteness is
    tested once, over all rows after the loop, and over the rows before a
    lookup that fails, so the earliest failure is raised: a ``ValueError``
    naming the problem and ``x`` if ``x`` lies outside the interval or the
    value is refused or not finite, and an ``OverflowError`` naming the problem
    if the exact function overflows.  Any other exception of ``exact``
    propagates as it is.
    """
    exact, shape, span = p.exact, p.y0.shape, p.x_end - p.x0
    lo, hi = p.x0 - 1e-12 * span, p.x_end + 1e-12 * span
    y = np.empty((len(xs), *shape))
    for k, x in enumerate(xs):
        try:
            if not lo <= x <= hi:
                raise ValueError(f"{p.name}: x={x} outside [{p.x0}, {p.x_end}]")
            try:
                v = exact(x)
            except OverflowError:
                raise OverflowError(f"{p.name}: exact solution overflows at x={x}") from None
            if getattr(v, "dtype", None) is not _FLOAT or v.shape != shape:
                v = _exact_value(p, x, v)
        except Exception:
            _finite(p, xs, y[:k])  # a value before it that is not finite fails first
            raise
        y[k] = v
    _finite(p, xs, y)
    return y


def _exact_value(p: IVProblem, x, v) -> np.ndarray:
    """The slow path of a lookup: ``v``, a value of ``exact`` at ``x`` that is not a
    float64 array of ``y0``'s shape, as one by ``rk_core._real_numbers``.  Raises
    ``ValueError`` naming the problem and ``x`` if it is refused or of another shape."""
    try:
        v = np.atleast_1d(_real_numbers(v))
    except _Refusal as r:
        raise ValueError(f"{p.name}: exact solution at x={x} is {r.what}") from None
    if v.shape != p.y0.shape:
        raise ValueError(f"{p.name}: exact solution at x={x} has shape {v.shape}, "
                         f"y0 has shape {p.y0.shape}")
    return v


def _finite(p: IVProblem, xs: list, rows: np.ndarray) -> None:
    """Raise ``ValueError`` naming the ``x`` of the first of ``rows``, the first
    lookups of ``xs``, that is not finite."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        x = xs[int(np.argmin(finite))]
        raise ValueError(f"{p.name}: exact solution at x={x} is not finite") from None


_PROBLEMS: dict[str, IVProblem] = {p.name: p for p in (
    IVProblem(name="paper_exponential", f=lambda x, y: GROWTH_RATE * y, x0=0.0, y0=[1.0],
              x_end=100.0, exact=lambda x: np.array([math.exp(GROWTH_RATE * x)]),
              rowwise=True, scalar=True),
    IVProblem(name="decay", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=10.0,
              exact=lambda x: np.array([math.exp(-x)]), rowwise=True, scalar=True),
    IVProblem(name="riccati_simple", f=lambda x, y: -y * y, x0=0.0, y0=[1.0], x_end=5.0,
              exact=lambda x: np.array([1.0 / (1.0 + x)]), rowwise=True, scalar=True),
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
