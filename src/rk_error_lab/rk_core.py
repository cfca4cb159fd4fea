"""Explicit Runge-Kutta methods as Butcher tableaus, plus single-step evaluation.

A method is described by its stage matrix ``a``, weights ``b``, abscissae
``c``, stage count ``m`` and classical order ``z``.  One step of the method
applied to ``y' = f(x, y)`` is

    k_p = f(x + c_p h, y + h * sum_{q < p} a_pq k_q)       p = 1..m
    y_next = y + h * sum_p b_p k_p

Only explicit methods are supported: ``a`` must be strictly lower
triangular, so the stages can be evaluated in index order.  States are flat
float64 vectors; scalar problems use length-1 vectors.

Each stage argument ``y + h * (a_p1 k_1 + a_p2 k_2 + ...)`` is summed in
index order over the nonzero coefficients of its row only
(``ButcherTableau.stage_rows``), so it does not depend on the BLAS in use.
Only the weighted sum ``b @ k`` goes through BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "ButcherTableau",
    "MethodPair",
    "RHSFunction",
    "ExplicitnessViolation",
    "ConsistencyViolation",
    "DimensionMismatch",
    "NonFiniteStage",
    "UnknownPair",
    "validate_tableau",
    "increment_function",
    "rk_step",
    "kutta3",
    "classic_rk4",
    "builtin_pair",
    "pair_names",
]

RHSFunction = Callable[[float, np.ndarray], np.ndarray]

#: tolerance on the weight sum and the row-sum convention
CONSISTENCY_TOL = 1e-12


class ExplicitnessViolation(ValueError):
    """Stage matrix has a nonzero entry on or above the diagonal (implicit method)."""


class ConsistencyViolation(ValueError):
    """Weights do not sum to one, or abscissae do not match the stage row sums."""


class DimensionMismatch(ValueError):
    """Coefficient array shapes disagree with the declared stage count."""


class NonFiniteStage(ArithmeticError):
    """A stage derivative evaluated to NaN or infinity."""


class UnknownPair(KeyError):
    """Requested method pair is not in the registry."""


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients of one explicit Runge-Kutta method.

    Attributes
    ----------
    name : str
        Label used in registries and traces.
    m : int
        Number of stages.
    a : ndarray, shape (m, m)
        Stage matrix; strictly lower triangular for explicit methods.
    b : ndarray, shape (m,)
        Quadrature weights; must sum to 1.
    c : ndarray, shape (m,)
        Abscissae; by convention each equals the corresponding row sum of ``a``.
    z : int
        Classical order of the method.
    """

    name: str
    m: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    z: int

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    @cached_property
    def stage_rows(self) -> tuple[tuple[float, tuple[tuple[int, float], ...]], ...]:
        """``(c_p, ((q, a_pq), ...))`` for each stage ``p``, as Python floats, listing
        only the nonzero ``a_pq`` in index order.  Derived on first use, so
        ``validate_tableau`` still refuses a malformed tableau; the stage loop
        and ``MethodPair.shared`` both read it."""
        return tuple(
            (float(self.c[p]),
             tuple((q, float(self.a[p, q])) for q in range(p) if self.a[p, q] != 0.0))
            for p in range(self.m)
        )


@dataclass(frozen=True, eq=False)
class MethodPair:
    """A lower-order and a higher-order tableau used together for local extrapolation.

    The order gap ``r = higher.z - lower.z`` must be at least 1.  ``shared``
    is the number of leading stages the two methods evaluate identically
    (equal ``stage_rows``: same abscissa and same nonzero stage-matrix
    entries); it is derived from the tableaus, and a pair attempt evaluates
    those stages once.
    """

    lower: ButcherTableau
    higher: ButcherTableau
    shared: int = field(init=False)

    def __post_init__(self):
        if self.higher.z <= self.lower.z:
            raise ValueError(
                f"higher-order method must outrank the lower one: "
                f"got z={self.lower.z} and z={self.higher.z}"
            )
        n = 0
        for lo, hi in zip(self.lower.stage_rows, self.higher.stage_rows):
            if lo != hi:
                break
            n += 1
        object.__setattr__(self, "shared", n)

    @property
    def r(self) -> int:
        """Order gap between the two methods."""
        return self.higher.z - self.lower.z


def validate_tableau(t: ButcherTableau) -> ButcherTableau:
    """Check the tableau invariants and return the tableau unchanged.

    Raises
    ------
    DimensionMismatch
        If the array shapes disagree with ``m``, or ``m``/``z`` are < 1.
    ExplicitnessViolation
        If any entry on or above the diagonal of ``a`` is nonzero.
    ConsistencyViolation
        If the weights do not sum to 1 within ``CONSISTENCY_TOL``, or an
        abscissa differs from its stage row sum by more than that.
    """
    if t.m < 1 or t.z < 1:
        raise DimensionMismatch(f"{t.name}: stage count and order must be >= 1")
    if t.a.shape != (t.m, t.m):
        raise DimensionMismatch(f"{t.name}: a has shape {t.a.shape}, expected {(t.m, t.m)}")
    if t.b.shape != (t.m,):
        raise DimensionMismatch(f"{t.name}: b has shape {t.b.shape}, expected {(t.m,)}")
    if t.c.shape != (t.m,):
        raise DimensionMismatch(f"{t.name}: c has shape {t.c.shape}, expected {(t.m,)}")

    # indices p <= q (1-based) are the diagonal and above in 0-based terms
    upper = np.triu(t.a)
    if np.any(upper != 0.0):
        p, q = np.argwhere(upper != 0.0)[0]
        raise ExplicitnessViolation(
            f"{t.name}: a[{p + 1}][{q + 1}] = {t.a[p, q]} makes the method implicit"
        )

    weight_sum = float(np.sum(t.b))
    if abs(weight_sum - 1.0) > CONSISTENCY_TOL:
        raise ConsistencyViolation(f"{t.name}: weights sum to {weight_sum!r}, not 1")

    row_sums = t.a.sum(axis=1)
    bad = np.abs(row_sums - t.c) > CONSISTENCY_TOL
    if np.any(bad):
        p = int(np.argwhere(bad)[0][0])
        raise ConsistencyViolation(
            f"{t.name}: c[{p + 1}] = {t.c[p]} but row sum is {row_sums[p]}"
        )
    return t


def increment_function(
    t: ButcherTableau, f: RHSFunction, x: float, y: np.ndarray, h: float
) -> np.ndarray:
    """Weighted stage sum ``sum_p b_p k_p`` for one step of size ``h`` from ``(x, y)``.

    Stages are evaluated strictly in ascending index order.  The result has
    the shape of ``y``; the step itself is ``y + h * increment``.

    Raises
    ------
    NonFiniteStage
        If any stage derivative contains NaN or infinity.
    """
    return t.b @ _stages(t, f, x, np.asarray(y, dtype=float), h)


def _stages(
    t: ButcherTableau, f: RHSFunction, x: float, y: np.ndarray, h: float, known=()
) -> np.ndarray:
    """Stage derivatives of ``t`` in index order, taking the rows of ``known`` as the
    leading stages without evaluating ``f`` (they must be shared: ``MethodPair.shared``).

    The stage arguments come from ``t.stage_rows`` (a stage whose row has no
    nonzero entry receives ``y`` itself).  Finiteness is checked once, over
    the evaluated rows, after the loop: the stages after a non-finite one are
    evaluated too, and the error names the first non-finite stage."""
    if h <= 0.0:
        raise ValueError(f"stepsize must be positive, got {h}")
    n = len(known)
    k = np.empty((t.m,) + y.shape, dtype=float)
    if n:
        k[:n] = known
    rows = t.stage_rows
    for p in range(n, t.m):
        c_p, row = rows[p]
        s = None
        for q, a in row:
            term = a * k[q]
            s = term if s is None else s + term
        k[p] = f(x + c_p * h, y if s is None else y + h * s)
    finite = np.isfinite(k[n:])
    if np.count_nonzero(finite) != finite.size:
        p = n + int(np.argmin(finite.reshape(t.m - n, -1).all(axis=1)))
        raise NonFiniteStage(f"{t.name}: stage {p + 1} is not finite at x={x}, h={h}")
    return k


def _pair_increments(
    pair: MethodPair, f: RHSFunction, x: float, y: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Increments ``(F_lower, F_higher)`` of both methods of ``pair`` from ``(x, y)``.

    The ``pair.shared`` leading stages are evaluated once, by the lower
    method, and handed to the higher one.  Each increment is bit-identical to
    ``increment_function`` of its method.
    """
    k_lower = _stages(pair.lower, f, x, y, h)
    k_higher = _stages(pair.higher, f, x, y, h, k_lower[:pair.shared])
    return pair.lower.b @ k_lower, pair.higher.b @ k_higher


def rk_step(
    t: ButcherTableau, f: RHSFunction, x: float, y: np.ndarray, h: float
) -> np.ndarray:
    """Advance ``y`` by one step of size ``h``: ``y + h * increment_function(...)``."""
    y = np.asarray(y, dtype=float)
    return y + h * increment_function(t, f, x, y, h)


def kutta3() -> ButcherTableau:
    """Kutta's three-stage third-order method."""
    return validate_tableau(
        ButcherTableau(
            name="rk3",
            m=3,
            a=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
            b=[1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            c=[0.0, 0.5, 1.0],
            z=3,
        )
    )


def classic_rk4() -> ButcherTableau:
    """The classical four-stage fourth-order method."""
    return validate_tableau(
        ButcherTableau(
            name="rk4",
            m=4,
            a=[
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
            c=[0.0, 0.5, 0.5, 1.0],
            z=4,
        )
    )


_PAIRS: dict[str, Callable[[], MethodPair]] = {
    "rk3_rk4": lambda: MethodPair(lower=kutta3(), higher=classic_rk4()),
}


def builtin_pair(name: str) -> MethodPair:
    """Look up a method pair by registry name (currently ``rk3_rk4``)."""
    try:
        factory = _PAIRS[name]
    except KeyError:
        raise UnknownPair(f"unknown method pair {name!r}; known: {sorted(_PAIRS)}") from None
    return factory()


def pair_names() -> list[str]:
    return sorted(_PAIRS)
