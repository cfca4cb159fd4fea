"""Local and global error measurement for Runge-Kutta steps.

The quantities recorded per accepted step follow the standard one-step error
accounting.  With ``F`` the increment function of the lower-order method and
``y(.)`` the true solution:

* local error of a step launched from the true value:
  ``eps = [y(x) + h F(x, y(x))] - y(x + h)``, which scales like
  ``beta * h**(z+1)`` for a method of order ``z``;
* error-coefficient estimate from a lower/higher pair started at the same
  input: ``beta ~= (w_lower - w_higher) / h**(z+1)``;
* global error ``delta = w - y(x)``, which obeys the exact recursion
  ``delta_next = eps_next + alpha * delta`` where the propagation factor
  ``alpha`` contracts the input error through one lower-order step.

The propagation term ``alpha * delta`` is never formed from a derivative of
``F``; it is computed through the identity
``delta + h * [F(x, y + delta) - F(x, y)]``, which is exact and keeps the
recursion closed to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .problems import IVProblem, reference_solution
from .rk_core import (
    ButcherTableau,
    MethodPair,
    RHSFunction,
    _pair_increments,
    increment_function,
    rk_step,
)

__all__ = [
    "StepRecord",
    "BetaTracker",
    "ConditionCheck",
    "StepUnderflow",
    "StepsizeOutOfRange",
    "DegenerateFit",
    "local_error_exact",
    "estimate_beta",
    "alpha_propagation_term",
    "mean_beta_higher",
    "condition_check",
    "sigma_bound",
    "find_crossing",
    "empirical_order",
    "inf_norm",
]


class StepUnderflow(ArithmeticError):
    """A power of the stepsize underflowed to zero; the error coefficient is undefined."""


class StepsizeOutOfRange(ValueError):
    """A stepsize lies outside the range a run can use: an initial stepsize
    outside the resolved ``[h_min, h_max]``, or one so large that a power of
    it overflows a float."""


class DegenerateFit(RuntimeError):
    """Sampled errors sit at roundoff level; an order fit would be meaningless."""


def inf_norm(v) -> float:
    """Max-norm used for every scalar magnitude derived from a state vector."""
    return float(np.abs(np.asarray(v, dtype=float)).max())


@dataclass(frozen=True, eq=False)
class StepRecord:
    """Diagnostics for one accepted step from ``x - h`` to ``x``.

    Oracle-based fields (``eps_lower``, ``delta_*``, ``alpha_term``,
    ``cond_rhs``, ``cond_holds``) are ``None`` when the problem carries no
    exact solution.  ``beta_lower`` and ``cond_lhs`` come from the
    controller's own pair estimate and are always present.
    """

    i: int                     # 1-based accepted-step index
    x: float                   # abscissa after the step
    h: float                   # stepsize used
    rejects: int               # rejected trials before this acceptance
    w_lower: np.ndarray        # lower-order result, launched from the propagated state
    w_higher: np.ndarray       # higher-order result (the propagated solution)
    eps_lower: Optional[np.ndarray]     # lower-order local error from exact input
    beta_lower: np.ndarray              # pair estimate (w_lower - w_higher) / h**(z+1)
    delta_lower: Optional[np.ndarray]   # w_lower - y(x)
    delta_higher: Optional[np.ndarray]  # w_higher - y(x)
    alpha_term: Optional[np.ndarray]    # propagated-error term of the recursion
    cond_lhs: float                     # |beta_lower| * h**(z+1)
    cond_rhs: Optional[float]           # i * mean|beta_higher| * h**(z+2)
    cond_holds: Optional[bool]          # cond_lhs > cond_rhs (with zero-rhs convention)
    bound: float                        # (sigma**(z+1) + sigma**(z+r+1)) * delta
    clamped: bool                       # stepsize shortened to land on x_end


@dataclass(frozen=True, eq=False)
class BetaTracker:
    """Running mean of the higher-order method's error-coefficient magnitudes."""

    count: int = 0
    mean_abs: float = 0.0

    def pushed(self, sample: np.ndarray) -> "BetaTracker":
        """Return a new tracker with one more sample folded into the mean."""
        n = self.count + 1
        mean = self.mean_abs + (inf_norm(sample) - self.mean_abs) / n
        return BetaTracker(count=n, mean_abs=mean)


class ConditionCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    m_ratio: float


def local_error_exact(t: ButcherTableau, p: IVProblem, x: float, h: float) -> np.ndarray:
    """Local error of one step of ``t`` launched from the true solution at ``x``.

    Returns ``[y(x) + h F(x, y(x))] - y(x + h)`` with ``y`` taken from
    ``reference_solution``.
    """
    y_x = reference_solution(p, x)
    y_xh = reference_solution(p, x + h)
    return _local_error(y_x, increment_function(t, p.f, x, y_x, h), y_xh, h)


def _local_error(y_x: np.ndarray, inc: np.ndarray, y_xh: np.ndarray, h: float) -> np.ndarray:
    """``[y(x) + h F] - y(x + h)`` for the increment ``F`` already evaluated at ``y(x)``."""
    return (y_x + h * inc) - y_xh


def estimate_beta(w_lower, w_higher, h: float, z: int) -> np.ndarray:
    """Error-coefficient estimate ``(w_lower - w_higher) / h**(z+1)``, componentwise.

    Both inputs must come from steps of the same size ``h`` started at the
    same state.  Callers that need a scalar take the max norm.  Raises
    ``StepUnderflow`` if ``h**(z+1)`` underflows to zero and
    ``StepsizeOutOfRange`` if it overflows.
    """
    hp = _step_power(h, z + 1)
    return (np.asarray(w_lower, dtype=float) - np.asarray(w_higher, dtype=float)) / hp


def _step_power(h: float, n: int) -> float:
    """``h**n``; raises ``StepsizeOutOfRange`` if it overflows, ``StepUnderflow`` if it is 0."""
    try:
        hp = h ** n
    except OverflowError:
        raise StepsizeOutOfRange(f"stepsize {h} too large: h**{n} overflows") from None
    if hp == 0.0:
        raise StepUnderflow(f"h**{n} underflowed for h={h}")
    return hp


def alpha_propagation_term(
    t_lower: ButcherTableau,
    f: RHSFunction,
    x: float,
    y_exact: np.ndarray,
    w_higher: np.ndarray,
    h: float,
) -> np.ndarray:
    """Propagated-error term of the global-error recursion, computed exactly.

    With input error ``d = w_higher - y_exact``, returns
    ``d + h * [F(x, w_higher) - F(x, y_exact)]`` for the lower method's
    increment ``F``.  By the mean-value construction this equals the
    contraction-factor-times-input-error term of the recursion without ever
    forming a derivative of ``F``.
    """
    y_exact = np.asarray(y_exact, dtype=float)
    w_higher = np.asarray(w_higher, dtype=float)
    inc_w = increment_function(t_lower, f, x, w_higher, h)
    return _alpha_term(y_exact, w_higher, inc_w, increment_function(t_lower, f, x, y_exact, h), h)


def _alpha_term(
    y_exact: np.ndarray, w: np.ndarray, inc_w: np.ndarray, inc_exact: np.ndarray, h: float
) -> np.ndarray:
    """``d + h * [F(x, w) - F(x, y_exact)]`` with ``d = w - y_exact``, for increments
    already evaluated at both states."""
    d = w - y_exact
    return d + h * (inc_w - inc_exact)


def mean_beta_higher(
    tracker: BetaTracker,
    t_higher: ButcherTableau,
    p: IVProblem,
    x: float,
    h: float,
) -> BetaTracker:
    """Fold the higher-order method's error coefficient at ``(x, h)`` into the mean.

    The sample is ``eps_higher / h**(z_higher + 1)`` with ``eps_higher``
    measured from exact input, i.e. the higher-order analogue of the
    lower-order coefficient the controller works with.
    """
    return _pushed_beta(tracker, local_error_exact(t_higher, p, x, h), h, t_higher.z)


def _pushed_beta(tracker: BetaTracker, eps: np.ndarray, h: float, z: int) -> BetaTracker:
    """Fold the coefficient ``eps / h**(z+1)`` of a measured local error into ``tracker``."""
    return tracker.pushed(eps / _step_power(h, z + 1))


def condition_check(
    i: int, beta_lower, tracker: BetaTracker, h: float, z: int
) -> ConditionCheck:
    """Compare this step's local-error size against the accumulated higher-order errors.

    ``lhs = |beta_lower| * h**(z+1)`` and ``rhs = i * mean|beta_higher| *
    h**(z+2)``.  While ``lhs > rhs`` the accumulated higher-order error is
    still dominated by the controlled local error.  ``m_ratio`` is
    ``lhs / (mean|beta_higher| * h**(z+2))``, so the check holds exactly
    while ``i < m_ratio``; with an empty mean the ratio is infinite and the
    check holds by convention.  Raises ``StepUnderflow`` if ``h**(z+1)`` or
    ``h**(z+2)`` underflows to zero and ``StepsizeOutOfRange`` if one
    overflows.
    """
    return _condition(i, inf_norm(beta_lower) * _step_power(h, z + 1), tracker, h, z)


def _condition(i: int, lhs: float, tracker: BetaTracker, h: float, z: int) -> ConditionCheck:
    """``condition_check`` for a left-hand side ``|beta_lower| * h**(z+1)`` already formed."""
    denom = tracker.mean_abs * _step_power(h, z + 2)
    rhs = i * denom
    m_ratio = lhs / denom if denom > 0.0 else math.inf
    holds = lhs > rhs if rhs > 0.0 else True
    return ConditionCheck(lhs=lhs, rhs=rhs, holds=holds, m_ratio=m_ratio)


class _Oracle:
    """The oracle of one ``integrate`` run: measures each accepted step against ``y``.

    It holds ``y(x)`` at the current abscissa and the ``BetaTracker`` of the
    higher method.  Each step reuses the accepted attempt's lower increment,
    evaluates the pair once from the exact state, and carries ``y(x_next)``
    on as the next ``y(x)``; its fields are bit-identical to
    ``local_error_exact``, ``alpha_propagation_term`` and ``mean_beta_higher``.
    """

    #: the oracle's ``StepRecord`` fields for a problem without an exact solution
    UNMEASURED = dict.fromkeys(
        ("eps_lower", "delta_lower", "delta_higher", "alpha_term", "cond_rhs", "cond_holds")
    )

    def __init__(self, pair: MethodPair, p: IVProblem):
        self.pair, self.p = pair, p
        self.y_x = reference_solution(p, p.x0)
        self.tracker = BetaTracker()

    def measure(self, i: int, x: float, x_next: float, h: float, w: np.ndarray,
                inc_lo: np.ndarray, w_lo: np.ndarray, w_hi: np.ndarray, est: float) -> dict:
        """The oracle fields of accepted step ``i``, keyed as in ``StepRecord``.

        The step went from ``(x, w)`` to ``x_next`` with stepsize ``h``;
        ``inc_lo`` is its lower increment, ``w_lo``/``w_hi`` its results and
        ``est`` its estimate ``|beta_lower| * h**(z+1)``.  Raises what the
        formulas raise, at this step.
        """
        pair, p, y_x = self.pair, self.p, self.y_x
        y_next = y_xh = reference_solution(p, x_next)
        if x + h != x_next:  # a clamped landing can miss x_end in the last bit
            y_xh = reference_solution(p, x + h)
        exact_lo, exact_hi = _pair_increments(pair, p.f, x, y_x, h)
        eps_lower = _local_error(y_x, exact_lo, y_xh, h)
        delta_lower = w_lo - y_next
        delta_higher = w_hi - y_next
        alpha_term = _alpha_term(y_x, w, inc_lo, exact_lo, h)
        eps_higher = _local_error(y_x, exact_hi, y_xh, h)
        self.tracker = _pushed_beta(self.tracker, eps_higher, h, pair.higher.z)
        cond = _condition(i, est, self.tracker, h, pair.lower.z)
        self.y_x = y_next
        return {"eps_lower": eps_lower, "delta_lower": delta_lower,
                "delta_higher": delta_higher, "alpha_term": alpha_term,
                "cond_rhs": cond.rhs, "cond_holds": cond.holds}


def sigma_bound(sigma: float, z: int, r: int, delta: float) -> float:
    """Tolerance-relative ceiling ``(sigma**(z+1) + sigma**(z+r+1)) * delta``.

    This is the level the propagated global error is expected to respect for
    as long as the accumulation condition holds; its coefficient drops below
    1 only for small enough safety factors and high enough orders.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must be in (0, 1], got {sigma}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if z < 1 or r < 1:
        raise ValueError(f"orders must satisfy z >= 1, r >= 1, got z={z}, r={r}")
    return (sigma ** (z + 1) + sigma ** (z + r + 1)) * delta


def find_crossing(
    records: Sequence[StepRecord], delta: float
) -> Optional[tuple[int, float]]:
    """First accepted step whose measured global error exceeds ``delta`` (strictly).

    Returns ``(step index, abscissa)`` or ``None``.  Records without oracle
    diagnostics are skipped.
    """
    if not records:
        raise ValueError("records must be nonempty")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    for rec in records:
        if rec.delta_lower is not None and inf_norm(rec.delta_lower) > delta:
            return rec.i, rec.x
    return None


def _global_error_fixed_steps(t: ButcherTableau, p: IVProblem, h: float):
    span = p.x_end - p.x0
    n = max(1, round(span / h))
    h_eff = span / n
    w = np.array(p.y0, dtype=float)
    for j in range(n):
        w = rk_step(t, p.f, p.x0 + j * h_eff, w, h_eff)
    err = w - reference_solution(p, p.x_end)
    return h_eff, err


def empirical_order(
    t: ButcherTableau,
    p: IVProblem,
    mode: str,
    h_set: Sequence[float],
) -> float:
    """Least-squares slope of log error against log stepsize.

    ``mode='local'`` samples the one-step error at ``x0`` (expected slope
    ``z + 1``); ``mode='global'`` samples the error at ``x_end`` of a
    fixed-step integration (expected slope ``z``).  For the global mode each
    requested ``h`` is snapped to the nearest exact divisor of the interval.

    Raises
    ------
    DegenerateFit
        If any sampled error is within 100 ulp of the reference scale,
        i.e. the stepsizes are too small for a meaningful fit.
    """
    if mode not in ("local", "global"):
        raise ValueError(f"mode must be 'local' or 'global', got {mode!r}")
    hs = [float(h) for h in h_set]
    if len(hs) < 4 or len(set(hs)) != len(hs) or any(h <= 0 for h in hs):
        raise ValueError("h_set needs at least 4 distinct positive stepsizes")

    log_h, log_err = [], []
    for h in hs:
        if mode == "local":
            w = rk_step(t, p.f, p.x0, p.y0, h)
            y_ref = reference_solution(p, p.x0 + h)
            err = w - y_ref
            h_used = h
        else:
            h_used, err = _global_error_fixed_steps(t, p, h)
            y_ref = reference_solution(p, p.x_end)
        scale = max(1.0, inf_norm(y_ref))
        err_norm = inf_norm(err)
        if err_norm < 100.0 * np.finfo(float).eps * scale:
            raise DegenerateFit(
                f"{t.name} on {p.name}: error {err_norm} at h={h} is at roundoff level"
            )
        log_h.append(math.log(h_used))
        log_err.append(math.log(err_norm))
    slope, _ = np.polyfit(log_h, log_err, 1)
    return float(slope)
