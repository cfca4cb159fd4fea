"""Adaptive integration with local error control via local extrapolation.

Each step runs both methods of a pair from the same input state.  The
difference of the two results gives the lower-order error-coefficient
estimate; a trial step is rejected when the implied local error
``|beta| * h**(z+1)`` reaches the tolerance, and the stepsize is reproposed
from ``h = sigma * (delta / |beta|) ** (1 / (z+1))``.  On acceptance the
*higher*-order result is propagated as the input of the next step, and a
full diagnostic record is written.

Two policies choose the stepsize after an accepted step: ``proportional``
reproposes it from the step's own estimate (the default), ``reject-only``
keeps the stepsize until a rejection forces it down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .error_analysis import (
    BetaTracker,
    StepRecord,
    _alpha_term,
    _local_error,
    _pushed_beta,
    condition_check,
    estimate_beta,
    find_crossing,
    inf_norm,
    sigma_bound,
)
from .problems import IVProblem, reference_solution
from .rk_core import MethodPair, RHSFunction, _pair_increments

__all__ = [
    "ControllerConfig",
    "Trace",
    "TraceSummary",
    "POLICIES",
    "StepsizeUnderflow",
    "MaxStepsExceeded",
    "MaxRejectsExceeded",
    "NonFiniteState",
    "StepsizeOutOfRange",
    "propose_stepsize",
    "attempt_step",
    "integrate",
]

POLICIES = ("proportional", "reject-only")


class StepsizeUnderflow(RuntimeError):
    """Meeting the tolerance would require a stepsize below the configured minimum."""


class MaxStepsExceeded(RuntimeError):
    """Accepted-step cap hit before reaching the end of the interval."""


class MaxRejectsExceeded(RuntimeError):
    """Too many consecutive rejections on a single step."""


class NonFiniteState(ArithmeticError):
    """Propagated state left the finite range."""


class StepsizeOutOfRange(ValueError):
    """The given initial stepsize lies outside the resolved ``[h_min, h_max]``."""


@dataclass(frozen=True)
class ControllerConfig:
    """Tolerance, safety factor and stepsize limits for one integration.

    ``h_init``, ``h_min`` and ``h_max`` may be left ``None``; they are then
    derived from the problem at the start of the run (see ``integrate``).
    """

    delta: float = 1e-8
    sigma: float = 0.8
    h_init: Optional[float] = None
    h_min: Optional[float] = None
    h_max: Optional[float] = None
    policy: str = "proportional"
    max_steps: int = 1_000_000
    max_rejects: int = 20

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must be in (0, 1], got {self.sigma}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.max_steps < 1 or self.max_rejects < 1:
            raise ValueError("max_steps and max_rejects must be >= 1")
        hs = [h for h in (self.h_min, self.h_init, self.h_max) if h is not None]
        if not all(h > 0.0 and math.isfinite(h) for h in hs):
            raise ValueError(f"stepsize limits must be positive and finite, got {hs}")
        if self.h_min is not None and self.h_max is not None and self.h_min > self.h_max:
            raise ValueError(f"h_min={self.h_min} exceeds h_max={self.h_max}")


@dataclass(frozen=True)
class TraceSummary:
    accepted: int
    rejected: int
    final_x: float
    final_delta_lower: Optional[float]
    crossing_index: Optional[int]
    crossing_x: Optional[float]
    condition_violation_index: Optional[int]


@dataclass(frozen=True, eq=False)
class Trace:
    """Ordered accepted-step records plus run totals."""

    records: tuple[StepRecord, ...]
    summary: TraceSummary


def propose_stepsize(beta_norm: float, cfg: ControllerConfig, z: int) -> float:
    """Stepsize from the tolerance equation, with safety factor and clamping.

    Returns ``clamp(sigma * (delta / beta_norm) ** (1 / (z+1)), h_min,
    h_max)``; a zero estimate proposes ``h_max``.  The config must carry
    concrete ``h_min``/``h_max``.
    """
    if beta_norm < 0.0:
        raise ValueError(f"beta_norm must be nonnegative, got {beta_norm}")
    if cfg.h_min is None or cfg.h_max is None:
        raise ValueError("propose_stepsize needs a config with concrete h_min and h_max")
    if beta_norm == 0.0:
        return cfg.h_max
    return min(max(_tolerance_stepsize(beta_norm, cfg, z), cfg.h_min), cfg.h_max)


def _tolerance_stepsize(beta_norm: float, cfg: ControllerConfig, z: int) -> float:
    """Unclamped stepsize at which ``beta_norm`` meets the tolerance, with safety factor."""
    return cfg.sigma * (cfg.delta / beta_norm) ** (1.0 / (z + 1))


def attempt_step(
    pair: MethodPair, f: RHSFunction, x: float, w_higher_in: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run both methods of the pair one step from the same input state.

    The ``pair.shared`` leading stages are evaluated once, by the lower
    method, and reused by the higher one.  Returns ``(w_lower, w_higher,
    beta)`` where ``beta`` is the componentwise estimate ``(w_lower -
    w_higher) / h**(z+1)`` for the lower method's order ``z``.
    """
    y = np.asarray(w_higher_in, dtype=float)
    inc_lower, inc_higher = _pair_increments(pair, f, x, y, h)
    w_lower = y + h * inc_lower
    w_higher = y + h * inc_higher
    return w_lower, w_higher, estimate_beta(w_lower, w_higher, h, pair.lower.z)


def _resolve_config(pair: MethodPair, p: IVProblem, cfg: ControllerConfig) -> ControllerConfig:
    """Fill in stepsize limits from the problem and probe an initial stepsize.

    Raises ``StepsizeOutOfRange`` if a given ``h_init`` lies outside the
    resolved limits (a probed one is clamped into them).
    """
    span = p.x_end - p.x0
    h_min = cfg.h_min if cfg.h_min is not None else 1e-12 * span
    h_max = cfg.h_max if cfg.h_max is not None else span / 10.0
    if cfg.h_init is not None and not h_min <= cfg.h_init <= h_max:
        raise StepsizeOutOfRange(
            f"h_init={cfg.h_init} outside [h_min={h_min}, h_max={h_max}]"
        )
    resolved = replace(cfg, h_min=h_min, h_max=h_max)
    if resolved.h_init is None:
        _, _, beta = attempt_step(pair, p.f, p.x0, p.y0, span / 100.0)
        h_init = propose_stepsize(inf_norm(beta), resolved, pair.lower.z)
        resolved = replace(resolved, h_init=h_init)
    return resolved


def integrate(pair: MethodPair, p: IVProblem, cfg: ControllerConfig) -> Trace:
    """Integrate ``p`` over its interval with local error control.

    The propagated state is always the higher-order result of the accepted
    step.  When the problem has an exact solution, every record carries the
    oracle diagnostics (measured local and global errors, the propagated
    term of the error recursion, and the accumulation condition); otherwise
    those fields are ``None`` and only the controller's own estimate is
    recorded.  The last step is shortened so the final abscissa equals
    ``x_end`` exactly.

    The oracle reuses the accepted attempt's lower increment, evaluates the
    pair once from the exact state, and carries ``y(x_next)`` on as the next
    ``y(x)``; its fields are bit-identical to ``local_error_exact``,
    ``alpha_propagation_term`` and ``mean_beta_higher``.
    """
    cfg = _resolve_config(pair, p, cfg)
    z, r = pair.lower.z, pair.r
    delta = cfg.delta
    bound = sigma_bound(cfg.sigma, z, r, delta)
    has_oracle = p.exact is not None

    x = p.x0
    w = np.array(p.y0, dtype=float)
    y_x = reference_solution(p, x) if has_oracle else None
    h_work = cfg.h_init
    tracker = BetaTracker()
    records: list[StepRecord] = []
    rejected_total = 0

    while x < p.x_end:
        if len(records) >= cfg.max_steps:
            raise MaxStepsExceeded(
                f"{p.name}: {cfg.max_steps} accepted steps before reaching x_end"
            )
        rejects = 0
        while True:
            land = (p.x_end - x) <= h_work
            h_step = p.x_end - x if land else h_work
            clamped = land and h_step < h_work
            # attempt_step, inlined: the oracle reuses the lower increment
            inc_lo, inc_hi = _pair_increments(pair, p.f, x, w, h_step)
            w_lo = w + h_step * inc_lo
            w_hi = w + h_step * inc_hi
            beta = estimate_beta(w_lo, w_hi, h_step, z)
            beta_norm = inf_norm(beta)
            est = beta_norm * h_step ** (z + 1)
            if est < delta:
                break
            rejects += 1
            rejected_total += 1
            if rejects > cfg.max_rejects:
                raise MaxRejectsExceeded(
                    f"{p.name}: {rejects} consecutive rejections at x={x}"
                )
            raw = _tolerance_stepsize(beta_norm, cfg, z)
            if raw < cfg.h_min:
                raise StepsizeUnderflow(
                    f"{p.name}: required stepsize {raw} below h_min={cfg.h_min} at x={x}"
                )
            h_work = min(raw, cfg.h_max)

        if not np.all(np.isfinite(w_hi)):
            raise NonFiniteState(f"{p.name}: state not finite after step at x={x}")

        x_next = p.x_end if land else x + h_step
        i = len(records) + 1

        eps_lo = d_lo = d_hi = a_term = None
        cond_rhs = cond_holds = None
        cond_lhs = est
        if has_oracle:
            y_next = y_xh = reference_solution(p, x_next)
            if x + h_step != x_next:  # a clamped landing can miss x_end in the last bit
                y_xh = reference_solution(p, x + h_step)
            exact_lo, exact_hi = _pair_increments(pair, p.f, x, y_x, h_step)
            eps_lo = _local_error(y_x, exact_lo, y_xh, h_step)
            d_lo = w_lo - y_next
            d_hi = w_hi - y_next
            a_term = _alpha_term(y_x, w, inc_lo, exact_lo, h_step)
            tracker = _pushed_beta(
                tracker, _local_error(y_x, exact_hi, y_xh, h_step), h_step, pair.higher.z
            )
            cond = condition_check(i, beta, tracker, h_step, z)
            cond_lhs, cond_rhs, cond_holds = cond.lhs, cond.rhs, cond.holds
            y_x = y_next

        records.append(
            StepRecord(
                i=i,
                x=x_next,
                h=h_step,
                rejects=rejects,
                w_lower=w_lo,
                w_higher=w_hi,
                eps_lower=eps_lo,
                beta_lower=beta,
                delta_lower=d_lo,
                delta_higher=d_hi,
                alpha_term=a_term,
                cond_lhs=cond_lhs,
                cond_rhs=cond_rhs,
                cond_holds=cond_holds,
                bound=bound,
                clamped=clamped,
            )
        )
        w = w_hi
        x = x_next
        if cfg.policy == "proportional":
            h_work = propose_stepsize(beta_norm, cfg, z)
        # reject-only keeps h_work as is

    crossing = find_crossing(records, delta) if records else None
    violation_index = next(
        (rec.i for rec in records if rec.cond_holds is False), None
    )
    final_delta = None
    if has_oracle and records:
        last = records[-1].delta_lower
        final_delta = float(last[0]) if last.size == 1 else inf_norm(last)
    summary = TraceSummary(
        accepted=len(records),
        rejected=rejected_total,
        final_x=x,
        final_delta_lower=final_delta,
        crossing_index=crossing[0] if crossing else None,
        crossing_x=crossing[1] if crossing else None,
        condition_violation_index=violation_index,
    )
    return Trace(records=tuple(records), summary=summary)
