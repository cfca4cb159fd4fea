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
    StepRecord,
    StepsizeOutOfRange,
    _Oracle,
    _step_power,
    estimate_beta,
    find_crossing,
    inf_norm,
    sigma_bound,
)
from .problems import IVProblem
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
    resolved limits (a probed one is clamped into them), or if the largest
    stepsize the run may try is so large that ``h**(z+1)`` overflows for the
    higher method's order ``z``.
    """
    span = p.x_end - p.x0
    h_min = cfg.h_min if cfg.h_min is not None else 1e-12 * span
    h_max = cfg.h_max if cfg.h_max is not None else span / 10.0
    # no step is longer than h_max or the span (the last one lands on x_end);
    # the probe takes span / 100
    h_top = min(h_max, span)
    if cfg.h_init is None:
        h_top = max(h_top, span / 100.0)
    if h_top > 1.0:  # only overflow is checked up front; below 1 no power overflows
        _step_power(h_top, pair.higher.z + 1)
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
    """
    cfg = _resolve_config(pair, p, cfg)
    z, r = pair.lower.z, pair.r
    delta = cfg.delta
    bound = sigma_bound(cfg.sigma, z, r, delta)
    oracle = _Oracle(pair, p) if p.exact is not None else None

    x = p.x0
    w = np.array(p.y0, dtype=float)
    h_work = cfg.h_init
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
            # an accepted state is finite: a NaN or inf in w_lo or w_hi makes est NaN or inf
            if not np.isfinite(w_hi).all():
                raise NonFiniteState(f"{p.name}: state not finite after step at x={x}")
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

        x_next = p.x_end if land else x + h_step
        i = len(records) + 1
        records.append(
            StepRecord(
                i=i,
                x=x_next,
                h=h_step,
                rejects=rejects,
                w_lower=w_lo,
                w_higher=w_hi,
                beta_lower=beta,
                cond_lhs=est,
                bound=bound,
                clamped=clamped,
                **(oracle.measure(i, x, x_next, h_step, w, inc_lo, w_lo, w_hi, est)
                   if oracle is not None else _Oracle.UNMEASURED),
            )
        )
        w = w_hi
        x = x_next
        if cfg.policy == "proportional":
            h_work = propose_stepsize(beta_norm, cfg, z)
        # reject-only keeps h_work as is

    # IVProblem guarantees x_end > x0, so there is at least one record
    crossing = find_crossing(records, delta)
    violation_index = next(
        (rec.i for rec in records if rec.cond_holds is False), None
    )
    last = records[-1].delta_lower
    final_delta = None
    if last is not None:
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
