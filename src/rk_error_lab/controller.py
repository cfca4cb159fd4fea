"""Adaptive integration with local error control via local extrapolation.

Each step runs both methods of a pair from the same input state.  The
difference of the two results gives the lower-order error-coefficient
estimate; a trial step is rejected when the implied local error
``|beta| * h**(z+1)`` reaches the tolerance, and the stepsize is reproposed
from ``h = sigma * (delta / |beta|) ** (1 / (z+1))``.  On acceptance the
*higher*-order result is propagated as the input of the next step, and a
full diagnostic record is written into the run's columns.

Two policies choose the stepsize after an accepted step: ``proportional``
reproposes it from the step's own estimate (the default), ``reject-only``
keeps the stepsize until a rejection forces it down.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .error_analysis import (
    StepRecord,
    StepsizeOutOfRange,
    _Columns,
    _first_above,
    _oracle_fields,
    _Records,
    _row_norms,
    estimate_beta,
    inf_norm,
    sigma_bound,
)
from .problems import IVProblem
from .rk_core import MethodPair, RHSFunction, _one_state, _pair_increments

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

MAX_REJECTS = 20  # consecutive rejections allowed on one step
MAX_GROWTH = 10.0  # largest factor by which a step may exceed the accepted step before it


class StepsizeUnderflow(RuntimeError):
    """A rejection's proposed stepsize is clamped up to the run's minimum,
    ``1e-12`` times the interval length."""


class MaxStepsExceeded(RuntimeError):
    """Accepted-step cap hit before reaching the end of the interval, or foreseen before
    the first step: under ``reject-only``, a span longer than ``2 * max_steps * h_init``."""


class MaxRejectsExceeded(RuntimeError):
    """More than ``MAX_REJECTS`` consecutive rejections on a single step."""


class NonFiniteState(ArithmeticError):
    """Propagated state left the finite range."""


@dataclass(frozen=True)
class ControllerConfig:
    """Tolerance, safety factor, initial stepsize, policy and step cap for one integration.

    ``h_init`` may be left ``None``; it is then proposed from a probe step at
    the start of the run.  The stepsize limits are not settings: every run
    keeps its steps within ``[1e-12, 1/10]`` times the interval length, and
    no step is longer than ``MAX_GROWTH`` times the accepted step before it.
    """

    delta: float = 1e-8
    sigma: float = 0.8
    h_init: Optional[float] = None
    policy: str = "proportional"
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError(f"sigma must be in (0, 1], got {self.sigma}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not (isinstance(self.max_steps, numbers.Integral) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        if self.h_init is not None and not (self.h_init > 0.0 and math.isfinite(self.h_init)):
            raise ValueError(f"h_init must be positive and finite, got {self.h_init}")


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
    """Ordered accepted-step records plus run totals.

    ``integrate`` stores the records as columns, in a read-only sequence
    (``error_analysis._Records``) that the trace writers read directly.  Any
    sequence of ``StepRecord`` will do, a tuple included; the writers gather
    it into the same columns.
    """

    records: Sequence[StepRecord]
    summary: TraceSummary


def propose_stepsize(
    beta_norm: float, cfg: ControllerConfig, z: int, h_min: float, h_max: float
) -> float:
    """Stepsize from the tolerance equation, with safety factor and clamping.

    Returns ``clamp(sigma * (delta / beta_norm) ** (1 / (z+1)), h_min,
    h_max)``; a zero estimate proposes ``h_max`` and an infinite one ``h_min``.
    It is the only place an estimate becomes a stepsize: after the probe, a
    rejection or an accepted step.
    """
    if not beta_norm >= 0.0:
        raise ValueError(f"beta_norm must be nonnegative, got {beta_norm}")
    if beta_norm == 0.0:
        return h_max
    return min(max(cfg.sigma * (cfg.delta / beta_norm) ** (1.0 / (z + 1)), h_min), h_max)


def attempt_step(
    pair: MethodPair, f: RHSFunction, x: float, w_higher_in: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run both methods of the pair one step from the same input state.

    The ``pair.shared`` leading stages are evaluated once, by the lower
    method, and reused by the higher one.  Returns ``(w_lower, w_higher,
    beta)`` where ``beta`` is the componentwise estimate ``(w_lower -
    w_higher) / h**(z+1)`` for the lower method's order ``z``.  It checks its
    input as ``increment_function`` does.
    """
    return _attempt(pair, f, x, _one_state(x, w_higher_in, h), h)[1:]


def _attempt(
    pair: MethodPair, f: RHSFunction, x: float, y: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``attempt_step`` from the float array ``y``, returning first the lower
    increment, which the run's columns keep for the oracle's propagated-error
    term: ``(inc_lower, w_lower, w_higher, beta)``."""
    inc_lower, inc_higher = _pair_increments(pair, f, x, y, h)
    w_lower = y + h * inc_lower
    w_higher = y + h * inc_higher
    return inc_lower, w_lower, w_higher, estimate_beta(w_lower, w_higher, h, pair.lower.z)


def _initial_stepsizes(
    pair: MethodPair, p: IVProblem, cfg: ControllerConfig
) -> tuple[float, float, float]:
    """The run's ``(h_init, h_min, h_max)``, with the limits ``[1e-12, 1/10]`` times the span.

    Without a given ``h_init`` one is proposed from a probe step of
    ``span / 100`` and clamped into the limits.  Raises ``StepsizeOutOfRange``
    naming ``x_end`` if ``h_min`` underflows to 0 or ``h_max**(z+1)``
    overflows for the higher method's order ``z`` (every step, the probe
    included, is at most ``h_max``), and for a given ``h_init`` outside them.
    """
    span = p.x_end - p.x0
    h_min, h_max = 1e-12 * span, span / 10.0
    n = pair.higher.z + 1
    try:
        usable = h_min > 0.0 and h_max ** n < math.inf
    except OverflowError:
        usable = False
    if not usable:
        raise StepsizeOutOfRange(f"{p.name}: x_end={p.x_end} leaves no usable stepsize in "
                                 f"[{h_min}, {h_max}]: h_min must exceed 0, h_max**{n} be finite")
    h_init = cfg.h_init
    if h_init is None:
        _, _, beta = attempt_step(pair, p.f, p.x0, p.y0, span / 100.0)
        h_init = propose_stepsize(inf_norm(beta), cfg, pair.lower.z, h_min, h_max)
    elif not h_min <= h_init <= h_max:
        raise StepsizeOutOfRange(f"h_init={h_init} outside [h_min={h_min}, h_max={h_max}]")
    return h_init, h_min, h_max


# a non-finite stage or state raises a named exception; numpy's warning is noise
@np.errstate(over="ignore", invalid="ignore")
def integrate(pair: MethodPair, p: IVProblem, cfg: ControllerConfig) -> Trace:
    """Integrate ``p`` over its interval with local error control.

    The propagated state is always the higher-order result of the accepted
    step.  When the problem has an exact solution, every record carries the
    oracle diagnostics (measured local and global errors, the propagated
    term of the error recursion, and the accumulation condition); otherwise
    those fields are ``None`` and only the controller's own estimate is
    recorded.  The last step is shortened so the final abscissa equals
    ``x_end`` exactly.  The records are stored as columns, and the summary
    is read from them.

    The oracle measures the accepted steps in one pass after the loop.  When
    the loop raises an ``Exception``, the steps accepted so far are measured
    first, so an oracle failure at an earlier step is raised in its place; a
    ``KeyboardInterrupt`` propagates at once.
    """
    h_work, h_min, h_max = _initial_stepsizes(pair, p, cfg)
    # reject-only never grows a step, so it needs at least span / h_init steps;
    # the factor 2 covers the rounding of x + h (a float-int comparison cannot overflow)
    if cfg.policy == "reject-only" and (p.x_end - p.x0) / (2 * h_work) > cfg.max_steps:
        raise MaxStepsExceeded(f"{p.name}: reject-only at h_init={h_work} needs more than "
                               f"max_steps={cfg.max_steps} steps to reach x_end={p.x_end}")
    z, r = pair.lower.z, pair.r
    delta = cfg.delta
    bound = sigma_bound(cfg.sigma, z, r, delta)

    x = p.x0
    w = p.y0
    state = p.y0.shape
    cols = _Columns(("x", float), ("h", float), ("cond_lhs", float), ("w_lower", float, *state),
                    ("w_higher", float, *state), ("beta_lower", float, *state),
                    ("inc_lower", float, *state), ("rejects", np.int32), ("clamped", bool))

    try:
        while x < p.x_end:
            if len(cols) >= cfg.max_steps:
                raise MaxStepsExceeded(f"{p.name}: {cfg.max_steps} accepted steps "
                                       "before reaching x_end")
            rejects = 0
            while True:
                land = (p.x_end - x) <= h_work
                h_step = p.x_end - x if land else h_work
                clamped = land and h_step < h_work
                inc_lo, w_lo, w_hi, beta = _attempt(pair, p.f, x, w, h_step)
                beta_norm = inf_norm(beta)
                est = beta_norm * h_step ** (z + 1)
                if est < delta:
                    break
                # an accepted state is finite: a NaN or inf in w_lo or w_hi makes est NaN or inf
                if not np.isfinite(w_hi).all():
                    raise NonFiniteState(f"{p.name}: state not finite after step at x={x}")
                rejects += 1
                if rejects > MAX_REJECTS:
                    raise MaxRejectsExceeded(f"{p.name}: {rejects} consecutive rejections "
                                             f"at x={x}")
                h_work = propose_stepsize(beta_norm, cfg, z, h_min, h_max)
                if h_work == h_min:
                    raise StepsizeUnderflow(f"{p.name}: required stepsize at or below "
                                            f"h_min={h_min} at x={x}")

            x_next = p.x_end if land else x + h_step
            cols.append(x_next, h_step, est, w_lo, w_hi, beta, inc_lo, rejects, clamped)
            w = w_hi
            x = x_next
            if cfg.policy == "proportional":
                h_cap = MAX_GROWTH * h_step
                h_work = propose_stepsize(beta_norm, cfg, z, h_min,
                                          h_cap if h_cap < h_max else h_max)
            # reject-only keeps h_work as is
    except Exception:
        if p.exact is not None:  # an oracle failure on an accepted step came first
            _oracle_fields(pair, p, cols.columns())
        raise

    # IVProblem guarantees x_end > x0, so there is at least one record
    c = cols.columns()
    final_delta = crossing = violation = None
    if p.exact is not None:
        c.update(_oracle_fields(pair, p, c))
        last = c["delta_lower"][-1]
        final_delta = float(last[0]) if last.size == 1 else inf_norm(last)
        crossing = _first_above(_row_norms(c["delta_lower"]), delta)
        violations = np.flatnonzero(~c["cond_holds"])
        violation = int(violations[0]) + 1 if violations.size else None
    n = len(cols)
    summary = TraceSummary(
        accepted=n,
        rejected=int(c["rejects"].sum()),
        final_x=x,
        final_delta_lower=final_delta,
        crossing_index=None if crossing is None else crossing + 1,
        crossing_x=None if crossing is None else c["x"].item(crossing),
        condition_violation_index=violation,
    )
    c.update(i=np.arange(1, n + 1), bound=np.broadcast_to(bound, n))
    return Trace(records=_Records(c, n), summary=summary)
