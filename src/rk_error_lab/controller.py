"""Adaptive integration with local error control via local extrapolation.

Each step runs both methods of a pair from the same input state.  The
difference of the two results gives the lower-order error-coefficient
estimate; a trial step is rejected when the implied local error
``|beta| * h**(z+1)`` reaches the tolerance, and the stepsize is reproposed
from ``h = sigma * (delta / |beta|) ** (1 / (z+1))``.  On acceptance the
*higher*-order result is propagated as the input of the next step, and the
step's values are appended to the run's columns, one typed array each, which
become numpy columns once the loop ends.

Two policies choose the stepsize after an accepted step: ``proportional``
reproposes it from the step's own estimate (the default), ``reject-only``
keeps the stepsize until a rejection forces it down.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .error_analysis import (
    StepRecord,
    StepsizeOutOfRange,
    _MAX_STEPS,
    _collector,
    _oracle_fields,
    _Records,
    _safety_factor,
    _step_power,
    sigma_bound,
)
from .problems import IVProblem
from .rk_core import (_QUIET, MethodPair, RHSFunction, _array_lane, _count, _number, _one_state,
                      _positive_finite)

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

#: the columns the loop collects, in the order of its appends
_LOOP_COLUMNS = ("x", "h", "cond_lhs", "rejects", "clamped", "w_lower", "w_higher",
                 "beta_lower", "inc_lower")


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
    the start of the run.  Each setting is checked when the config is built
    (the README's failure table).  The stepsize limits are not settings: every
    run keeps its steps within ``[1e-12, 1/10]`` times the interval length, and
    no step is longer than ``MAX_GROWTH`` times the accepted step before it.
    """

    delta: float = 1e-8
    sigma: float = 0.8
    h_init: Optional[float] = None
    policy: str = "proportional"
    max_steps: int = _MAX_STEPS

    def __post_init__(self):
        _positive_finite("delta", self.delta)
        _safety_factor(self.sigma)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        _count("max_steps", self.max_steps)
        if self.h_init is not None:
            _positive_finite("h_init", self.h_init)


@dataclass(frozen=True)
class TraceSummary:
    """Run totals, then the four fields the oracle measures
    (``error_analysis._oracle_fields``), all ``None`` without an exact
    solution: the last step's ``delta_lower``, signed for ``d = 1`` and its max
    norm otherwise; the 1-based index and abscissa of the first step whose
    ``delta_lower`` norm exceeds ``delta``; and the 1-based index of the first
    step whose accumulation condition fails.  A step not found is ``None``."""

    accepted: int
    rejected: int
    final_x: float
    final_delta_lower: Optional[float] = None
    crossing_index: Optional[int] = None
    crossing_x: Optional[float] = None
    condition_violation_index: Optional[int] = None


@dataclass(frozen=True, eq=False)
class Trace:
    """Ordered accepted-step records plus run totals.

    ``integrate`` stores the records as columns (``error_analysis._Records``),
    which the trace writers read directly.  Any sequence of ``StepRecord``
    will do; the writers collect it into the same columns first.
    """

    records: Sequence[StepRecord]
    summary: TraceSummary


def propose_stepsize(
    beta_norm: float, cfg: ControllerConfig, z: int, h_min: float, h_max: float
) -> float:
    """Stepsize from the tolerance equation, with safety factor and clamping.

    Returns ``clamp(sigma * (delta / beta_norm) ** (1 / (z+1)), h_min,
    h_max)``; a zero estimate proposes ``h_max`` and an infinite one ``h_min``.
    Raises ``ValueError`` naming an argument that is not of its kind, and for
    ``h_min`` above ``h_max``.
    """
    _number("beta_norm", beta_norm, "nonnegative", lambda v: v >= 0.0)
    _count("z", z)
    if _positive_finite("h_min", h_min) > _positive_finite("h_max", h_max):
        raise ValueError(f"h_min={h_min!r} must not exceed h_max={h_max!r}")
    return _proposal(beta_norm, cfg, z, h_min, h_max)


def _proposal(beta_norm: float, cfg: ControllerConfig, z: int, h_min: float,
              h_max: float) -> float:
    """``propose_stepsize`` without its checks, which the run's own floats and ints
    skip: the only place an estimate becomes a stepsize, after the probe, a
    rejection or an accepted step."""
    if beta_norm == 0.0:
        return h_max
    return min(max(cfg.sigma * (cfg.delta / beta_norm) ** (1.0 / (z + 1)), h_min), h_max)


@_QUIET
def attempt_step(
    pair: MethodPair, f: RHSFunction, x: float, w_higher_in: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run both methods of the pair one step from the same input state, their
    ``pair.shared`` leading stages once.

    Returns ``(w_lower, w_higher, beta)`` where ``beta`` is the componentwise
    estimate ``(w_lower - w_higher) / h**(z+1)`` for the lower method's order
    ``z``.  It checks its input and raises as ``increment_function`` does.
    """
    y = _one_state(x, w_higher_in, h)
    return _attempt(pair, _array_lane(pair, f, y.shape), x, y, h)[1:4]


def _attempt(pair: MethodPair, increments, x: float, y, h: float):
    """``attempt_step`` from the float array ``y`` (a Python float in the float
    lane, and so is every value returned), its increments by the run's
    ``increments(x, y, h)``.  Returns ``(inc_lower, w_lower, w_higher, beta,
    beta_norm, est)``: the lower increment, which the run keeps for the
    oracle, and the max norm of ``beta`` and the estimate ``beta_norm *
    h**(z+1)``.  ``h**(z+1)`` is formed once, by ``_step_power``, so the values
    and raises are those of ``estimate_beta``.
    """
    inc_lower, inc_higher = increments(x, y, h)
    w_lower = y + h * inc_lower
    w_higher = y + h * inc_higher
    hp = _step_power(h, pair.lower.z + 1)
    beta = (w_lower - w_higher) / hp
    beta_norm = abs(beta) if type(beta) is float else float(np.abs(beta).max())
    return inc_lower, w_lower, w_higher, beta, beta_norm, beta_norm * hp


def _initial_stepsizes(
    pair: MethodPair, p: IVProblem, increments, y0, cfg: ControllerConfig
) -> tuple[float, float, float]:
    """The run's ``(h_init, h_min, h_max)``, with the limits ``[1e-12, 1/10]`` times the span.

    Without a given ``h_init`` one is proposed from a probe step of
    ``span / 100`` from ``y0`` with the run's ``increments``.  Raises
    ``StepsizeOutOfRange`` for limits that leave no usable stepsize and for a
    given ``h_init`` outside them.
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
        beta_norm = _attempt(pair, increments, p.x0, y0, span / 100.0)[4]
        h_init = _proposal(beta_norm, cfg, pair.lower.z, h_min, h_max)
    elif not h_min <= h_init <= h_max:
        raise StepsizeOutOfRange(f"h_init={h_init} outside [h_min={h_min}, h_max={h_max}]")
    return h_init, h_min, h_max


@_QUIET
def integrate(pair: MethodPair, p: IVProblem, cfg: ControllerConfig) -> Trace:
    """Integrate ``p`` over its interval with local error control.

    The propagated state is the higher-order result of each accepted step, and
    the last step is shortened so the final abscissa equals ``x_end`` exactly.
    Returns the ``Trace`` of the accepted steps, stored as columns: each step
    appends its values to one typed array per column
    (``error_analysis._collector``), which becomes its numpy column after the
    loop.  With an exact solution the oracle then measures the finished run:
    it returns its columns and the summary's measured fields
    (``error_analysis._oracle_fields``); without one these are ``None``.
    Every attempt runs in the lane that the ``rk_core`` lane rule picks, under
    its read-only rule.  A failure of the loop ends the run at once with its
    own exception; the exceptions are those of the README's failure table.
    """
    float_lane = p.y0.size == 1
    if float_lane:
        increments, w = pair.float_lane[p.scalar](p.f), p.y0.item()
    else:
        increments, w = _array_lane(pair, p.f, p.y0.shape), p.y0
    h_work, h_min, h_max = _initial_stepsizes(pair, p, increments, w, cfg)
    x_end, max_steps, proportional = p.x_end, cfg.max_steps, cfg.policy == "proportional"
    # reject-only never grows a step, so it needs at least span / h_init steps;
    # the factor 2 covers the rounding of x + h (a float-int comparison cannot overflow)
    if not proportional and (x_end - p.x0) / (2 * h_work) > max_steps:
        raise MaxStepsExceeded(f"{p.name}: reject-only at h_init={h_work} needs more than "
                               f"max_steps={max_steps} steps to reach x_end={x_end}")
    z, delta = pair.lower.z, cfg.delta

    x, n = p.x0, 0
    cols = {name: _collector(name, float_lane) for name in _LOOP_COLUMNS}
    (put_x, put_h, put_est, put_rejects, put_clamped, put_w_lo, put_w_hi, put_beta,
     put_inc) = [append for append, _ in cols.values()]

    while x < x_end:
        if n >= max_steps:
            raise MaxStepsExceeded(f"{p.name}: {max_steps} accepted steps "
                                   "before reaching x_end")
        rejects = 0
        while True:
            land = (x_end - x) <= h_work
            h_step = x_end - x if land else h_work
            # a Python bool even where x_end or h_work is a numpy float, for the bool column
            clamped = bool(land and h_step < h_work)
            inc_lo, w_lo, w_hi, beta, beta_norm, est = _attempt(pair, increments, x, w, h_step)
            if est < delta:
                break
            # an accepted state is finite: a NaN or inf in w_lo or w_hi makes est NaN or inf
            if not np.isfinite(w_hi).all():
                raise NonFiniteState(f"{p.name}: state not finite after step at x={x}")
            rejects += 1
            if rejects > MAX_REJECTS:
                raise MaxRejectsExceeded(f"{p.name}: {rejects} consecutive rejections "
                                         f"at x={x}")
            h_work = _proposal(beta_norm, cfg, z, h_min, h_max)
            if h_work == h_min:
                raise StepsizeUnderflow(f"{p.name}: required stepsize at or below "
                                        f"h_min={h_min} at x={x}")

        x_next = x_end if land else x + h_step
        put_x(x_next), put_h(h_step), put_est(est), put_rejects(rejects), put_clamped(clamped)
        put_w_lo(w_lo), put_w_hi(w_hi), put_beta(beta), put_inc(inc_lo)
        n += 1
        if not float_lane:  # the next attempt hands f this state itself, which f must not write
            w_hi.flags.writeable = False
        w = w_hi
        x = x_next
        if proportional:
            h_cap = MAX_GROWTH * h_step
            h_work = _proposal(beta_norm, cfg, z, h_min, h_cap if h_cap < h_max else h_max)
        # reject-only keeps h_work as is

    # IVProblem guarantees x_end > x0, so there is at least one record
    c = {name: end(n) for name, (_, end) in cols.items()}
    c["i"] = np.arange(1, n + 1)
    measured = {}
    if p.exact is not None:
        fields, measured = _oracle_fields(pair, p, c, delta)
        c.update(fields)
    summary = TraceSummary(accepted=n, rejected=int(c["rejects"].sum()), final_x=x, **measured)
    # every step's bound is one float, a stride-0 column
    bound = np.array([sigma_bound(cfg.sigma, z, pair.r, delta)])
    c["bound"] = np.ndarray(n, buffer=bound, strides=(0,))
    return Trace(records=_Records(c, n), summary=summary)
