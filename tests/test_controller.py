import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pins import FLAGSHIP, HASWELL_FLAGSHIP, HASWELL_LONG_RUN_STEPS, same_bits
from rk_error_lab import controller, rk_core
from rk_error_lab.cli import figure1_export, read_trace_csv, write_trace_csv
from rk_error_lab.error_analysis import _Records, _row_norms
from rk_error_lab import (
    BetaTracker,
    ComplexStage,
    ControllerConfig,
    IVProblem,
    MaxRejectsExceeded,
    MaxStepsExceeded,
    MethodPair,
    NonFiniteStage,
    NonFiniteState,
    POLICIES,
    StepsizeOutOfRange,
    StepsizeUnderflow,
    StepRecord,
    StepUnderflow,
    Trace,
    alpha_propagation_term,
    attempt_step,
    builtin,
    builtin_pair,
    condition_check,
    empirical_order,
    estimate_beta,
    find_crossing,
    increment_function,
    inf_norm,
    integrate,
    kutta3,
    local_error_exact,
    mean_beta_higher,
    problem_names,
    propose_stepsize,
    reference_solution,
    rk_step,
    sigma_bound,
)

PAIR = builtin_pair("rk3_rk4")
LAM = math.log(1000.0) / 100.0


def flagship_config(**overrides):
    kwargs = dict(delta=1e-8, sigma=0.8, policy="proportional")
    kwargs.update(overrides)
    return ControllerConfig(**kwargs)


# --- propose_stepsize -----------------------------------------------------------

def test_proposal_unit_ratio():
    cfg = ControllerConfig(delta=1e-8, sigma=1.0)
    assert propose_stepsize(1e-8, cfg, 3, 1e-12, 10.0) == pytest.approx(1.0, rel=1e-15)


def test_proposal_fourth_root():
    cfg = ControllerConfig(delta=1e-8, sigma=1.0)
    h = propose_stepsize(1.0 / 24.0, cfg, 3, 1e-12, 10.0)
    assert h == pytest.approx((2.4e-7) ** 0.25, rel=1e-13)
    assert h == pytest.approx(0.02213, rel=1e-3)
    cfg8 = ControllerConfig(delta=1e-8, sigma=0.8)
    h8 = propose_stepsize(1.0 / 24.0, cfg8, 3, 1e-12, 10.0)
    assert h8 == pytest.approx(0.8 * h, rel=1e-15)


def test_proposal_zero_estimate_gives_h_max():
    cfg = ControllerConfig(delta=1e-8, sigma=0.8)
    assert propose_stepsize(0.0, cfg, 3, 1e-12, 2.5) == 2.5


def test_proposal_clamps_to_limits():
    cfg = ControllerConfig(delta=1e-8, sigma=0.8)
    assert propose_stepsize(1e3, cfg, 3, 0.5, 1.0) == 0.5
    assert propose_stepsize(1e-30, cfg, 3, 0.5, 1.0) == 1.0


def test_proposal_rejects_bad_inputs():
    cfg = ControllerConfig(delta=1e-8, sigma=0.8)
    with pytest.raises(ValueError):
        propose_stepsize(-1.0, cfg, 3, 1e-12, 1.0)
    with pytest.raises(ValueError, match="beta_norm"):
        propose_stepsize(math.nan, cfg, 3, 1e-12, 1.0)
    # an infinite estimate proposes h_min, which integrate reports as StepsizeUnderflow
    assert propose_stepsize(math.inf, cfg, 3, 1e-12, 1.0) == 1e-12
    # a NaN limit used to be returned or ignored, and h_min above h_max to give h_max
    with pytest.raises(ValueError, match=r"^h_max must be positive and finite, got nan$"):
        propose_stepsize(1.0, cfg, 3, 1e-12, math.nan)
    with pytest.raises(ValueError, match=r"^h_min=2.0 must not exceed h_max=1.0$"):
        propose_stepsize(1.0, cfg, 3, 2.0, 1.0)


# --- attempt_step ----------------------------------------------------------------

def test_attempt_step_zero_field():
    f = lambda x, y: np.zeros_like(y)
    w_in = np.array([4.2])
    w_lo, w_hi, beta = attempt_step(PAIR, f, 0.0, w_in, 0.3)
    assert float(w_lo[0]) == 4.2 and float(w_hi[0]) == 4.2
    assert float(beta[0]) == 0.0


def test_attempt_step_beta_on_decay():
    w_lo, w_hi, beta = attempt_step(PAIR, lambda x, y: -y, 0.0, np.array([1.0]), 0.1)
    assert float(beta[0]) == pytest.approx(-1.0 / 24.0, rel=1e-12)


def test_attempt_step_beta_on_growth_problem():
    p = builtin("paper_exponential")
    _, _, beta = attempt_step(PAIR, p.f, 0.0, np.array([1.0]), 0.1)
    assert float(beta[0]) == pytest.approx(-LAM ** 4 / 24.0, rel=1e-10)
    assert float(beta[0]) == pytest.approx(-9.487e-7, rel=1e-3)


def test_attempt_step_shares_the_input_state(rk4_three_eighths):
    # both candidates start from the same propagated state, the shared
    # leading stages are evaluated once, and each result is bit-identical
    # to a separate step of its method
    three_eighths = MethodPair(lower=kutta3(), higher=rk4_three_eighths)
    calls = []

    def f(x, y):
        calls.append(x)
        return np.array([-y[0] + x * y[1], y[0] * y[1]])

    w_in = np.array([0.37, -1.2])
    for pair, evals in ((PAIR, 5), (three_eighths, 6)):
        calls.clear()
        w_lo, w_hi, _ = attempt_step(pair, f, 1.0, w_in, 0.05)
        assert len(calls) == evals
        assert np.array_equal(w_lo, rk_step(pair.lower, f, 1.0, w_in, 0.05))
        assert np.array_equal(w_hi, rk_step(pair.higher, f, 1.0, w_in, 0.05))


@pytest.mark.parametrize("nans, method", [({3, 4}, "rk3"), ({4}, "rk4")],
                         ids=["both", "higher-only"])
def test_one_state_the_lower_method_fails_before_the_higher_one(nans, method):
    # one attempt evaluates all five stages of the pair's plan, rk3's three and
    # then rk4's third and fourth, and checks them once: with rk3's third and
    # rk4's third stage both NaN rk3's is named, alone rk4's
    calls = []

    def f(x, y):
        calls.append(x)
        return np.full_like(y, math.nan) if len(calls) in nans else -y

    message = f"{method}: stage 3 is not finite at x=0.5, h=0.125"
    with pytest.raises(NonFiniteStage, match=f"^{re.escape(message)}$"):
        attempt_step(PAIR, f, 0.5, np.array([1.0, -2.0]), 0.125)
    assert len(calls) == 5


_HUGE = lambda x, y: np.full_like(y, 1e308)


@pytest.mark.parametrize("call, expected", [
    (lambda: attempt_step(PAIR, _HUGE, 0.0, np.array([1e308]), 1.0),
     [[math.inf], [math.inf], [math.nan]]),
    (lambda: increment_function(PAIR.lower, _HUGE, 0.0, np.array([1e308]), 1.0), [1e308]),
    (lambda: rk_step(PAIR.lower, _HUGE, 0.0, np.array([1e308]), 1.0), [math.inf]),
], ids=["attempt_step", "increment_function", "rk_step"])
def test_the_one_step_functions_keep_numpy_floating_point_warnings_off(call, expected):
    # a stage argument and the step overflow, and the estimate is inf - inf: each
    # is returned, as integrate would refuse it, without numpy's overflow and
    # invalid-value warnings, which the suite turns into errors
    assert np.array_equal(np.array(call()), expected, equal_nan=True)


# --- config validation --------------------------------------------------------------

def test_config_invariants():
    with pytest.raises(ValueError):
        ControllerConfig(delta=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(sigma=1.5)
    with pytest.raises(ValueError):
        ControllerConfig(policy="pid")
    with pytest.raises(ValueError):
        ControllerConfig(max_steps=0)
    with pytest.raises(ValueError):
        ControllerConfig(h_init=-0.1)
    for bad in (math.nan, math.inf):
        for name in ("delta", "h_init"):
            with pytest.raises(ValueError):
                ControllerConfig(**{name: bad})
    # a bool is a numbers.Integral but not a step count
    for bad in (2.5, 3.0, math.inf, math.nan, "10", True):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            ControllerConfig(max_steps=bad)


# each public scalar setting, by (name in its message, a call that takes it)
_SCALAR_SETTINGS = {
    "ControllerConfig.delta": ("delta", lambda v: ControllerConfig(delta=v)),
    "ControllerConfig.sigma": ("sigma", lambda v: ControllerConfig(sigma=v)),
    "ControllerConfig.h_init": ("h_init", lambda v: ControllerConfig(h_init=v)),
    "IVProblem.x0": ("p: x0", lambda v: IVProblem("p", lambda x, y: -y, v, [1.0], 1.0)),
    "IVProblem.x_end": ("p: x_end", lambda v: IVProblem("p", lambda x, y: -y, 0.0, [1.0], v)),
    "propose_stepsize": ("beta_norm",
                         lambda v: propose_stepsize(v, ControllerConfig(), 3, 1e-12, 1.0)),
    "propose_stepsize.z": ("z", lambda v: propose_stepsize(1.0, ControllerConfig(), v, 1e-12, 1.0)),
    "propose_stepsize.h_min": ("h_min",
                               lambda v: propose_stepsize(1.0, ControllerConfig(), 3, v, 1.0)),
    "propose_stepsize.h_max": ("h_max",
                               lambda v: propose_stepsize(0.0, ControllerConfig(), 3, 1e-12, v)),
    "find_crossing": ("delta", lambda v: find_crossing(
        integrate(PAIR, builtin("decay"), flagship_config()).records, v)),
    "sigma_bound": ("sigma", lambda v: sigma_bound(v, 3, 1, 1e-8)),
    "sigma_bound.z": ("z", lambda v: sigma_bound(0.8, v, 1, 1e-8)),
    "sigma_bound.r": ("r", lambda v: sigma_bound(0.8, 3, v, 1e-8)),
    "condition_check.i": ("i", lambda v: condition_check(v, [1.0], BetaTracker(), 0.1, 3)),
    "condition_check.h": ("h", lambda v: condition_check(1, [1.0], BetaTracker(), v, 3)),
    "condition_check.z": ("z", lambda v: condition_check(1, [1.0], BetaTracker(), 0.1, v)),
    "estimate_beta.h": ("h", lambda v: estimate_beta([1.0], [0.0], v, 3)),
    "estimate_beta.z": ("z", lambda v: estimate_beta([1.0], [0.0], 0.5, v)),
    "empirical_order.h_set": ("h_set[3]", lambda v: empirical_order(
        kutta3(), builtin("decay"), "local", [0.1, 0.05, 0.025, v])),
    "reference_solution.x": ("x", lambda v: reference_solution(builtin("decay"), v)),
    "local_error_exact.x": ("x", lambda v: local_error_exact(kutta3(), builtin("decay"), v, 0.1)),
    "local_error_exact.h": ("stepsize",
                            lambda v: local_error_exact(kutta3(), builtin("decay"), 0.0, v)),
}


@pytest.mark.parametrize("setting, value", [
    (setting, value) for setting in _SCALAR_SETTINGS for value in ("1e-8", None, True, 1j)
    if (setting, value) != ("ControllerConfig.h_init", None)])  # None asks for the probe
def test_a_scalar_setting_that_is_not_a_real_number_is_refused_by_name(setting, value):
    # a str, None, a bool or a complex value is refused by name, not taken as a number
    name, call = _SCALAR_SETTINGS[setting]
    message = f"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def test_a_numpy_float_setting_is_a_real_number():
    v = np.float64
    cfg = ControllerConfig(delta=v(1e-8), sigma=v(0.8), h_init=v(0.01))
    assert cfg == ControllerConfig(delta=1e-8, sigma=0.8, h_init=0.01)
    p = IVProblem("p", lambda x, y: -y, v(0.0), [1.0], v(1.0))
    assert integrate(PAIR, p, cfg).summary.final_x == 1.0
    assert find_crossing(integrate(PAIR, builtin("decay"), cfg).records, v(1e-8)) is None
    assert sigma_bound(v(0.8), 3, 1, v(1e-8)) == sigma_bound(0.8, 3, 1, 1e-8)
    # and a numpy integer is an order or a count
    i = np.int64
    assert ControllerConfig(max_steps=i(10)) == ControllerConfig(max_steps=10)
    assert propose_stepsize(v(1.0), cfg, i(3), v(1e-12), v(1.0)) == propose_stepsize(
        1.0, cfg, 3, 1e-12, 1.0)
    assert sigma_bound(0.8, i(3), i(1), 1e-8) == sigma_bound(0.8, 3, 1, 1e-8)
    assert condition_check(i(2), [1.0], BetaTracker(1, 1.0), v(0.1), i(3)) == condition_check(
        2, [1.0], BetaTracker(1, 1.0), 0.1, 3)
    assert same_bits(estimate_beta([1.0], [0.0], v(0.5), i(3)),
                     estimate_beta([1.0], [0.0], 0.5, 3))
    decay, rk3 = builtin("decay"), kutta3()
    assert same_bits(reference_solution(decay, v(0.5)), reference_solution(decay, 0.5))
    assert same_bits(local_error_exact(rk3, decay, v(0.5), v(0.1)),
                     local_error_exact(rk3, decay, 0.5, 0.1))
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert empirical_order(rk3, decay, "local", list(map(v, hs))) == empirical_order(
        rk3, decay, "local", hs)


@pytest.mark.parametrize("call", [
    lambda v: sigma_bound(0.8, v, 1, 1e-8), lambda v: sigma_bound(0.8, 3, v, 1e-8),
    lambda v: condition_check(v, [1.0], BetaTracker(), 0.1, 3),
    lambda v: condition_check(1, [1.0], BetaTracker(), 0.1, v),
    lambda v: estimate_beta([1.0], [0.0], 0.5, v),
    lambda v: propose_stepsize(1.0, ControllerConfig(), v, 1e-12, 1.0),
], ids=["sigma_bound.z", "sigma_bound.r", "condition_check.i", "condition_check.z",
        "estimate_beta.z", "propose_stepsize.z"])
@pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, np.float64(3.0), math.inf, math.nan])
def test_an_order_or_count_must_be_an_integer_of_at_least_one(call, value):
    with pytest.raises(ValueError, match=r"^[a-z] must be an integer >= 1, got "):
        call(value)


# --- integrate: basic behavior ------------------------------------------------------

def test_integrate_zero_field():
    p = IVProblem(name="zero", f=lambda x, y: np.zeros_like(y), x0=0.0, y0=[3.5],
                  x_end=1.0, exact=lambda x: np.array([3.5]))
    trace = integrate(PAIR, p, flagship_config())
    s = trace.summary
    assert s.accepted >= 1 and s.rejected == 0
    assert s.final_x == 1.0
    assert s.crossing_index is None
    for rec in trace.records:
        assert inf_norm(rec.delta_lower) == 0.0
        assert inf_norm(rec.eps_lower) == 0.0
    assert float(trace.records[-1].w_higher[0]) == 3.5


def test_trace_abscissae_strictly_increasing_and_clamped_end():
    trace = integrate(PAIR, builtin("decay"), flagship_config())
    xs = [r.x for r in trace.records]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert xs[-1] == 10.0
    assert trace.records[-1].clamped


def test_higher_order_solution_is_propagated():
    # the state entering step i+1 is bit-identical to record i's w_higher
    p = builtin("riccati_simple")
    trace = integrate(PAIR, p, flagship_config())
    prev = trace.records[0]
    for rec in trace.records[1:51]:
        w_lo, w_hi, beta = attempt_step(PAIR, p.f, prev.x, prev.w_higher, rec.h)
        assert np.array_equal(w_lo, rec.w_lower)
        assert np.array_equal(w_hi, rec.w_higher)
        assert np.array_equal(beta, rec.beta_lower)
        prev = rec


def test_integrate_is_deterministic():
    a = integrate(PAIR, builtin("decay"), flagship_config())
    b = integrate(PAIR, builtin("decay"), flagship_config())
    assert a.summary == b.summary
    for ra, rb in zip(a.records, b.records):
        assert ra.x == rb.x and ra.h == rb.h
        assert np.array_equal(ra.w_higher, rb.w_higher)
        assert np.array_equal(ra.beta_lower, rb.beta_lower)


def test_local_control_soundness():
    # controller estimate below tolerance on every accepted step, and the
    # measured local error within 10% of it
    for name in ("decay", "riccati_simple", "paper_exponential"):
        trace = integrate(PAIR, builtin(name), flagship_config())
        for rec in trace.records:
            assert rec.cond_lhs < 1e-8
            assert inf_norm(rec.eps_lower) <= 1e-8 * 1.1


def test_no_oracle_problem_records_controller_fields_only():
    p = IVProblem(name="plain_decay", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=2.0)
    trace = integrate(PAIR, p, flagship_config())
    assert trace.summary.final_delta_lower is None
    assert trace.summary.crossing_index is None
    for rec in trace.records:
        assert rec.eps_lower is None and rec.delta_lower is None
        assert rec.alpha_term is None and rec.cond_rhs is None
        assert rec.cond_lhs >= 0.0
        assert rec.beta_lower is not None


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def _same_records(a, b) -> bool:
    return all(same_bits(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(StepRecord))


STATE_FIELDS = ("w_lower", "w_higher", "eps_lower", "beta_lower", "delta_lower",
                "delta_higher", "alpha_term")


def _one_state_only(f):
    # a right-hand side without the row flag is only ever given one state, also
    # by the oracle, which evaluates its pair over rows by giving f one row at a
    # time; given rows, it raises AssertionError
    def checked(x, y):
        assert isinstance(x, float) and y.ndim == 1, (x, y)
        return f(x, y)
    return checked


def _sine_across_zero():
    # x0 < 0 < x_end: the clamped last step's x + h misses x_end in the last
    # bit, and y = sin(x) ~ x there, so y(x + h) differs from y(x_end)
    return IVProblem(name="sine_across_zero",
                     f=_one_state_only(lambda x, y: np.full_like(y, math.cos(x))),
                     x0=-3.0, y0=[math.sin(-3.0)], x_end=1e-3,
                     exact=lambda x: np.array([math.sin(x)]))


def _sine_cosine_across_zero():
    # the d = 2 case of _sine_across_zero: y = (sin x, cos x), whose landing
    # step's x + h misses x_end as well
    return IVProblem(name="sine_cosine_across_zero",
                     f=_one_state_only(lambda x, y: np.array([math.cos(x), -math.sin(x)])),
                     x0=-3.0, y0=[math.sin(-3.0), math.cos(-3.0)], x_end=1e-3,
                     exact=lambda x: np.array([math.sin(x), math.cos(x)]))


def _oscillator():
    # y'' = -y as the system (y, y'), with y = cos x
    return IVProblem(name="oscillator", f=_one_state_only(lambda x, y: np.array([y[1], -y[0]])),
                     x0=0.0, y0=[1.0, 0.0], x_end=10.0,
                     exact=lambda x: np.array([math.cos(x), -math.sin(x)]))


def _linear_system(a, y0, x_end, exact=None):
    # y' = a y, row-capable: a sum over the columns of a in index order is
    # elementwise, so a row gives the bits of its state alone (a BLAS product
    # such as y @ a.T need not: gemm and gemv may round differently)
    cols = [a[:, j].copy() for j in range(a.shape[1])]

    def f(x, y):
        s = cols[0] * y[..., :1]
        for j in range(1, len(cols)):
            s = s + cols[j] * y[..., j:j + 1]
        return s
    return IVProblem(name="linear", f=f, x0=0.0, y0=y0, x_end=x_end, exact=exact,
                     rowwise=True)


def _assert_records_match_the_public_functions(p, trace, delta):
    # every field of every record equals what the public per-step functions give
    # from the previous record, bit for bit, and the summary follows the records
    x_prev, w_prev = p.x0, p.y0
    tracker = BetaTracker()
    bound = sigma_bound(0.8, PAIR.lower.z, PAIR.r, delta)
    for k, rec in enumerate(trace.records):
        h = rec.h
        assert rec.i == k + 1 and rec.bound == bound
        w_lo, w_hi, beta = attempt_step(PAIR, p.f, x_prev, w_prev, h)
        for name, v in (("w_lower", w_lo), ("w_higher", w_hi), ("beta_lower", beta)):
            assert _bits(getattr(rec, name)) == _bits(v), (rec.i, name)
        assert rec.cond_lhs == inf_norm(beta) * h ** (PAIR.lower.z + 1)
        assert _bits(rec.eps_lower) == _bits(local_error_exact(PAIR.lower, p, x_prev, h))
        y_prev = reference_solution(p, x_prev)
        alpha = alpha_propagation_term(PAIR.lower, p.f, x_prev, y_prev, w_prev, h)
        assert _bits(rec.alpha_term) == _bits(alpha)
        y = reference_solution(p, rec.x)
        assert _bits(rec.delta_lower) == _bits(rec.w_lower - y)
        assert _bits(rec.delta_higher) == _bits(rec.w_higher - y)
        tracker = mean_beta_higher(tracker, PAIR.higher, p, x_prev, h)
        cond = condition_check(rec.i, rec.beta_lower, tracker, h, PAIR.lower.z)
        assert rec.cond_rhs.hex() == cond.rhs.hex()
        assert rec.cond_holds is cond.holds
        x_prev, w_prev = rec.x, rec.w_higher
    s = trace.summary
    assert (s.crossing_index, s.crossing_x) == (find_crossing(trace.records, delta)
                                                or (None, None))
    assert s.condition_violation_index == next(
        (rec.i for rec in trace.records if rec.cond_holds is False), None)
    assert s.rejected == sum(rec.rejects for rec in trace.records)
    assert s.accepted == len(trace.records) and s.final_x == x_prev == p.x_end
    last = trace.records[-1].delta_lower
    assert s.final_delta_lower == (float(last[0]) if last.size == 1 else inf_norm(last))
    assert trace.records[-1].clamped


@pytest.mark.parametrize("policy", ["proportional", "reject-only"])
@pytest.mark.parametrize("name", problem_names() + ["sine_across_zero",
                                                     "sine_cosine_across_zero"])
def test_oracle_fields_match_the_public_reference_functions(name, policy):
    # integrate reuses the attempt's stages and the previous step's y(x), and
    # forms the oracle's fields over whole columns after the loop; every
    # field must still equal its public reference bit for bit
    misses = {"sine_across_zero": _sine_across_zero,
              "sine_cosine_across_zero": _sine_cosine_across_zero}
    p = misses[name]() if name in misses else builtin(name)
    trace = integrate(PAIR, p, flagship_config(policy=policy))
    _assert_records_match_the_public_functions(p, trace, 1e-8)
    landing = trace.records[-2].x + trace.records[-1].h
    assert (landing != p.x_end) == (name in misses)


@pytest.mark.parametrize("source", ["run", "file"])
def test_records_are_a_read_only_sequence_built_on_access(tmp_path, source):
    # a run's records and those read back from its CSV behave alike
    trace = integrate(PAIR, builtin("decay"), flagship_config())
    if source == "file":
        path = str(tmp_path / "trace.csv")
        write_trace_csv(trace, path)
        trace = dataclasses.replace(trace, records=read_trace_csv(path))
    recs = trace.records
    n = trace.summary.accepted
    assert len(recs) == n > 10
    listed = list(recs)
    assert [rec.i for rec in listed] == list(range(1, n + 1))
    for k in (0, 1, n // 2, n - 1):
        assert _same_records(recs[k], listed[k]) and _same_records(recs[k - n], listed[k])
    assert recs[-1].i == n and recs[-n].i == 1
    for k in (n, n + 1, -n - 1, -2 * n):
        with pytest.raises(IndexError):
            recs[k]
    part = recs[2:9:3]
    assert type(part) is tuple and [rec.i for rec in part] == [3, 6, 9]
    assert all(type(rec) is StepRecord and _same_records(rec, listed[rec.i - 1])
               for rec in part)
    assert recs[5:2] == () and len(recs[:]) == n
    assert recs[3] is not recs[3]  # built when accessed, not cached
    rec = recs[3]
    for name in STATE_FIELDS:
        with pytest.raises(ValueError):
            getattr(rec, name)[0] = 0.0
    copy = dataclasses.replace(trace, records=tuple(recs))
    assert isinstance(copy, Trace) and copy.summary is trace.summary
    assert all(_same_records(a, b) for a, b in zip(copy.records, listed))
    # every column is read-only, i and a run's stride-0 bound included, as is
    # every column of the same records gathered from a tuple
    for columns in (recs.columns, _Records.of(copy.records).columns):
        assert all(col is not None for col in columns.values())
        assert not any(col.flags.writeable for col in columns.values())
    assert (recs.columns["bound"].strides == (0,)) == (source == "run")


def test_two_component_system(tmp_path):
    # the columns of a d = 2 run are (n, 2) arrays; no field mixes components
    p = _oscillator()
    trace = integrate(PAIR, p, flagship_config())
    for rec in trace.records:
        assert all(getattr(rec, name).shape == (2,) for name in STATE_FIELDS)
    _assert_records_match_the_public_functions(p, trace, 1e-8)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    parsed = read_trace_csv(path)
    assert len(parsed) == len(trace.records)
    assert all(_same_records(a, b) for a, b in zip(parsed, trace.records))


def test_a_flagged_rhs_whose_rows_raise_ends_the_run_with_that_failure():
    # the oscillator's f asserts that it is given one state; with the row flag
    # set the oracle gives it rows, and the run ends with f's own failure.  The
    # controller gives f one state, so without the oracle the flag changes no
    # bit, and without the flag the oracle gives f its rows one at a time
    flagless = _oscillator()
    flagged = dataclasses.replace(flagless, rowwise=True)
    with pytest.raises(AssertionError):
        integrate(PAIR, flagged, flagship_config())
    a, b = (integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config())
            for p in (flagless, flagged))
    assert a.summary == b.summary and len(a.records) == len(b.records) > 100
    assert all(_same_records(r, q) for r, q in zip(a.records, b.records))
    measured = integrate(PAIR, flagless, flagship_config())
    assert [rec.x for rec in measured.records] == [rec.x for rec in a.records]
    assert all(rec.delta_lower is not None for rec in measured.records)


def test_a_flagged_rhs_whose_rows_have_another_shape_is_refused_by_name():
    # the oscillator's f without its check takes one state only: given the
    # oracle's (n, 2) rows it returns rows 1 and 0, a (2, 2) block, which the
    # stage loop refuses by its shape (numpy's broadcast error used to escape)
    p = dataclasses.replace(_oscillator(), f=lambda x, y: np.array([y[1], -y[0]]), rowwise=True)
    n = len(integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records)
    message = f"rk3: stage 1 is of shape (2, 2), not ({n}, 2), over rows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, flagship_config())


@pytest.mark.parametrize("problem", [builtin("decay"), _oscillator()], ids=["decay", "oscillator"])
def test_records_held_elsewhere_write_the_same_files(tmp_path, problem):
    # the writers gather a tuple of records, or the list read back from the CSV,
    # into the columns a run stores, and write them the same way
    trace = integrate(PAIR, problem, flagship_config())
    path, other = tmp_path / "run.csv", tmp_path / "other.csv"
    write_trace_csv(trace, str(path))
    for records in (tuple(trace.records), read_trace_csv(str(path))):
        copy = dataclasses.replace(trace, records=records)
        for writer in (write_trace_csv, figure1_export):
            writer(trace, str(path))
            writer(copy, str(other))
            assert other.read_bytes() == path.read_bytes()


def test_the_figure_of_a_two_component_run_is_its_row_norms(tmp_path):
    # a figure cell is the cell of the component of largest magnitude, unsigned;
    # the reference formats the max norm itself
    trace = integrate(PAIR, _oscillator(), flagship_config())
    cols = trace.records.columns
    assert set(np.abs(cols["eps_lower"]).argmax(axis=1).tolist()) == {0, 1}
    rows = zip(*(map(repr, c.tolist()) for c in (
        cols["x"], _row_norms(cols["eps_lower"]), _row_norms(cols["alpha_term"]))))
    path = tmp_path / "figure.csv"
    figure1_export(trace, str(path))
    assert path.read_bytes() == "".join(
        ",".join(row) + "\r\n" for row in [("x", "abs_eps_lower", "abs_alpha_term"), *rows]
    ).encode()


@pytest.mark.parametrize("problem", [
    builtin("decay"), dataclasses.replace(builtin("decay"), scalar=False), _oscillator(),
], ids=["float_lane", "flagless", "d2"])
def test_every_store_gives_a_column_one_dtype(tmp_path, problem):
    # a run's columns, the columns gathered from its records and those parsed
    # from its CSV have one dtype per field, read from StepRecord's annotations
    trace = integrate(PAIR, problem, flagship_config())
    path = tmp_path / "run.csv"
    write_trace_csv(trace, str(path))
    for other in (_Records.of(tuple(trace.records)), read_trace_csv(str(path))):
        for name, col in trace.records.columns.items():
            got = other.columns[name]
            assert got.dtype == col.dtype and got.shape == col.shape, name
            assert got.tobytes() == col.tobytes(), name


@pytest.mark.parametrize("scalar", [True, False], ids=["float_lane", "flagless"])
def test_numpy_floats_in_the_config_or_problem_give_the_same_run(scalar):
    # a delta from np.logspace or an x_end read from an array is a numpy float, so
    # the run's own comparisons give numpy bools; the run stores them as bools
    p = dataclasses.replace(builtin("decay"), scalar=scalar)
    want = integrate(PAIR, p, flagship_config(h_init=0.01))
    assert want.records.columns["clamped"].any()
    f64 = np.float64
    for q, cfg in [(p, flagship_config(delta=f64(1e-8), h_init=0.01)),
                   (p, flagship_config(h_init=f64(0.01))),
                   (dataclasses.replace(p, x0=f64(p.x0), x_end=f64(p.x_end)),
                    flagship_config(h_init=0.01))]:
        got = integrate(PAIR, q, cfg)
        assert got.summary == want.summary
        for name, col in want.records.columns.items():
            other = got.records.columns[name]
            assert other.dtype == col.dtype and other.tobytes() == col.tobytes(), name


def _paper_exponential_d2():
    # paper_exponential with a second component that stays 0, so it runs the array lane
    p = builtin("paper_exponential")
    return dataclasses.replace(p, y0=[1.0, 0.0], scalar=False,
                               exact=lambda x: np.append(p.exact(x), 0.0))


@pytest.mark.parametrize("oracle, p", [
    (True, builtin("paper_exponential")), (False, builtin("paper_exponential")),
    (True, dataclasses.replace(builtin("paper_exponential"), scalar=False)),
    (False, dataclasses.replace(builtin("paper_exponential"), scalar=False)),
    (True, _paper_exponential_d2()), (False, _paper_exponential_d2()),
    (True, dataclasses.replace(builtin("paper_exponential"), scalar=False, rowwise=False)),
    (True, dataclasses.replace(_paper_exponential_d2(), rowwise=False)),
], ids=["oracle", "no_oracle", "flagless_oracle", "flagless_no_oracle",
        "array_oracle", "array_no_oracle", "one_state_oracle", "array_one_state_oracle"])
def test_a_run_retains_at_most_a_quarter_kilobyte_per_accepted_step(oracle, p):
    # the run collects one typed array per column and makes its columns once,
    # after the loop: about 0.11 KB per step retained with the oracle and 0.07 KB
    # without at d = 1, where one StepRecord of seven arrays per step took 1.16 KB
    # and 0.67 KB, and 0.17 KB and 0.09 KB in the array lane at d = 2.  The peak
    # bounds what the loop holds on the way: a list of row tuples, or of (d,)
    # arrays, converted after the loop would exceed it.  The oracle's rows hold
    # every step's stages at once, so its peak grows with d (0.32 KB at d = 2).
    # An f that takes one state at a time has its values stored straight into
    # each row of the stage's slot, so its oracle peaks about as a rowwise f's does
    if not oracle:
        p = dataclasses.replace(p, exact=None)
    integrate(PAIR, p, flagship_config())  # caches filled on first use are not the run's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = integrate(PAIR, p, flagship_config(delta=1e-12))
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    n = trace.summary.accepted
    assert n > 10000
    assert retained / n <= 256
    assert peak / n <= 256 * p.y0.size


@pytest.mark.parametrize("problem", [builtin("paper_exponential"), _sine_across_zero()])
def test_oracle_evaluation_counts(problem):
    # an accepted step costs 5 evaluations for the attempt and 5 for the
    # oracle, and one lookup of y(x_next); the start and a landing step
    # whose x + h misses x_end add one lookup each.  An evaluation is a state
    # given to f: a row-capable problem gets all the oracle's rows of a stage
    # in one call, 5 calls in all, and any other one call per row
    calls = {"f": 0, "rows": 0, "exact": 0}

    def f(x, y):
        calls["f"] += 1
        calls["rows"] += np.size(x)
        return problem.f(x, y)

    def exact(x):
        calls["exact"] += 1
        return problem.exact(x)

    def oracle_calls(n):
        return 5 if problem.rowwise else 5 * n

    for oracle in (True, False):
        p = dataclasses.replace(problem, f=f, exact=exact if oracle else None)
        calls.update(f=0, rows=0, exact=0)
        trace = integrate(PAIR, p, flagship_config())
        s, last = trace.summary, trace.records[-1]
        attempts = 1 + s.accepted + s.rejected  # the probe, then every trial
        assert calls["rows"] == 5 * attempts + (5 * s.accepted if oracle else 0)
        assert calls["f"] == 5 * attempts + (oracle_calls(s.accepted) if oracle else 0)
        missed = trace.records[-2].x + last.h != last.x
        assert calls["exact"] == (s.accepted + 1 + missed if oracle else 0)
    # a run stopped by the step cap is not measured: with the oracle it makes no
    # lookup, and the same calls of f with the same states as without it
    stopped = []
    for oracle in (True, False):
        p = dataclasses.replace(problem, f=f, exact=exact if oracle else None)
        calls.update(f=0, rows=0, exact=0)
        with pytest.raises(MaxStepsExceeded):
            integrate(PAIR, p, flagship_config(max_steps=7))
        stopped.append(dict(calls))
    assert stopped[0] == stopped[1] and stopped[0]["exact"] == 0


@pytest.mark.parametrize("name", problem_names() + ["linear"])
def test_pair_over_rows_is_bit_identical_to_each_row_alone(name):
    # the pair evaluated over the rows of a delta = 1e-12 run gives each row
    # the bits of the array lane from that row's state alone, for both
    # methods; the layout of the weighted sums decides this.  The rows are the
    # oracle's, from the exact states, or the run's own states for the
    # 2-component system
    if name == "linear":
        p = _linear_system(np.array([[-0.3, 1.1], [-0.9, 0.2]]), [1.0, -0.5], 10.0)
    else:
        p = builtin(name)
    trace = integrate(PAIR, p, flagship_config(delta=1e-12))
    xs = np.array([p.x0] + [rec.x for rec in trace.records[:-1]])
    hs = np.array([rec.h for rec in trace.records])
    if p.exact is None:
        ys = np.array([p.y0] + [rec.w_higher for rec in trace.records[:-1]])
    else:
        ys = np.array([reference_solution(p, x) for x in xs.tolist()])
    assert p.rowwise and len(hs) > 1000
    assert name != "paper_exponential" or len(hs) > 10000
    lower, higher = rk_core._array_lane(PAIR, p.f, ys.shape)(xs, ys, hs)
    one = rk_core._array_lane(PAIR, p.f, p.y0.shape)
    # and the float lane's, from the state as a Python float, with f handed
    # floats as flagged and (1,) vectors as not
    lanes = [lane(p.f) for lane in PAIR.float_lane] if p.y0.size == 1 else []
    for k, (x, y, h) in enumerate(zip(xs.tolist(), ys, hs.tolist())):
        lo, hi = one(x, y, h)
        assert lower[k].tobytes() == lo.tobytes() and higher[k].tobytes() == hi.tobytes(), k
        for increments in lanes:
            lo, hi = increments(x, y.item(), h)
            assert type(lo) is float and np.array([lo, hi]).tobytes() == np.concatenate(
                (lower[k], higher[k])).tobytes(), k


_UNIT = st.floats(min_value=-1.0, max_value=1.0)


# few draws, each a run of about 10 to 100 steps, to keep the suite fast
@settings(max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.integers(1, 4), log_delta=st.floats(-8.0, -5.0),
       policy=st.sampled_from(POLICIES))
def test_linear_systems_keep_the_records_and_close_the_recursion(tmp_path, data, d, log_delta,
                                                                   policy):
    # y' = a y with a = v diag(lam) v^-1, real lam and v within 1/2 of the
    # identity, whose exact solution is v exp(lam x) v^-1 y0
    lam = np.array(data.draw(st.lists(st.floats(-2.0, 1.0), min_size=d, max_size=d)))
    v = np.eye(d) + np.array(data.draw(st.lists(_UNIT, min_size=d * d, max_size=d * d))
                             ).reshape(d, d) * (0.5 / d)
    y0 = 2.0 * np.array(data.draw(st.lists(_UNIT, min_size=d, max_size=d)))
    coef = np.linalg.solve(v, y0)
    p = _linear_system((v * lam) @ np.linalg.inv(v), y0, 1.0,
                       exact=lambda x: v @ (np.exp(lam * x) * coef))
    delta = 10.0 ** log_delta
    trace = integrate(PAIR, p, flagship_config(delta=delta, policy=policy))
    _assert_records_match_the_public_functions(p, trace, delta)
    # the same f without the row flag is given one state at a time, by the
    # oracle too, and the run keeps every bit
    flagless = dataclasses.replace(p, f=_one_state_only(p.f), rowwise=False)
    one_by_one = integrate(PAIR, flagless, flagship_config(delta=delta, policy=policy))
    assert one_by_one.summary == trace.summary
    assert all(_same_records(a, b) for a, b in zip(one_by_one.records, trace.records))
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    parsed = read_trace_csv(path)
    assert len(parsed) == len(trace.records)
    assert all(_same_records(a, b) for a, b in zip(parsed, trace.records))
    # delta_lower = eps_lower + alpha_term exactly in real arithmetic; in floats
    # the state-sized sums w + h F(w) and y + h F(y) round by half an ulp each,
    # the second possibly in the binade above |w_lower|, and the products h F
    # by less: 1.20 ulps at most over 1500 wider draws
    for rec in trace.records:
        gap = np.abs(rec.delta_lower - (rec.eps_lower + rec.alpha_term)).max()
        assert gap <= 2.0 * np.spacing(inf_norm(rec.w_lower)), rec.i


def test_h_init_override_is_used():
    trace = integrate(PAIR, builtin("decay"), flagship_config(h_init=0.01))
    assert trace.records[0].h == 0.01
    # decay's limits are [1e-11, 1], both ends included
    for h_init in (1e-11, 1.0):
        with pytest.raises(MaxStepsExceeded):
            integrate(PAIR, builtin("decay"), flagship_config(h_init=h_init, max_steps=1))
    for h_init in (1.5, 1e-12, math.nextafter(1e-11, 0.0), math.nextafter(1.0, 2.0)):
        with pytest.raises(StepsizeOutOfRange):
            integrate(PAIR, builtin("decay"), flagship_config(h_init=h_init))


def test_reject_only_policy_keeps_stepsize():
    trace = integrate(PAIR, builtin("paper_exponential"),
                      flagship_config(policy="reject-only"))
    hs = [r.h for r in trace.records]
    # stepsize only changes at rejections (or the final clamp)
    changes = sum(1 for a, b in zip(hs, hs[1:]) if b != a)
    assert changes <= trace.summary.rejected + 1
    assert trace.summary.rejected > 0


def test_reject_only_run_needing_just_under_the_cap_completes():
    # decay's span 10 at h_init = 0.01 takes no rejection but 1001 steps (x + h
    # rounds), so the early refusal at span > 2 * max_steps * h_init must not
    # touch a cap of 1001; a cap of 1000 stops in the loop, one of 499 at once
    cfg = flagship_config(policy="reject-only", h_init=0.01)
    s = integrate(PAIR, builtin("decay"), dataclasses.replace(cfg, max_steps=1001)).summary
    assert (s.accepted, s.rejected, s.final_x) == (1001, 0, 10.0)
    with pytest.raises(MaxStepsExceeded, match="1000 accepted steps"):
        integrate(PAIR, builtin("decay"), dataclasses.replace(cfg, max_steps=1000))
    with pytest.raises(MaxStepsExceeded, match="reject-only at h_init=0.01"):
        integrate(PAIR, builtin("decay"), dataclasses.replace(cfg, max_steps=499))


# --- integrate: flagship regression anchors ------------------------------------------

def _assert_anchor(policy):
    # frozen values from this implementation's deterministic run
    s = integrate(PAIR, builtin("paper_exponential"), flagship_config(policy=policy)).summary
    for name, value in FLAGSHIP[policy].items():
        assert same_bits(getattr(s, name), value), name


def test_flagship_run_regression_anchor():
    _assert_anchor("proportional")


def test_flagship_reject_only_regression_anchor():
    _assert_anchor("reject-only")


def test_stepsize_growth_is_capped():
    # the probe lands on h_min = 1e-7, where the estimate is exactly 0; without
    # the cap the next step jumps to h_max = 1e4 and its rejection asks for a
    # stepsize below h_min
    trace = integrate(PAIR, builtin("riccati_simple").with_x_end(1e5), flagship_config())
    assert trace.summary.final_x == 1e5
    steps = [(a.h, b.h) for a, b in zip(trace.records, trace.records[1:]) if not b.clamped]
    assert all(b <= controller.MAX_GROWTH * a for a, b in steps)
    assert any(b == controller.MAX_GROWTH * a for a, b in steps)


def test_tolerance_monotonicity():
    base = integrate(PAIR, builtin("paper_exponential"), flagship_config()).summary
    halved = integrate(PAIR, builtin("paper_exponential"),
                       flagship_config(delta=0.5e-8)).summary
    assert halved.accepted >= base.accepted


def test_crossing_happens_before_the_end_for_any_tolerance():
    for delta in (1e-6, 1e-8, 1e-10):
        s = integrate(PAIR, builtin("paper_exponential"),
                      flagship_config(delta=delta)).summary
        assert s.crossing_index is not None
        assert s.crossing_x < 100.0


def test_bound_respected_while_condition_holds_on_contracting_problems():
    # where the propagation factor stays at or below one, the global error
    # honors the safety-factor bound (with the stated 25% slack) for as long
    # as the accumulation condition holds
    bound = sigma_bound(0.8, 3, 1, 1e-8)
    for name in ("decay", "riccati_simple"):
        trace = integrate(PAIR, builtin(name), flagship_config())
        viol = trace.summary.condition_violation_index
        for rec in trace.records:
            if viol is not None and rec.i >= viol:
                break
            assert inf_norm(rec.delta_lower) <= 1.25 * bound


# --- integrate: failure modes ----------------------------------------------------------

def test_oracle_failure_is_raised_at_its_own_step():
    # h**5 underflows at every step in the oracle of the finished 10-step run,
    # and the oracle's mean loop raises at the first step, naming its h; a cap
    # of one step ends the run first, with or without the oracle
    p = builtin("decay").with_x_end(1e-68)
    h = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records[0].h
    message = f"h**5 underflowed for h={h}"
    with pytest.raises(StepUnderflow, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, flagship_config())
    for q in (p, dataclasses.replace(p, exact=None)):
        with pytest.raises(MaxStepsExceeded, match="1 accepted steps"):
            integrate(PAIR, q, flagship_config(max_steps=1))


def test_a_step_cap_ends_a_run_before_its_oracle_fails():
    # y is right at x0 but NaN beyond x = 0.2, so the oracle of the finished
    # run refuses the first exact state past 0.2, before it evaluates the pair
    # from it (which used to name a non-finite stage 1 instead); a cap reached
    # before the end stops the run with no state looked up
    decay, lookups = builtin("decay"), []

    def exact(x):
        lookups.append(x)
        return decay.exact(x) if x <= 0.2 else np.array([math.nan])
    p = dataclasses.replace(decay, exact=exact)
    records = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records
    j = next(k for k, rec in enumerate(records) if rec.x > 0.2)
    assert j + 1 < 20 < len(records)
    lookups.clear()
    with pytest.raises(MaxStepsExceeded, match="decay: 20 accepted steps before reaching x_end"):
        integrate(PAIR, p, flagship_config(max_steps=20))
    assert lookups == []
    message = f"decay: exact solution at x={records[j].x} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, flagship_config())


@pytest.mark.parametrize("value, where", [(math.nan, "end"), (math.inf, "end"),
                                          (-math.inf, "end"), (math.nan, "interior"),
                                          (math.nan, "landing"), (None, "one-value")],
                         ids=["nan-end", "inf-end", "-inf-end", "nan-interior", "nan-landing",
                              "one-value"])
def test_a_non_finite_exact_solution_is_refused_where_the_oracle_takes_it_in(value, where):
    # an exact solution that is NaN or infinite at one x the oracle looks up is
    # refused before the pair is evaluated, naming that x.  At x_end a NaN used
    # to end the run as a success with final_delta_lower nan and an inf with a
    # crossing at the last step; in the interior the pair from it named a
    # non-finite stage.  The landing step's y(x + h) is looked up too where
    # x + h misses x_end.  An exact solution of one value, [cos x], for the
    # two-component oscillator past x0 is refused by its shape; it used to fill
    # both components and the run to end as a success, crossing at step 1
    base = {"landing": _sine_across_zero(), "one-value": _oscillator()}.get(where, builtin("decay"))
    records = integrate(PAIR, dataclasses.replace(base, exact=None), flagship_config()).records
    x_bad = {"end": base.x_end, "interior": records[5].x,
             "landing": records[-2].x + records[-1].h, "one-value": records[0].x}[where]
    assert x_bad != base.x_end or where == "end"
    if value is None:
        p = dataclasses.replace(base, exact=lambda x: base.exact(x)[:1] if x > base.x0
                                else base.exact(x))
        message = f"{base.name}: exact solution at x={x_bad} has shape (1,), y0 has shape (2,)"
    else:
        p = dataclasses.replace(
            base, exact=lambda x: np.array([value]) if x == x_bad else base.exact(x))
        message = f"{base.name}: exact solution at x={x_bad} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, flagship_config())


@pytest.mark.parametrize("later", ["overflow", "shape"])
def test_a_non_finite_exact_state_fails_before_a_later_lookup(later):
    # the lookups test finiteness after the loop, or over the rows before a
    # lookup that fails; a NaN at the end of step j is still raised as its own
    # failure when the lookup at the end of step j + 3 raises OverflowError or
    # returns the wrong shape
    decay = builtin("decay")
    records = integrate(PAIR, dataclasses.replace(decay, exact=None), flagship_config()).records
    x_nan, x_bad = records[5].x, records[8].x

    def exact(x, nan=True):
        if x == x_bad:
            if later == "overflow":
                raise OverflowError("math range error")
            return np.array([1.0, 2.0])
        return np.array([math.nan]) if nan and x == x_nan else decay.exact(x)
    later_failure = {
        "overflow": (OverflowError, f"decay: exact solution overflows at x={x_bad}"),
        "shape": (ValueError, f"decay: exact solution at x={x_bad} has shape (2,), "
                              "y0 has shape (1,)")}[later]
    # without the NaN the later lookup fails; with it the NaN fails first
    for nan, (error, message) in [(False, later_failure),
                                  (True, (ValueError, f"decay: exact solution at x={x_nan} "
                                                      "is not finite"))]:
        p = dataclasses.replace(decay, exact=lambda x: exact(x, nan))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            integrate(PAIR, p, flagship_config())


def _decay_failing_at(nan_at, raise_at, shapes):
    # decay, row-capable, except that f is NaN at the exact states y(x) of the
    # abscissae in nan_at, which only the oracle's pair visits (the run's own
    # state there is off by its global error), and that looking up y(raise_at)
    # raises; every x that f is given has its ndim put in shapes
    decay = builtin("decay")
    bad = [(x_k, decay.exact(x_k)) for x_k in nan_at]

    def f(x, y):
        shapes.add(np.ndim(x))
        x = np.asarray(x)[..., None]
        return np.where(np.any([(x == x_k) & (y == y_k) for x_k, y_k in bad], axis=0),
                        math.nan, -y)

    def exact(x):
        if x == raise_at:
            raise ValueError(f"no exact state at x={x}")
        return decay.exact(x)
    return dataclasses.replace(decay, f=f, exact=exact)


@pytest.mark.parametrize("first, rowwise", [("stage", True), ("lookup", True),
                                            ("stage", False), ("lookup", False)],
                         ids=["stage", "lookup", "stage-flagless", "lookup-flagless"])
def test_oracle_over_rows_raises_the_earliest_failing_step(first, rowwise):
    # the oracle looks up every state before it evaluates the pair, so a lookup
    # failing on step j + 3 (first == "stage") or on step j is raised before
    # any stage from an exact state, the non-finite ones of steps j and j + 6 or
    # of steps j + 3 and j + 6 included.  With every lookup passing, the
    # earliest failing step's own stage is raised, with or without the row
    # flag; without it f is given its rows one at a time and sees no rows
    records = integrate(PAIR, dataclasses.replace(builtin("decay"), exact=None),
                        flagship_config()).records
    j = 20
    start = [builtin("decay").x0] + [rec.x for rec in records[:-1]]  # of each step
    nan_steps, lookup_step = ((j, j + 6), j + 3) if first == "stage" else ((j + 3, j + 6), j)
    nan_at, shapes = [start[k] for k in nan_steps], set()
    p = dataclasses.replace(_decay_failing_at(nan_at, records[lookup_step].x, shapes),
                            rowwise=rowwise)
    # without the oracle the run takes decay's steps: f is NaN at no state of its own
    alone = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records
    assert [rec.x for rec in alone] == [rec.x for rec in records]
    shapes.clear()
    with pytest.raises(ValueError, match=re.escape(f"no exact state at x={records[lookup_step].x}")):
        integrate(PAIR, p, flagship_config())
    assert shapes == {0}  # the controller's states only
    p = dataclasses.replace(_decay_failing_at(nan_at, None, shapes), rowwise=rowwise)
    k = nan_steps[0]
    with pytest.raises(NonFiniteStage, match=re.escape(f"rk3: stage 1 is not finite at "
                                                       f"x={start[k]}, h={records[k].h}")):
        integrate(PAIR, p, flagship_config())
    # the controller gave f one state, the oracle rows if it may
    assert shapes == ({0, 1} if rowwise else {0})


_NAN_CASES = {"lower-later": ({3: 6, 4: 0}, "rk3", 3, 6), "higher-only": ({4: 0}, "rk4", 3, 0),
              "earliest-row": ({1: 6, 3: 0}, "rk3", 3, 0)}


@pytest.mark.parametrize("nans, method, stage, step, rowwise",
                         [(*case, rowwise) for rowwise in (True, False)
                          for case in _NAN_CASES.values()],
                         ids=[*_NAN_CASES, *(f"{name}-flagless" for name in _NAN_CASES)])
def test_over_rows_the_lower_method_fails_before_the_higher_one(nans, method, stage, step,
                                                                rowwise):
    # the oracle evaluates the pair's plan over the rows of every step, stage by
    # stage: rk3's three, then rk4's third and fourth, and checks the stages
    # once, after all five.  nans maps a stage, counted in that order, to the
    # step (counted from j) whose argument (x, y) of that stage f makes NaN.  A
    # NaN in rk3's third stage on step j + 6 is raised before one in rk4's
    # third stage on step j, which one step at a time would come first; alone,
    # rk4's is raised.  Within a method the earliest step is named, with its
    # own first bad stage: step j's third, not step j + 6's first.  Without the
    # row flag f is given the same rows one at a time, and the same is raised
    decay = builtin("decay")
    records = integrate(PAIR, dataclasses.replace(decay, exact=None), flagship_config()).records
    j, rows = 20, []

    def listed(x, y):
        if np.ndim(x) == 1:  # the oracle's rows
            rows.append((x.tolist(), y.copy()))
        return -y
    integrate(PAIR, dataclasses.replace(decay, f=listed), flagship_config())
    assert [len(x) for x, _ in rows] == [len(records)] * 5
    bad = {(rows[p - 1][0][j + k], rows[p - 1][1][j + k].tobytes()) for p, k in nans.items()}
    hits, ndims = [], set()

    def f(x, y):
        ndims.add(np.ndim(x))
        out = -y
        for i, (x_i, y_i) in enumerate(zip(np.atleast_1d(x).tolist(), np.atleast_2d(y))):
            if (x_i, y_i.tobytes()) in bad:
                hits.append((x_i, y_i.tobytes()))
                out.reshape(-1, y.shape[-1])[i] = math.nan
        return out
    x, h = records[j + step - 1].x, records[j + step].h  # a step starts where the last ended
    message = f"{method}: stage {stage} is not finite at x={x}, h={h}"
    with pytest.raises(NonFiniteStage, match=f"^{re.escape(message)}$"):
        integrate(PAIR, dataclasses.replace(decay, f=f, rowwise=rowwise), flagship_config())
    # each NaN lands once, on the oracle's stage it was meant for, and on no
    # state of the controller's own
    assert sorted(hits) == sorted(bad) and len(bad) == len(nans)
    assert ndims == ({0, 1} if rowwise else {0})


def _rough():
    # y' = (1 + y)(1 + x**0.1): the derivative is unbounded at x0, so the one-step
    # error shrinks much slower than the proposal assumes and the first step
    # keeps rejecting
    return IVProblem(name="rough", x0=0.0, y0=[0.0], x_end=10.0, rowwise=True,
                     f=lambda x, y: (1.0 + y) * (1.0 + np.asarray(x)[..., None] ** 0.1),
                     exact=lambda x: np.array([math.expm1(x + x ** 1.1 / 1.1)]))


def _overflowing():
    # the stages stay finite, but y + h * increment overflows
    return IVProblem(name="overflow", f=lambda x, y: np.full_like(y, 1e308), x0=0.0,
                     y0=[1e308], x_end=10.0, rowwise=True,
                     exact=lambda x: np.array([1e308 * (1.0 + x)]))


# each of the loop's failures: the problem, the run's settings, and the exception
# with its message
_FAILED_RUNS = {
    "cap": (builtin("decay"), flagship_config(max_steps=7), MaxStepsExceeded,
            "decay: 7 accepted steps before reaching x_end"),
    "underflow": (builtin("decay"), ControllerConfig(delta=1e-60, sigma=0.8, h_init=0.5),
                  StepsizeUnderflow, "decay: required stepsize at or below h_min=1e-11 at x=0.0"),
    "rejects": (_rough(), ControllerConfig(delta=1e-12, sigma=0.8, h_init=1.0),
                MaxRejectsExceeded, "rough: 4 consecutive rejections at x=0.0"),
    "nonfinite_state": (_overflowing(), ControllerConfig(h_init=1.0), NonFiniteState,
                        "overflow: state not finite after step at x=0.0"),
    "interrupt": (builtin("decay"), flagship_config(), KeyboardInterrupt, ""),
}


@pytest.mark.parametrize("case", _FAILED_RUNS)
def test_a_failed_run_raises_its_own_failure_and_measures_nothing(case, monkeypatch):
    # the loop's failure ends the run at once: no exact state is looked up and
    # the oracle gives f no rows, though every problem here may take them
    base, cfg, error, message = _FAILED_RUNS[case]
    calls, shapes = {"f": 0, "exact": 0}, set()

    def f(x, y):
        calls["f"] += 1
        shapes.add(np.ndim(x))
        if case == "interrupt" and calls["f"] == 40:  # the eighth attempt, after the probe
            raise KeyboardInterrupt
        return base.f(x, y)

    def exact(x):
        calls["exact"] += 1
        return base.exact(x)

    p = dataclasses.replace(base, f=f, exact=exact)
    assert p.rowwise
    calls.update(f=0, exact=0)  # the build looked up exact(x0)
    if case == "rejects":
        monkeypatch.setattr(controller, "MAX_REJECTS", 3)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, cfg)
    assert calls["exact"] == 0 and shapes == {0}


@pytest.mark.parametrize("h_init, h", [(None, 0.01), (0.0625, 0.0625)], ids=["probe", "attempt"])
def test_a_rhs_turning_complex_mid_run_is_refused(h_init, h):
    # the stage loop refuses a complex stage before storing it, however
    # warnings are filtered, names the first complex stage, rk3's second (at
    # x + h / 2), and leaves the filters as they were; the imaginary parts used
    # to be dropped and the run to end normally after 51 steps.  f is real at
    # (x0, y0), where the first stage is, and complex at every other x
    p = IVProblem("c", lambda x, y: -y if x == 0.0 else -y + 1j * y, 0.0, [1.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        filters = list(warnings.filters)
        message = f"rk3: stage 2 is complex at x=0.0, h={h}"
        with pytest.raises(ComplexStage, match=f"^{re.escape(message)}$"):
            integrate(PAIR, p, ControllerConfig(h_init=h_init))
        assert warnings.filters == filters


# each way a value of f fails where its stage is stored or checked: what f
# gives, and the exception with its message after "rk3: stage 2 "
_STAGE_FAULTS = {
    "complex": (lambda y: 1j * y, ComplexStage, "is complex"),
    "one-value": (lambda y: y[1], ValueError, "is of shape (), not (2,),"),
    "three-values": (lambda y: np.array([1.0, 2.0, 3.0]), ValueError,
                     "is of shape (3,), not (2,),"),
    "nan": (lambda y: y * math.nan, NonFiniteStage, "is not finite"),
}
# each public function that evaluates stages, given the problem whose f it evaluates
_STAGE_ENTRY_POINTS = {
    "increment_function": lambda p: increment_function(kutta3(), p.f, 0.0, p.y0, 0.1),
    "rk_step": lambda p: rk_step(kutta3(), p.f, 0.0, p.y0, 0.1),
    "attempt_step": lambda p: attempt_step(PAIR, p.f, 0.0, p.y0, 0.1),
    "local_error_exact": lambda p: local_error_exact(kutta3(), p, 0.0, 0.1),
    "empirical_order": lambda p: empirical_order(kutta3(), p, "local",
                                                 [0.1, 0.05, 0.025, 0.0125]),
    "integrate": lambda p: integrate(PAIR, p, ControllerConfig(h_init=0.1)),
}


@pytest.mark.parametrize("fault", _STAGE_FAULTS)
@pytest.mark.parametrize("entry", _STAGE_ENTRY_POINTS)
def test_every_entry_point_refuses_a_stage_by_its_fault(entry, fault):
    # f is the oscillator's at x0, where the first stage is, and faulty at every
    # other x, so rk3's second stage is named, also where later stages fail
    # too.  Outside a run a complex value's imaginary parts used to be dropped
    # with a warning (empirical_order gave 3.99); one value used to fill both
    # components (rk_step gave [1.1, 2.1] for an f of 1.0 from [1.0, 2.0], and
    # integrate accepted 21 steps), and three failed inside numpy.  The refusal
    # is the same however warnings are filtered, and leaves the filters as
    # they were
    value, error, what = _STAGE_FAULTS[fault]
    osc = _oscillator()
    p = dataclasses.replace(osc, f=lambda x, y: osc.f(x, y) if x == 0.0 else value(y))
    message = f"rk3: stage 2 {what} at x=0.0, h=0.1"
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            filters = list(warnings.filters)
            with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
                _STAGE_ENTRY_POINTS[entry](p)
            assert warnings.filters == filters and type(caught.value) is error


def _lane_rhs(at, value):
    """``-y``, except that the calls numbered in ``at`` (from 1) return ``value(y)``;
    ``y`` is a Python float if the problem is flagged ``scalar`` and a ``(1,)``
    vector otherwise."""
    calls = []

    def f(x, y):
        calls.append(x)
        return value(y) if len(calls) in at else -y
    return f


# one case per way a stage or the state fails: the calls of f that misbehave
# (the probe's five stages are calls 1 to 5: rk3's three, then rk4's third and
# fourth), what they return, y0, x_end, h_init, and the exception with its
# message, which is the same in both lanes
_PROBE = "at x=0.0, h=0.01"
_NOT_REAL = "not real numbers in the float range"
_LANE_CASES = {
    "nan-lower": ({3, 4}, lambda y: y * math.nan, 1.0, 1.0, None, NonFiniteStage,
                  f"rk3: stage 3 is not finite {_PROBE}"),
    "nan-higher": ({4}, lambda y: y * math.nan, 1.0, 1.0, None, NonFiniteStage,
                   f"rk4: stage 3 is not finite {_PROBE}"),
    "python-complex": ({2}, lambda y: complex(0.0, 0.5), 1.0, 1.0, None, ComplexStage,
                       f"rk3: stage 2 is complex {_PROBE}"),
    "numpy-complex": ({2}, lambda y: np.complex128(0.5j), 1.0, 1.0, None, ComplexStage,
                      f"rk3: stage 2 is complex {_PROBE}"),
    "another-size": ({2}, lambda y: np.array([1.0, 2.0]), 1.0, 1.0, None, ValueError,
                     f"rk3: stage 2 is of shape (2,), not (1,), {_PROBE}"),
    "stage-overflow": ({1}, lambda y: -y * y, 1e200, 1.0, None, NonFiniteStage,
                       f"rk3: stage 1 is not finite {_PROBE}"),
    "inf-at-h-init": ({2}, lambda y: y * math.inf, 1.0, 1.0, 0.09, NonFiniteStage,
                      "rk3: stage 2 is not finite at x=0.0, h=0.09"),
    "state-overflow": (range(1, 6), lambda y: 1e308, 1e308, 10.0, 1.0, NonFiniteState,
                       "lane: state not finite after step at x=0.0"),
    "dict": ({2}, lambda y: {}, 1.0, 1.0, None, ValueError,
             f"rk3: stage 2 is of type dict, {_NOT_REAL}, {_PROBE}"),
    "str": ({2}, lambda y: "1.0", 1.0, 1.0, None, ValueError,
            f"rk3: stage 2 is of type str, {_NOT_REAL}, {_PROBE}"),
    "none": ({2}, lambda y: None, 1.0, 1.0, None, ValueError,
             f"rk3: stage 2 is of type NoneType, {_NOT_REAL}, {_PROBE}"),
    "huge-int": ({2}, lambda y: 10 ** 400, 1.0, 1.0, None, ValueError,
                 f"rk3: stage 2 is of type int, {_NOT_REAL}, {_PROBE}"),
}


@pytest.mark.parametrize("lane", ["float-lane", "flagless", "array-lane"])
@pytest.mark.parametrize("case", _LANE_CASES)
def test_both_lanes_refuse_a_stage_or_state_alike(case, lane):
    # the same one-component problem run with and without the scalar flag, both
    # in the float lane, and its first attempt (the probe's, if there is one)
    # by attempt_step, in the array lane: all raise the same class with the
    # same message, except that attempt_step returns the state that integrate
    # refuses.  A dict used to fail with numpy's bare TypeError, a str as "of
    # shape ()" or as a parsed number, None as "not finite", and 10**400 with
    # "int too large to convert to float"
    at, value, y0, x_end, h_init, error, message = _LANE_CASES[case]
    f = _lane_rhs(at, value)
    if lane == "array-lane":
        call = lambda: attempt_step(PAIR, f, 0.0, np.array([y0]), h_init or x_end / 100.0)
        if error is NonFiniteState:
            assert not np.isfinite(call()[1]).all()
            return
    else:
        p = IVProblem("lane", f, 0.0, [y0], x_end, scalar=lane == "float-lane")
        call = lambda: integrate(PAIR, p, ControllerConfig(h_init=h_init))
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error


def _handed(y):
    """What ``f`` is handed: ``float``, or an array's shape, dtype and writeability."""
    return float if type(y) is float else (type(y), y.shape, y.dtype.name, y.flags.writeable)


@pytest.mark.parametrize("problem, handed", [
    (builtin("paper_exponential"), {float}),
    (dataclasses.replace(builtin("paper_exponential"), scalar=False),
     {(np.ndarray, (1,), "float64", False)}),
    (_oscillator(), {(np.ndarray, (2,), "float64", False), (np.ndarray, (2,), "float64", True)}),
], ids=["flagged", "flagless", "d2"])
def test_f_is_handed_floats_if_flagged_and_vectors_if_not(problem, handed):
    # in the probe, every attempt and every rejection: a flagged f takes Python
    # floats, a flagless one-component f a read-only (1,) vector, new for each
    # call, and a two-component f (2,) vectors, the run's read-only state at
    # each attempt's first stage and a new stage argument at the others
    seen = []

    def f(x, y):
        seen.append(y)  # kept, so that no two arrays handed can share an id
        return problem.f(x, y)
    p = dataclasses.replace(problem, f=f, exact=None)
    s = integrate(PAIR, p, flagship_config(sigma=1.0)).summary  # no safety margin: rejections
    assert s.rejected > 0 and len(seen) == 5 * (1 + s.accepted + s.rejected)
    assert set(map(_handed, seen)) == handed
    if problem.y0.size == 1 and not problem.scalar:
        assert len(set(map(id, seen))) == len(seen)


def test_f_cannot_write_the_states_it_is_handed():
    # stage 1 hands f the run's accepted state itself, and the oracle's rows
    # pass f the exact states themselves: an f that wrote y[0] = 5.0 once
    # x > 0.5 used to end as a success from the state it wrote, and a rowwise
    # f that halved its rows in place moved the run's crossing to step 1.  A
    # flagless one-component run hands f a read-only vector at every stage, so
    # an f that clamps a negative stage in place fails at its first clamp, where
    # the array lane (d >= 2 and attempt_step) hands it a new writeable vector
    def writer(x, y):
        if x > 0.5:
            y[0] = 5.0
        return -y

    def halver(x, y):
        if np.ndim(y) == 2:
            y /= 2.0
        return -y

    clamped = []

    def clamper(x, y):  # its accepted states stay above 0: a run of it ended as a success
        if y[0] < 0.0:
            y[0] = 0.0
            clamped.append(x)
        return -50.0 * (y - 0.5)

    exact = lambda x: np.array([math.exp(-x)])
    for p, cfg in ((IVProblem("writer", writer, 0.0, [1.0], 1.0), flagship_config()),
                   (IVProblem("halver", halver, 0.0, [1.0], 1.0, exact=exact, rowwise=True),
                    flagship_config()),
                   (IVProblem("clamper", clamper, 0.0, [1.0], 1.0), flagship_config(h_init=0.1))):
        with pytest.raises(ValueError, match="read-only"):
            integrate(PAIR, p, cfg)
    assert not clamped
    assert np.isfinite(attempt_step(PAIR, clamper, 0.0, np.array([1.0]), 0.1)[1]).all()
    assert clamped


# in a child process, so that OPENBLAS_CORETYPE picks the BLAS kernel: the
# core it runs on, then each built-in's run with and without the scalar flag,
# digested, and each accepted step of the flagless run again by attempt_step, in
# the array lane, from the recorded x, w_higher and h before it
_LANES_CHILD = """
import dataclasses, hashlib
from pins import blas_core
from rk_error_lab import (ControllerConfig, POLICIES, attempt_step, builtin, builtin_pair,
                          integrate, problem_names)
print(blas_core())
pair = builtin_pair("rk3_rk4")
for name in problem_names():
    for policy in POLICIES:
        digests = set()
        for scalar in (True, False):
            p = dataclasses.replace(builtin(name), scalar=scalar)
            trace = integrate(pair, p, ControllerConfig(delta=1e-8, policy=policy))
            h = hashlib.sha256(repr(trace.summary).encode())
            for col in trace.records.columns.values():
                h.update(b"-" if col is None else col.tobytes())
            digests.add(h.hexdigest())
        c, x, w, same = trace.records.columns, p.x0, p.y0, 0
        for i in range(trace.summary.accepted):
            w_lower, w_higher, _ = attempt_step(pair, p.f, x, w, c["h"].item(i))
            same += (w_lower.tobytes() == c["w_lower"][i].tobytes()
                     and w_higher.tobytes() == c["w_higher"][i].tobytes())
            x, w = c["x"].item(i), c["w_higher"][i]
        print(name, policy, len(digests), same == trace.summary.accepted > 0)
"""


@pytest.mark.parametrize("core, reported", [("Haswell", "Haswell"), ("Prescott", "Katmai")],
                         ids=["Haswell", "Prescott"])
def test_both_lanes_give_the_same_bits_on_other_blas_kernels(core, reported):
    # the float lane hands BLAS the same contiguous, separately allocated
    # vectors as the array lane, so the two agree on every kernel, as do the
    # float lane's runs with and without the flag; the kernels disagree with
    # each other.  The child must run on the core it asks for: OpenBLAS
    # reports its Prescott kernels under their first alias, Katmai
    assert _child_lines(_LANES_CHILD, core) == [reported] + [
        f"{name} {policy} 1 True" for name in problem_names() for policy in POLICIES]


def _child_lines(code: str, core: str) -> list[str]:
    """The lines that a Python child running ``code`` prints, with this package
    and ``pins`` importable, under OpenBLAS core ``core``."""
    src = os.path.dirname(os.path.dirname(rk_core.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.split("\n")[:-1]


# the core, the flagship summaries by policy as JSON, and the long run's steps
_PINS_CHILD = """
import json
from pins import blas_core
from rk_error_lab import ControllerConfig, POLICIES, builtin, builtin_pair, integrate
pair, p = builtin_pair("rk3_rk4"), builtin("paper_exponential")
print(blas_core())
print(json.dumps({policy: vars(integrate(pair, p, ControllerConfig(
    delta=1e-8, sigma=0.8, policy=policy)).summary) for policy in POLICIES}))
print(integrate(pair, p, ControllerConfig(delta=1e-12)).summary.accepted)
"""


def test_the_haswell_kernel_moves_the_pins_it_is_recorded_to_move():
    # a record, not a skip: OpenBLAS's Haswell kernel sums the weighted stages
    # in another order than the pinned core's, and the values it gives are kept
    # beside the pinned ones.  JSON keeps each float's repr, so its bits
    core, summaries, steps = _child_lines(_PINS_CHILD, "Haswell")
    assert core == "Haswell"
    summaries = json.loads(summaries)
    for policy, pinned in HASWELL_FLAGSHIP.items():
        for name, value in pinned.items():
            assert same_bits(summaries[policy][name], value), (policy, name)
    assert int(steps) == HASWELL_LONG_RUN_STEPS


def test_a_flagless_rhs_of_another_size_at_an_exact_state_is_refused_by_name():
    # the oracle gives a flagless f its rows one at a time, and each row's value
    # is stored as a stage is.  This f returns one value at the exact states past
    # x0, which only the oracle's rows visit, and is refused at the first such
    # row (step 2's)
    osc = _oscillator()

    def f(x, y):
        if x > 0.0 and np.array_equal(y, osc.exact(x)):
            return y[1]
        return np.array([y[1], -y[0]])
    p = dataclasses.replace(osc, f=f)
    assert not p.rowwise
    records = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records
    message = f"rk3: stage 1 is of shape (), not (2,), at x={records[0].x}, h={records[1].h}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, flagship_config())


@pytest.mark.parametrize("value, error, what", [
    (lambda y: y[:, None], ValueError, "is of shape (2, 1), not (2,),"),
    (lambda y: 1j * y, ComplexStage, "is complex"),
], ids=["column", "complex"])
def test_a_flagless_rhs_refused_at_an_exact_state_names_its_row(value, error, what):
    # as above, for the other refusals where a row of the oracle's stage slot
    # stores a value: a shape that does not store as the row, and a complex
    # value, whose own first row is not the oracle's row
    osc = _oscillator()

    def f(x, y):
        if x > 0.0 and np.array_equal(y, osc.exact(x)):
            return value(y)
        return np.array([y[1], -y[0]])
    p = dataclasses.replace(osc, f=f)
    records = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records
    message = f"rk3: stage 1 {what} at x={records[0].x}, h={records[1].h}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        integrate(PAIR, p, flagship_config())


@pytest.mark.parametrize("problem", [
    builtin("decay"),
    IVProblem("scalar", lambda x, y: -y[0], 0.0, [1.0], 1.0,
              exact=lambda x: np.array([math.exp(-x)])),
    dataclasses.replace(builtin("decay"), scalar=False),
    _paper_exponential_d2(),
], ids=["decay", "numpy-scalar", "decay-flagless", "array-lane"])
def test_a_float_stage_of_the_state_size_is_stored_without_a_numpy_call(problem, monkeypatch):
    # a float64 value of the state's size (a numpy float64 scalar for one
    # component) is stored without the complex or the size check, in the
    # attempts, the probe and the oracle's rows.  The array lane (the oracle's
    # rows, and every attempt at d = 2) tests each value with one attribute
    # read and one comparison; the float lane, which runs every attempt at
    # d = 1, stores a Python float after one type test, and a flagless f's
    # value becomes one after that read and comparison
    assert problem.scalar == (problem is builtin("decay"))
    expected = integrate(PAIR, problem, flagship_config())

    def called(*args, **kwargs):
        raise AssertionError("a stage of the state's size went through a numpy check")
    monkeypatch.setattr(rk_core, "_stage_value", called)  # the checks of either lane
    trace = integrate(PAIR, problem, flagship_config())
    assert trace.summary == expected.summary and trace.summary.final_delta_lower is not None


def test_runs_overlapping_in_threads_leave_the_warning_filters_as_they_were():
    # run a stops in its first call of f until run b has started, and b until a
    # has returned; a run that set a process-global filter and put back the list
    # it found on entry left b's filter installed for the whole process
    a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()

    def f_a(x, y):
        a_in.set()
        assert b_in.wait(10)
        return -y

    def f_b(x, y):
        b_in.set()
        assert a_done.wait(10)
        return -y

    problems = {"a": IVProblem("a", f_a, 0.0, [1.0], 1.0),
                "b": IVProblem("b", f_b, 0.0, [1.0], 1.0)}
    final_x = {}

    def run(name, after=None):
        assert after is None or after.wait(10)
        final_x[name] = integrate(PAIR, problems[name], ControllerConfig()).summary.final_x

    with warnings.catch_warnings():
        filters = list(warnings.filters)
        a = threading.Thread(target=run, args=("a",))
        b = threading.Thread(target=run, args=("b", a_in))
        a.start()
        b.start()
        a.join(10)
        a_done.set()
        b.join(10)
        assert final_x == {"a": 1.0, "b": 1.0}
        assert warnings.filters == filters


def test_oracle_rows_turning_complex_name_the_earliest_complex_row():
    # f is real on the controller's states and complex on the oracle's row of
    # step j, from the exact state: the rows name that step's x and h
    decay, j = builtin("decay"), 20
    records = integrate(PAIR, dataclasses.replace(decay, exact=None), flagship_config()).records

    def f(x, y):
        if np.ndim(x) == 0:
            return -y
        out = -y.astype(complex)
        out[j] += 1e-3j
        return out
    message = f"rk3: stage 1 is complex at x={records[j - 1].x}, h={records[j].h}"
    with pytest.raises(ComplexStage, match=f"^{re.escape(message)}$"):
        integrate(PAIR, dataclasses.replace(decay, f=f), flagship_config())


# --- integrate: property --------------------------------------------------------------

_POSITIVE = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


# max_steps stays small so that each example runs in milliseconds
@settings(max_examples=60, deadline=None, database=None)
@given(name=st.sampled_from(problem_names()), exact=st.booleans(), x_end=_POSITIVE,
       delta=_POSITIVE, sigma=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       policy=st.sampled_from(POLICIES), h_init=st.none() | _POSITIVE,
       max_steps=st.integers(1, 100))
def test_integrate_lands_on_x_end_or_raises_a_documented_failure(
        name, exact, x_end, delta, sigma, policy, h_init, max_steps):
    p = builtin(name).with_x_end(x_end)
    if not exact:
        p = dataclasses.replace(p, exact=None)
    cfg = ControllerConfig(delta=delta, sigma=sigma, h_init=h_init, policy=policy,
                           max_steps=max_steps)
    try:
        trace = integrate(PAIR, p, cfg)
    except (StepsizeOutOfRange, StepsizeUnderflow, StepUnderflow, MaxStepsExceeded,
            MaxRejectsExceeded, NonFiniteState, NonFiniteStage):
        return
    except OverflowError as exc:
        assert "exact solution overflows" in str(exc)
        return
    xs = [rec.x for rec in trace.records]
    assert [rec.i for rec in trace.records] == list(range(1, len(xs) + 1))
    assert all(a < b for a, b in zip([p.x0] + xs, xs))
    assert xs[-1] == x_end == trace.summary.final_x
