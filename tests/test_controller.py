import dataclasses
import math

import numpy as np
import pytest

from rk_error_lab import (
    BetaTracker,
    ControllerConfig,
    IVProblem,
    MaxRejectsExceeded,
    MaxStepsExceeded,
    MethodPair,
    NonFiniteStage,
    NonFiniteState,
    StepsizeOutOfRange,
    StepsizeUnderflow,
    StepUnderflow,
    alpha_propagation_term,
    attempt_step,
    builtin,
    builtin_pair,
    condition_check,
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
    cfg = ControllerConfig(delta=1e-8, sigma=1.0, h_min=1e-12, h_max=10.0)
    assert propose_stepsize(1e-8, cfg, 3) == pytest.approx(1.0, rel=1e-15)


def test_proposal_fourth_root():
    cfg = ControllerConfig(delta=1e-8, sigma=1.0, h_min=1e-12, h_max=10.0)
    h = propose_stepsize(1.0 / 24.0, cfg, 3)
    assert h == pytest.approx((2.4e-7) ** 0.25, rel=1e-13)
    assert h == pytest.approx(0.02213, rel=1e-3)
    cfg8 = ControllerConfig(delta=1e-8, sigma=0.8, h_min=1e-12, h_max=10.0)
    assert propose_stepsize(1.0 / 24.0, cfg8, 3) == pytest.approx(0.8 * h, rel=1e-15)


def test_proposal_zero_estimate_gives_h_max():
    cfg = ControllerConfig(delta=1e-8, sigma=0.8, h_min=1e-12, h_max=2.5)
    assert propose_stepsize(0.0, cfg, 3) == 2.5


def test_proposal_clamps_to_limits():
    cfg = ControllerConfig(delta=1e-8, sigma=0.8, h_min=0.5, h_max=1.0)
    assert propose_stepsize(1e3, cfg, 3) == 0.5
    assert propose_stepsize(1e-30, cfg, 3) == 1.0


def test_proposal_rejects_bad_inputs():
    cfg = ControllerConfig(delta=1e-8, sigma=0.8, h_min=1e-12, h_max=1.0)
    with pytest.raises(ValueError):
        propose_stepsize(-1.0, cfg, 3)
    with pytest.raises(ValueError):
        propose_stepsize(1.0, ControllerConfig(delta=1e-8), 3)  # unresolved limits


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
        ControllerConfig(h_min=0.5, h_max=0.1)
    with pytest.raises(ValueError):
        ControllerConfig(h_init=-0.1)
    for bad in (math.nan, math.inf):
        for name in ("delta", "h_init", "h_min", "h_max"):
            with pytest.raises(ValueError):
                ControllerConfig(**{name: bad})


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


def _sine_across_zero():
    # x0 < 0 < x_end: the clamped last step's x + h misses x_end in the last
    # bit, and y = sin(x) ~ x there, so y(x + h) differs from y(x_end)
    return IVProblem(name="sine_across_zero", f=lambda x, y: np.full_like(y, math.cos(x)),
                     x0=-3.0, y0=[math.sin(-3.0)], x_end=1e-3,
                     exact=lambda x: np.array([math.sin(x)]))


@pytest.mark.parametrize("policy", ["proportional", "reject-only"])
@pytest.mark.parametrize("name", problem_names() + ["sine_across_zero"])
def test_oracle_fields_match_the_public_reference_functions(name, policy):
    # integrate reuses the attempt's stages and the previous step's y(x);
    # every oracle field must still equal its public reference bit for bit
    p = _sine_across_zero() if name == "sine_across_zero" else builtin(name)
    trace = integrate(PAIR, p, flagship_config(policy=policy))
    x_prev, w_prev = p.x0, p.y0
    tracker = BetaTracker()
    for rec in trace.records:
        h = rec.h
        assert _bits(rec.eps_lower) == _bits(local_error_exact(PAIR.lower, p, x_prev, h))
        y_prev = reference_solution(p, x_prev)
        alpha = alpha_propagation_term(PAIR.lower, p.f, x_prev, y_prev, w_prev, h)
        assert _bits(rec.alpha_term) == _bits(alpha)
        tracker = mean_beta_higher(tracker, PAIR.higher, p, x_prev, h)
        cond = condition_check(rec.i, rec.beta_lower, tracker, h, PAIR.lower.z)
        assert rec.cond_rhs.hex() == cond.rhs.hex()
        x_prev, w_prev = rec.x, rec.w_higher
    assert trace.records[-1].clamped and x_prev == p.x_end
    landing = trace.records[-2].x + trace.records[-1].h
    assert (landing != p.x_end) == (name == "sine_across_zero")


@pytest.mark.parametrize("problem", [builtin("paper_exponential"), _sine_across_zero()])
def test_oracle_evaluation_counts(problem):
    # an accepted step costs 5 evaluations for the attempt and 5 for the
    # oracle, and one lookup of y(x_next); the start and a landing step
    # whose x + h misses x_end add one lookup each
    calls = {"f": 0, "exact": 0}

    def f(x, y):
        calls["f"] += 1
        return problem.f(x, y)

    def exact(x):
        calls["exact"] += 1
        return problem.exact(x)

    for oracle in (True, False):
        p = dataclasses.replace(problem, f=f, exact=exact if oracle else None)
        calls.update(f=0, exact=0)
        trace = integrate(PAIR, p, flagship_config())
        s, last = trace.summary, trace.records[-1]
        attempts = 1 + s.accepted + s.rejected  # the probe, then every trial
        assert calls["f"] == 5 * attempts + (5 * s.accepted if oracle else 0)
        missed = trace.records[-2].x + last.h != last.x
        assert calls["exact"] == (s.accepted + 1 + missed if oracle else 0)


def test_h_init_override_is_used():
    trace = integrate(PAIR, builtin("decay"), flagship_config(h_init=0.01))
    assert trace.records[0].h == 0.01
    # decay's default limits are [1e-11, 1]
    for h_init in (1.5, 1e-12):
        with pytest.raises(StepsizeOutOfRange):
            integrate(PAIR, builtin("decay"), flagship_config(h_init=h_init))


def test_stepsize_whose_power_overflows_is_refused():
    # h**5 overflows a float above about 4.5e61
    huge = builtin("decay").with_x_end(1e100)
    with pytest.raises(StepsizeOutOfRange):
        integrate(PAIR, huge, flagship_config())
    with pytest.raises(StepsizeOutOfRange):  # the probe, at span / 100
        integrate(PAIR, huge, flagship_config(h_max=1.0))
    # no step is longer than the span, so a huge h_max on a short one is fine
    trace = integrate(PAIR, builtin("decay"), flagship_config(h_max=1e100))
    assert trace.summary.final_x == 10.0


def test_reject_only_policy_keeps_stepsize():
    trace = integrate(PAIR, builtin("paper_exponential"),
                      flagship_config(policy="reject-only"))
    hs = [r.h for r in trace.records]
    # stepsize only changes at rejections (or the final clamp)
    changes = sum(1 for a, b in zip(hs, hs[1:]) if b != a)
    assert changes <= trace.summary.rejected + 1
    assert trace.summary.rejected > 0


# --- integrate: flagship regression anchors ------------------------------------------

def test_flagship_run_regression_anchor():
    # frozen values from this implementation's deterministic run
    s = integrate(PAIR, builtin("paper_exponential"), flagship_config()).summary
    assert s.accepted == 1042
    assert s.rejected == 0
    assert s.crossing_index == 155
    assert s.crossing_x == 30.371983519643603
    assert s.final_delta_lower == -8.279915846287622e-07
    assert s.condition_violation_index is None


def test_flagship_reject_only_regression_anchor():
    s = integrate(PAIR, builtin("paper_exponential"),
                  flagship_config(policy="reject-only")).summary
    assert s.accepted == 938
    assert s.rejected == 7
    assert s.crossing_index == 44
    assert s.crossing_x == 11.278686635103092
    assert s.final_delta_lower == -1.227496113642701e-06


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

def test_stepsize_underflow():
    with pytest.raises(StepsizeUnderflow):
        integrate(PAIR, builtin("decay"),
                  ControllerConfig(delta=1e-20, sigma=0.8, h_init=0.5,
                                   h_min=0.01, h_max=1.0))


def test_max_steps_exceeded():
    with pytest.raises(MaxStepsExceeded):
        integrate(PAIR, builtin("paper_exponential"), flagship_config(max_steps=10))


def test_oracle_failure_is_raised_at_its_own_step():
    # h**5 underflows in the oracle on step 1; without the oracle the run
    # needs 10 steps and hits the cap first
    p = builtin("decay").with_x_end(1e-68)
    with pytest.raises(StepUnderflow):
        integrate(PAIR, p, flagship_config(max_steps=1))
    with pytest.raises(MaxStepsExceeded):
        integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config(max_steps=1))


def test_max_rejects_exceeded():
    # the rhs derivative is unbounded at x0, so the one-step error shrinks
    # much slower than the proposal assumes and the first step keeps rejecting
    f = lambda x, y: (1.0 + y) * (1.0 + x ** 0.1)
    p = IVProblem(name="rough", f=f, x0=0.0, y0=[0.0], x_end=10.0)
    with pytest.raises(MaxRejectsExceeded):
        integrate(PAIR, p, ControllerConfig(delta=1e-12, sigma=0.8, h_init=1.0,
                                            max_rejects=3))


def test_overflowing_state_raises_nonfinite_state_at_once():
    # the stages stay finite but y + h * increment overflows: est is NaN, so the
    # attempt is rejected, and the first rejection names the state
    f = lambda x, y: np.full_like(y, 1e308)
    p = IVProblem(name="overflow", f=f, x0=0.0, y0=[1e308], x_end=10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState, match="x=0.0"):
            integrate(PAIR, p, ControllerConfig(h_init=1.0))


def test_nonfinite_stage_propagates():
    f = lambda x, y: y if x < 0.04 else np.full_like(y, np.inf)
    p = IVProblem(name="blowup", f=f, x0=0.0, y0=[1.0], x_end=1.0)
    with pytest.raises(NonFiniteStage):
        integrate(PAIR, p, flagship_config(h_init=0.09))
