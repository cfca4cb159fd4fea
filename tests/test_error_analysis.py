import dataclasses
import math
import re

import numpy as np
import pytest

from rk_error_lab import (
    BetaTracker,
    ControllerConfig,
    DegenerateFit,
    IVProblem,
    StepsizeOutOfRange,
    StepUnderflow,
    alpha_propagation_term,
    builtin,
    builtin_pair,
    classic_rk4,
    condition_check,
    empirical_order,
    estimate_beta,
    find_crossing,
    inf_norm,
    integrate,
    kutta3,
    local_error_exact,
    mean_beta_higher,
    reference_solution,
    rk_step,
    sigma_bound,
)
from rk_error_lab import controller, error_analysis
from rk_error_lab.error_analysis import StepRecord


def exp_poly(order, u):
    """Exponential series truncated at the given order (stability polynomial)."""
    acc = 0.0
    for j in reversed(range(order + 1)):
        acc = acc * u + 1.0 / math.factorial(j)
    return acc


def zero_problem():
    return IVProblem(name="zero", f=lambda x, y: np.zeros_like(y),
                     x0=0.0, y0=[1.0], x_end=1.0, exact=lambda x: np.array([1.0]))


# --- local_error_exact --------------------------------------------------------

def test_local_error_zero_field():
    out = local_error_exact(classic_rk4(), zero_problem(), 0.2, 0.1)
    assert float(out[0]) == 0.0


def test_local_error_rk4_on_decay():
    p = builtin("decay")
    out = local_error_exact(classic_rk4(), p, 0.0, 0.1)
    expected = exp_poly(4, -0.1) - math.exp(-0.1)
    assert float(out[0]) == pytest.approx(expected, rel=1e-10)
    assert float(out[0]) == pytest.approx(8.196e-8, rel=1e-3)


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -0.1])
def test_local_error_refuses_a_bad_stepsize_before_looking_up_y(h):
    # the increment checks h before y(x + h) is looked up, which would name
    # x + h as outside the interval for a NaN or an inf h
    p = builtin("decay")
    message = re.escape(f"stepsize must be positive and finite, got {h}")
    with pytest.raises(ValueError, match=message):
        local_error_exact(kutta3(), p, 1.0, h)
    with pytest.raises(ValueError, match=message):
        mean_beta_higher(BetaTracker(), classic_rk4(), p, 1.0, h)


def test_local_error_rk3_on_decay():
    p = builtin("decay")
    out = local_error_exact(kutta3(), p, 0.0, 0.1)
    expected = exp_poly(3, -0.1) - math.exp(-0.1)
    assert float(out[0]) == pytest.approx(expected, rel=1e-10)
    assert float(out[0]) == pytest.approx(-4.085e-6, rel=1e-3)


# --- estimate_beta ------------------------------------------------------------

def test_beta_zero_for_identical_solutions():
    out = estimate_beta(np.array([1.3]), np.array([1.3]), 0.1, 3)
    assert float(out[0]) == 0.0


def test_beta_direct_arithmetic():
    out = estimate_beta(np.array([1.0001]), np.array([1.00005]), 0.1, 3)
    assert float(out[0]) == pytest.approx(0.5, rel=1e-10)


def test_beta_matches_true_coefficient_on_decay():
    p = builtin("decay")
    h = 0.1
    w3 = rk_step(kutta3(), p.f, 0.0, p.y0, h)
    w4 = rk_step(classic_rk4(), p.f, 0.0, p.y0, h)
    beta = estimate_beta(w3, w4, h, 3)
    beta_true = local_error_exact(kutta3(), p, 0.0, h) / h ** 4
    assert float(beta[0]) == pytest.approx(-1.0 / 24.0, rel=1e-12)
    assert inf_norm(beta - beta_true) / inf_norm(beta_true) <= 0.03


def test_beta_stepsize_underflow():
    with pytest.raises(StepUnderflow):
        estimate_beta(np.array([1.0]), np.array([2.0]), 1e-100, 3)


def test_overflowing_stepsize_power_is_out_of_range():
    assert StepsizeOutOfRange is controller.StepsizeOutOfRange
    assert StepsizeOutOfRange is error_analysis.StepsizeOutOfRange
    with pytest.raises(StepsizeOutOfRange):  # h**4
        estimate_beta([1.0], [0.0], 1e80, 3)
    with pytest.raises(StepsizeOutOfRange):  # h**4 fits, h**5 overflows
        condition_check(1, np.array([1.0]), BetaTracker(1, 1.0), 1e70, 3)


# --- alpha_propagation_term ----------------------------------------------------

def test_alpha_term_vanishes_without_input_error():
    y = np.array([0.7])
    out = alpha_propagation_term(kutta3(), lambda x, v: -v, 0.0, y, y, 0.1)
    assert float(out[0]) == 0.0


def test_alpha_term_identity_field():
    # zero field: the input error passes through unchanged
    f = lambda x, v: np.zeros_like(v)
    y = np.array([1.0])
    w = np.array([1.0 + 1e-6])
    out = alpha_propagation_term(classic_rk4(), f, 0.0, y, w, 0.1)
    assert float(out[0]) == pytest.approx(1e-6, rel=1e-12)


def test_alpha_term_linear_decay():
    # for a linear field the contraction factor is the stability polynomial value
    f = lambda x, v: -v
    y = np.array([1.0])
    w = np.array([1.0 + 1e-6])
    out = alpha_propagation_term(classic_rk4(), f, 0.0, y, w, 0.1)
    assert float(out[0]) == pytest.approx(1e-6 * exp_poly(4, -0.1), rel=1e-9)
    assert float(out[0]) == pytest.approx(9.0484e-7, rel=1e-4)


# --- BetaTracker / mean_beta_higher --------------------------------------------

def test_tracker_single_sample():
    tr = BetaTracker().pushed(np.array([2.0]))
    assert tr.count == 1 and tr.mean_abs == 2.0


def test_tracker_running_mean_of_magnitudes():
    tr = BetaTracker().pushed(np.array([-1.0])).pushed(np.array([3.0]))
    assert tr.count == 2 and tr.mean_abs == pytest.approx(2.0, rel=1e-15)


def test_tracker_uses_max_norm_for_vectors():
    tr = BetaTracker().pushed(np.array([0.5, -4.0]))
    assert tr.mean_abs == 4.0


def test_mean_beta_higher_on_growth_problem():
    # h large enough that the higher-order local error sits well above the
    # subtraction roundoff of the exact values
    p = builtin("paper_exponential")
    lam = math.log(1000.0) / 100.0
    tr = mean_beta_higher(BetaTracker(), classic_rk4(), p, 0.0, 0.2)
    assert tr.count == 1
    assert tr.mean_abs == pytest.approx(lam ** 5 / 120.0, rel=0.01)


# --- condition_check ------------------------------------------------------------

def test_condition_direct_arithmetic_holds():
    tr = BetaTracker().pushed(np.array([1.0]))
    c = condition_check(1, np.array([1.0]), tr, 0.1, 3)
    assert c.lhs == pytest.approx(1e-4, rel=1e-12)
    assert c.rhs == pytest.approx(1e-5, rel=1e-12)
    assert c.holds
    assert c.m_ratio == pytest.approx(10.0, rel=1e-12)


def test_condition_violated_by_iteration_count():
    tr = BetaTracker().pushed(np.array([1.0]))
    c = condition_check(100, np.array([1.0]), tr, 0.1, 3)
    assert c.rhs == pytest.approx(1e-3, rel=1e-12)
    assert not c.holds
    assert 100 >= c.m_ratio


def test_condition_with_empty_tracker():
    c = condition_check(5, np.array([1.0]), BetaTracker(), 0.1, 3)
    assert c.holds and c.rhs == 0.0 and math.isinf(c.m_ratio)


def test_condition_holds_iff_below_m_ratio():
    tr = BetaTracker().pushed(np.array([0.7]))
    for i in (1, 3, 9, 27, 81):
        c = condition_check(i, np.array([2.3]), tr, 0.05, 3)
        assert c.holds == (i < c.m_ratio)


# --- complex input ----------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: alpha_propagation_term(kutta3(), lambda x, y: -y, 0.0, np.array([1 + 1j]),
                                    np.array([1.0]), 0.1), "y_exact = [1.+1.j] is complex"),
    (lambda: condition_check(1, [1j], BetaTracker(), 0.1, 3), "beta_lower = [0.+1.j] is complex"),
    (lambda: BetaTracker().pushed([2.0, 1 + 1j]), "sample = [2.+0.j 1.+1.j] is complex"),
], ids=["alpha_propagation_term", "condition_check", "BetaTracker.pushed"])
def test_complex_input_is_refused_by_name(call, message):
    # the imaginary parts used to be dropped: alpha_propagation_term gave [0.],
    # and condition_check and the tracker measured the real part only (inf_norm
    # and estimate_beta are among tests/test_rk_core.py's entry points)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# --- exact values past x0 ------------------------------------------------------------

_NAN_PAST_X0 = IVProblem(name="nan_past", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0,
                         exact=lambda x: np.array([1.0 if x == 0.0 else math.nan]))
# the two-component oscillator whose exact solution is one value, [cos x], past x0
_ONE_VALUE_PAST_X0 = IVProblem(
    name="one_value", f=lambda x, y: np.array([y[1], -y[0]]), x0=0.0, y0=[1.0, 0.0], x_end=1.0,
    exact=lambda x: np.array([1.0, 0.0] if x == 0.0 else [math.cos(x)]))
_COMPLEX_PAST_X0 = IVProblem(
    name="complex_past", f=lambda x, y: -y, x0=0.0, y0=[1.0], x_end=1.0,
    exact=lambda x: np.array([math.exp(-x) if x == 0.0 else complex(math.exp(-x))]))


@pytest.mark.parametrize("p, what", [(_NAN_PAST_X0, "is not finite"),
                                     (_ONE_VALUE_PAST_X0, "has shape (1,), y0 has shape (2,)"),
                                     (_COMPLEX_PAST_X0, "is complex")],
                         ids=["nan", "one-value", "complex"])
@pytest.mark.parametrize("call", [
    lambda p: reference_solution(p, 0.1),
    lambda p: local_error_exact(kutta3(), p, 0.0, 0.1),
    lambda p: empirical_order(kutta3(), p, "local", [0.1, 0.2, 0.3, 0.4]),
], ids=["reference_solution", "local_error_exact", "empirical_order"])
def test_an_exact_value_past_x0_is_checked_by_every_reader(call, p, what):
    # every lookup is checked, not the one at x0 alone: a NaN used to give [nan],
    # [nan] and a slope of nan, one value for two components was broadcast
    # (local_error_exact gave [-4.2e-06, -1.09]), and a complex value's
    # imaginary part was dropped
    message = f"{p.name}: exact solution at x=0.1 {what}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(p)


# --- sigma_bound -----------------------------------------------------------------

def test_sigma_bound_flagship_value():
    assert sigma_bound(0.8, 3, 1, 1e-8) == pytest.approx(0.73728e-8, rel=1e-12)


def test_sigma_bound_coefficient_below_one_for_z2():
    assert sigma_bound(0.8, 2, 1, 1.0) == pytest.approx(0.9216, rel=1e-12)
    assert sigma_bound(0.8, 2, 1, 1.0) < 1.0
    assert sigma_bound(0.8, 1, 1, 1.0) > 1.0


def test_sigma_bound_no_safety_margin():
    for z in (1, 3, 6):
        assert sigma_bound(1.0, z, 2, 1e-8) == pytest.approx(2e-8, rel=1e-15)


def test_sigma_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sigma_bound(0.0, 3, 1, 1e-8)
    with pytest.raises(ValueError):
        sigma_bound(0.8, 3, 1, 0.0)
    with pytest.raises(ValueError):
        sigma_bound(0.8, 0, 1, 1e-8)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            sigma_bound(0.8, 3, 1, delta)


# --- find_crossing ----------------------------------------------------------------

def make_record(i, x, delta_lower):
    d = None if delta_lower is None else np.array([delta_lower])
    return StepRecord(i=i, x=x, h=0.1, rejects=0, w_lower=np.array([1.0]),
                      w_higher=np.array([1.0]), eps_lower=None,
                      beta_lower=np.array([0.0]), delta_lower=d, delta_higher=None,
                      alpha_term=None, cond_lhs=0.0, cond_rhs=None, cond_holds=None,
                      bound=1.0, clamped=False)


def test_no_crossing_below_tolerance():
    recs = [make_record(i, 0.1 * i, 0.4e-8) for i in range(1, 4)]
    assert find_crossing(recs, 1e-8) is None


def test_first_exceedance_wins():
    recs = [make_record(1, 0.1, 0.5e-8), make_record(2, 0.2, 1.5e-8),
            make_record(3, 0.3, 0.9e-8), make_record(4, 0.4, 2.5e-8)]
    assert find_crossing(recs, 1e-8) == (2, 0.2)


def test_crossing_is_strict():
    recs = [make_record(1, 0.1, 1e-8)]
    assert find_crossing(recs, 1e-8) is None


def test_crossing_skips_records_without_diagnostics():
    recs = [make_record(1, 0.1, None), make_record(2, 0.2, 2e-8)]
    assert find_crossing(recs, 1e-8) == (2, 0.2)


def test_crossing_rejects_empty_input():
    with pytest.raises(ValueError):
        find_crossing([], 1e-8)
    for delta in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta must be positive"):
            find_crossing([make_record(1, 0.1, 2e-8)], delta)


# --- empirical_order ----------------------------------------------------------------

def test_local_slope_rk4_decay():
    slope = empirical_order(classic_rk4(), builtin("decay"), "local",
                            [2.0 ** -k for k in range(3, 7)])
    assert slope == pytest.approx(5.0, abs=0.15)


def test_local_slope_within_band_over_spec_range():
    # one smooth problem per tableau over h in {2^-3 .. 2^-8}
    hs = [2.0 ** -k for k in range(3, 9)]
    s3 = empirical_order(kutta3(), builtin("decay"), "local", hs)
    assert s3 == pytest.approx(4.0, abs=0.15)
    s4 = empirical_order(classic_rk4(), builtin("riccati_simple"), "local", hs)
    assert s4 == pytest.approx(5.0, abs=0.15)


def test_global_slope_rk4_decay():
    slope = empirical_order(classic_rk4(), builtin("decay"), "global",
                            [2.0 ** -k for k in range(3, 7)])
    assert slope == pytest.approx(4.0, abs=0.15)


def test_degenerate_fit_on_zero_field():
    with pytest.raises(DegenerateFit):
        empirical_order(classic_rk4(), zero_problem(), "local",
                        [0.1, 0.05, 0.025, 0.0125])


def test_degenerate_fit_at_roundoff_floor():
    # RK4 one-step errors on decay reach ~1e-15 by h = 2^-8
    with pytest.raises(DegenerateFit):
        empirical_order(classic_rk4(), builtin("decay"), "local",
                        [2.0 ** -k for k in range(3, 9)])


def test_empirical_order_argument_checks():
    p = builtin("decay")
    with pytest.raises(ValueError):
        empirical_order(classic_rk4(), p, "sideways", [0.1, 0.05, 0.025, 0.0125])
    with pytest.raises(ValueError):
        empirical_order(classic_rk4(), p, "local", [0.1, 0.05, 0.025])
    with pytest.raises(ValueError):
        empirical_order(classic_rk4(), p, "local", [0.1, 0.05, 0.05, 0.025])
    # each entry is checked as a stepsize, by its index
    for bad in (math.inf, math.nan, 0.0, -0.1):
        for mode in ("local", "global"):
            with pytest.raises(ValueError, match=rf"^h_set\[3\] must be positive and finite, "
                                                 rf"got {bad!r}$"):
                empirical_order(kutta3(), p, mode, [0.1, 0.05, 0.025, bad])


@pytest.mark.parametrize("h, steps", [(1e-9, "1e+10"), (1e-300, "1e+301"), (5e-324, "inf")])
def test_global_order_refuses_a_stepsize_past_the_step_cap(h, steps):
    # a fixed-step run of more than 1_000_000 steps is refused before the first
    # sample; 1e-9 on decay used to take 1e10 steps, 1e-300 never ended and
    # 5e-324, whose step count overflows, raised OverflowError
    calls = []
    decay = builtin("decay")
    p = dataclasses.replace(decay, f=lambda x, y: calls.append(x) or decay.f(x, y))
    message = f"h_set[1]={h!r} needs {steps} fixed steps over [0.0, 10.0], more than 1000000"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        empirical_order(classic_rk4(), p, "global", [0.1, h, 0.2, 0.3])
    assert calls == []


# --- recursion closure and cancellation ------------------------------------------

def test_recursion_closure_on_decay_run():
    # measured global error of each accepted step must equal measured local
    # error plus the propagated term, to roundoff
    pair = builtin_pair("rk3_rk4")
    trace = integrate(pair, builtin("decay"), ControllerConfig(delta=1e-8, sigma=0.8))
    for rec in trace.records:
        resid = inf_norm(rec.delta_lower - (rec.eps_lower + rec.alpha_term))
        assert resid <= 1e-12 * (1.0 + inf_norm(rec.delta_lower))


def test_pair_estimate_error_shrinks_linearly_in_h():
    # the pair estimate differs from the true coefficient by O(h); halving h
    # halves the relative gap
    p = builtin("paper_exponential")
    rels = []
    for h in (0.4, 0.2, 0.1, 0.05):
        w3 = rk_step(kutta3(), p.f, 0.0, p.y0, h)
        w4 = rk_step(classic_rk4(), p.f, 0.0, p.y0, h)
        beta_est = estimate_beta(w3, w4, h, 3)
        beta_true = local_error_exact(kutta3(), p, 0.0, h) / h ** 4
        rels.append(inf_norm(beta_est - beta_true) / inf_norm(beta_true))
    for coarse, fine in zip(rels, rels[1:]):
        assert 1.6 <= coarse / fine <= 2.4
