import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rk_error_lab import controller, rk_core
from rk_error_lab.cli import figure1_export, read_trace_csv, write_trace_csv
from rk_error_lab import (
    BetaTracker,
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
    find_crossing,
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
        ControllerConfig(h_init=-0.1)
    for bad in (math.nan, math.inf):
        for name in ("delta", "h_init"):
            with pytest.raises(ValueError):
                ControllerConfig(**{name: bad})
    for bad in (2.5, 3.0, math.inf, math.nan, "10"):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            ControllerConfig(max_steps=bad)


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


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    if a is None or isinstance(a, bool):
        return a is b
    return type(a) is type(b) and a == b


def _same_records(a, b) -> bool:
    return all(_same_bits(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(StepRecord))


STATE_FIELDS = ("w_lower", "w_higher", "eps_lower", "beta_lower", "delta_lower",
                "delta_higher", "alpha_term")


def _one_state_only(f):
    # a right-hand side without the row flag is only ever given one state, also
    # by the oracle, which evaluates its pair one step at a time
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
@pytest.mark.parametrize("name", problem_names() + ["sine_across_zero"])
def test_oracle_fields_match_the_public_reference_functions(name, policy):
    # integrate reuses the attempt's stages and the previous step's y(x), and
    # forms the oracle's fields over whole columns after the loop; every
    # field must still equal its public reference bit for bit
    p = _sine_across_zero() if name == "sine_across_zero" else builtin(name)
    trace = integrate(PAIR, p, flagship_config(policy=policy))
    _assert_records_match_the_public_functions(p, trace, 1e-8)
    landing = trace.records[-2].x + trace.records[-1].h
    assert (landing != p.x_end) == (name == "sine_across_zero")


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


def test_a_flagged_rhs_that_takes_one_state_only_is_measured_step_by_step():
    # the oscillator's f asserts that it is given one state, so its rows raise
    # even with the row flag set; the oracle then measures it one step at a
    # time, and the run keeps the bits of the run without the flag
    flagless = _oscillator()
    flagged = dataclasses.replace(flagless, rowwise=True)
    a = integrate(PAIR, flagless, flagship_config())
    b = integrate(PAIR, flagged, flagship_config())
    assert a.summary == b.summary and len(a.records) == len(b.records) > 100
    assert all(_same_records(r, q) for r, q in zip(a.records, b.records))


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


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no_oracle"])
def test_a_run_retains_at_most_a_quarter_kilobyte_per_accepted_step(oracle):
    # the run is stored as columns: about 0.11 KB per step with the oracle and
    # 0.07 KB without at d = 1, where one StepRecord of seven arrays per step
    # took 1.16 KB and 0.67 KB
    p = builtin("paper_exponential")
    if not oracle:
        p = dataclasses.replace(p, exact=None)
    integrate(PAIR, p, flagship_config())  # caches filled on first use are not the run's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = integrate(PAIR, p, flagship_config(delta=1e-12))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.summary.accepted == 10438
    assert retained / trace.summary.accepted <= 256


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
    # a run stopped by the step cap after k accepted steps measures each of them
    # once: k + 1 lookups and 5 evaluations from the exact state per step
    k, stopped = 7, []
    for oracle in (True, False):
        p = dataclasses.replace(problem, f=f, exact=exact if oracle else None)
        calls.update(f=0, rows=0, exact=0)
        with pytest.raises(MaxStepsExceeded):
            integrate(PAIR, p, flagship_config(max_steps=k))
        stopped.append(dict(calls))
    assert stopped[0]["exact"] == k + 1 and stopped[1]["exact"] == 0
    assert stopped[0]["rows"] - stopped[1]["rows"] == 5 * k
    assert stopped[0]["f"] - stopped[1]["f"] == oracle_calls(k)


@pytest.mark.parametrize("name", problem_names() + ["linear"])
def test_pair_over_rows_is_bit_identical_to_each_row_alone(name):
    # the pair evaluated over the rows of a delta = 1e-12 run gives each row
    # the bits of _pair_increments from that row's state alone, for both
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
    assert name != "paper_exponential" or len(hs) == 10438
    lower, higher = rk_core._pair_increments(PAIR, p.f, xs, ys, hs)
    for k, (x, y, h) in enumerate(zip(xs.tolist(), ys, hs.tolist())):
        lo, hi = rk_core._pair_increments(PAIR, p.f, x, y, h)
        assert lower[k].tobytes() == lo.tobytes() and higher[k].tobytes() == hi.tobytes(), k


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


def test_stepsize_whose_power_overflows_is_refused():
    # h**5 overflows a float above about 4.5e61; h_max = span / 10 bounds every
    # step, the probe's span / 100 included
    huge = builtin("decay").with_x_end(1e100)
    with pytest.raises(StepsizeOutOfRange, match=re.escape("x_end=1e+100")):
        integrate(PAIR, huge, flagship_config())


def test_span_whose_h_min_underflows_is_refused():
    # h_min = 1e-12 * span underflows to 0 for a span below about 2.47e-312
    for x_end in (1e-315, 5e-324):
        with pytest.raises(StepsizeOutOfRange, match=re.escape(f"x_end={x_end!r}")):
            integrate(PAIR, builtin("decay").with_x_end(x_end), flagship_config())


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

def test_stepsize_underflow():
    # the required stepsize, about 2e-15, lies below decay's h_min of 1e-11
    with pytest.raises(StepsizeUnderflow):
        integrate(PAIR, builtin("decay"),
                  ControllerConfig(delta=1e-60, sigma=0.8, h_init=0.5))


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


def test_oracle_failure_on_an_accepted_step_wins_over_a_later_step_cap():
    # y is right at x0 but NaN beyond x = 0.2, so the pair evaluated from the
    # exact state of the first step starting past 0.5 is not finite; without
    # the oracle the same run goes on until the step cap stops it
    decay = builtin("decay")
    p = dataclasses.replace(decay, exact=lambda x: decay.exact(x) if x <= 0.2
                            else np.array([math.nan]))
    cfg = flagship_config(max_steps=20)
    with pytest.raises(MaxStepsExceeded):
        integrate(PAIR, dataclasses.replace(p, exact=None), cfg)
    records = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records
    j = next(k for k, rec in enumerate(records) if rec.x > 0.2)
    assert j + 1 < cfg.max_steps
    x, h = records[j].x, records[j + 1].h
    with pytest.raises(NonFiniteStage, match=re.escape(f"stage 1 is not finite at x={x}, h={h}")):
        integrate(PAIR, p, cfg)


def _decay_failing_at(nan_at, raise_at, shapes):
    # decay, row-capable, except that f is NaN at the exact state y(nan_at),
    # which only the oracle's pair visits (the run's own state there is off by
    # its global error), and that looking up y(raise_at) raises; every x that
    # f is given has its ndim put in shapes
    decay = builtin("decay")
    y_bad = decay.exact(nan_at)

    def f(x, y):
        shapes.add(np.ndim(x))
        return np.where((np.asarray(x)[..., None] == nan_at) & (y == y_bad), math.nan, -y)

    def exact(x):
        if x == raise_at:
            raise ValueError(f"no exact state at x={x}")
        return decay.exact(x)
    return dataclasses.replace(decay, f=f, exact=exact)


@pytest.mark.parametrize("first, rowwise", [("stage", True), ("lookup", True),
                                            ("stage", False), ("lookup", False)],
                         ids=["stage", "lookup", "stage-flagless", "lookup-flagless"])
def test_oracle_over_rows_raises_the_earliest_failing_step(first, rowwise):
    # the oracle looks up every state before it evaluates the pair, over rows
    # or one step at a time, and still raises the failure of the earliest
    # step: a non-finite stage of step j before the lookup that fails on step
    # j + 3, a lookup that fails on step j before the non-finite stage of step
    # j + 3, as one step at a time; without the row flag f sees no rows
    records = integrate(PAIR, dataclasses.replace(builtin("decay"), exact=None),
                        flagship_config()).records
    j = 20
    start = [builtin("decay").x0] + [rec.x for rec in records[:-1]]  # of each step
    nan_step, lookup_step = (j, j + 3) if first == "stage" else (j + 3, j)
    shapes = set()
    p = dataclasses.replace(_decay_failing_at(start[nan_step], records[lookup_step].x, shapes),
                            rowwise=rowwise)
    # without the oracle the run takes decay's steps: f is NaN at no state of its own
    alone = integrate(PAIR, dataclasses.replace(p, exact=None), flagship_config()).records
    assert [rec.x for rec in alone] == [rec.x for rec in records]
    if first == "stage":
        expected = NonFiniteStage, f"rk3: stage 1 is not finite at x={start[j]}, h={records[j].h}"
    else:
        expected = ValueError, f"no exact state at x={records[j].x}"
    shapes.clear()
    with pytest.raises(expected[0], match=re.escape(expected[1])):
        integrate(PAIR, p, flagship_config())
    # the controller gave f one state, the oracle rows if it may
    assert shapes == ({0, 1} if rowwise else {0})


def test_a_run_failing_before_its_first_accepted_step_evaluates_no_rows():
    # the stepsize underflows on the first step, so the oracle, which measures
    # the steps accepted before a failure, has no row to evaluate
    decay, shapes = builtin("decay"), set()

    def f(x, y):
        shapes.add(np.ndim(x))
        return decay.f(x, y)

    with pytest.raises(StepsizeUnderflow):
        integrate(PAIR, dataclasses.replace(decay, f=f),
                  ControllerConfig(delta=1e-60, sigma=0.8, h_init=0.5))
    assert shapes == {0}


def test_keyboard_interrupt_propagates_at_once():
    # the oracle measures no step after an interrupt: no lookup follows it
    decay = builtin("decay")
    calls, at_interrupt = {"f": 0, "exact": 0}, {}

    def f(x, y):
        calls["f"] += 1
        if calls["f"] == 40:  # the eighth attempt, the probe being the first
            at_interrupt.update(calls)
            raise KeyboardInterrupt
        return decay.f(x, y)

    def exact(x):
        calls["exact"] += 1
        return decay.exact(x)

    p = dataclasses.replace(decay, f=f, exact=exact)
    calls.update(exact=0)
    with pytest.raises(KeyboardInterrupt):
        integrate(PAIR, p, flagship_config())
    assert calls == at_interrupt


def test_max_rejects_exceeded(monkeypatch):
    # the rhs derivative is unbounded at x0, so the one-step error shrinks
    # much slower than the proposal assumes and the first step keeps rejecting
    f = lambda x, y: (1.0 + y) * (1.0 + x ** 0.1)
    p = IVProblem(name="rough", f=f, x0=0.0, y0=[0.0], x_end=10.0)
    monkeypatch.setattr(controller, "MAX_REJECTS", 3)
    with pytest.raises(MaxRejectsExceeded, match="4 consecutive rejections"):
        integrate(PAIR, p, ControllerConfig(delta=1e-12, sigma=0.8, h_init=1.0))


def test_overflowing_state_raises_nonfinite_state_at_once():
    # the stages stay finite but y + h * increment overflows: est is NaN, so the
    # attempt is rejected, and the first rejection names the state
    f = lambda x, y: np.full_like(y, 1e308)
    p = IVProblem(name="overflow", f=f, x0=0.0, y0=[1e308], x_end=10.0)
    with pytest.raises(NonFiniteState, match="x=0.0"):
        integrate(PAIR, p, ControllerConfig(h_init=1.0))


def test_overflowing_stage_raises_nonfinite_stage_without_a_numpy_warning():
    # the probe step overflows -y*y; the suite turns any warning into an error
    with pytest.raises(NonFiniteStage):
        integrate(PAIR, builtin("riccati_simple").with_x_end(1e40), ControllerConfig())


def test_nonfinite_stage_propagates():
    f = lambda x, y: y if x < 0.04 else np.full_like(y, np.inf)
    p = IVProblem(name="blowup", f=f, x0=0.0, y0=[1.0], x_end=1.0)
    with pytest.raises(NonFiniteStage):
        integrate(PAIR, p, flagship_config(h_init=0.09))


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
